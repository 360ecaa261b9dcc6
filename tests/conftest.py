import hypothesis
import hypothesis.strategies as st
import numpy as np

hypothesis.settings.register_profile("default", deadline=None)
hypothesis.settings.load_profile("default")


def random_hermitian(rng, dim, scale=1.0):
    """(X + X^dagger)/2 for X with independent complex Gaussian entries."""
    x = rng.normal(scale=scale, size=(dim, dim)) + 1j * rng.normal(scale=scale, size=(dim, dim))
    return 0.5 * (x + x.conj().T)


@st.composite
def hermitian_matrices(draw, min_dim=2, max_dim=8, scale=1.0):
    """Random dense Hermitian matrices, reproducible through a drawn seed."""
    dim = draw(st.integers(min_value=min_dim, max_value=max_dim))
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    return random_hermitian(np.random.default_rng(seed), dim, scale)


@st.composite
def hermitian_pairs(draw, min_dim=2, max_dim=8):
    """Two independent Hermitian matrices of the same dimension."""
    dim = draw(st.integers(min_value=min_dim, max_value=max_dim))
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    rng = np.random.default_rng(seed)
    return random_hermitian(rng, dim), random_hermitian(rng, dim)


def record_solver_calls(monkeypatch, *names, key=lambda a: (a.shape[-1], np.iscomplexobj(a))):
    """Patch each numpy.linalg.<name> to record key(a) per call: by default
    (matrix size, complex?), the same for one matrix and for a stack."""
    calls = []
    for name in names:
        original = getattr(np.linalg, name)

        def recording(a, *args, _original=original, **kwargs):
            calls.append(key(a))
            return _original(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, recording)
    return calls


def full_array_kernel(delta, t):
    """(exp(i d t) - 1)/(i d) on every entry of an array of level
    differences d, at one time t or a (T, 1, 1) array of times, formed out
    of place from the definition: the series t (1 + i d t / 2) where
    |d t| < KERNEL_SERIES_CUTOFF. The reference for the one-triangle
    kernel."""
    from thermalqfi.encoding import KERNEL_SERIES_CUTOFF

    x = delta * t
    small = np.abs(x) < KERNEL_SERIES_CUTOFF
    kernel = (np.exp(1j * x) - 1.0) / (1j * np.where(small, 1.0, delta))
    kernel[small] = np.broadcast_to(t, x.shape)[small] * (1.0 + 0.5j * x[small])
    return kernel


def full_kernel_generator(family, t):
    """The spectral-kernel generator of a HamiltonianFamily at one time t,
    formed on the full n x n arrays: V = W^dagger dH/dlambda W times the
    kernel of every level difference E_m - E_n (full_array_kernel),
    rotated back and symmetrized out of place. Where H(lambda) splits by
    parity and dH/dlambda conserves it, V is an exact zero across the
    blocks, so this has the bits of the block-by-block kernel."""
    from thermalqfi.operators import eigendecompose

    dec = eigendecompose(family.hamiltonian(family.lam))
    e = dec.eigenvalues
    x = dec.from_eigenbasis(dec.to_eigenbasis(family.dh_dlambda).matrix * full_array_kernel(e[:, None] - e[None, :], t))
    return 0.5 * (x + x.conj().T)


def per_time_generator(scheme):
    """h as an array, as a function of the evolution time, formed one time
    at a time apart from the generator stack: t A on A's array for an
    explicit generator, the full-array kernel for a Hamiltonian family.
    The per-point reference for a generator stack."""
    from thermalqfi.encoding import ExplicitGenerator

    if isinstance(scheme, ExplicitGenerator):
        return lambda t: t * scheme.generator.matrix
    return lambda t: full_kernel_generator(scheme, t)


def bound_reports(*args, **kwargs):
    """bound_rows' columns zipped into one BoundReport per row."""
    from thermalqfi.bounds import BoundReport, bound_rows

    return list(map(BoundReport, *bound_rows(*args, **kwargs)))
