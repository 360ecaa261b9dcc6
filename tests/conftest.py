import dataclasses

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


def record_solver_calls(monkeypatch, *names):
    """Patch each numpy.linalg.<name> to record (dimension, complex?) per call."""
    calls = []
    for name in names:
        original = getattr(np.linalg, name)

        def recording(a, *args, _original=original, **kwargs):
            calls.append((a.shape[0], np.iscomplexobj(a)))
            return _original(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, recording)
    return calls


def per_time_generator(scheme):
    """h as a function of the evolution time, one point at a time through
    transformed_generator: the per-point reference for a generator stack."""
    from thermalqfi.encoding import transformed_generator

    return lambda t: transformed_generator(dataclasses.replace(scheme, t=t))
