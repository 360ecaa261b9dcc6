"""The acceptance battery: closed forms vs pipeline, bound orderings,
randomized audits, figure sweeps, determinism.

Each check returns a CheckResult with a human-readable detail line and,
on failure, a standalone sweep config reproducing the first offending
point. The CLI verify verb runs all of them and writes a JSON summary;
the pytest acceptance module asserts them one by one.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import tempfile
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from .bounds import bound_report, stacked_bound_reports
from .closed_forms import large_j_linear_approx, linear_qfi_closed, oat_seminorm_semiclassical
from .encoding import ExplicitGenerator, NumericUnitary, _integral_matrices, encoding_spectrum, generator_fd
from .models import build_scenario, closed_forms_for, model_encoding
from .operators import _symmetrize, eigendecompose, matrix_exp_scaled, seminorm
from .qfi import _relative_spread
from .spin import oat_commutator
from .sweep import SweepConfig, figure_configs, render_csv, run_sweep, run_sweeps
from .thermal import gibbs_state

DEFAULT_SEED = 20240611
RANDOM_SCENARIO_COUNT = 1000

GRID_TWICE_J = (1, 2, 3, 4, 6, 10)
GRID_BETA = (0.1, 0.5, 1.1, 2.0, 5.0)
GRID_T = (0.5, 1.0, 3.14)
LMG_LAMBDAS = (0.5, 1.0)
WIDE_TWICE_J = (1, 2, 3, 4, 6, 10, 16, 27, 40)  # J up to 20, half-integers included

AGREEMENT_RTOL = 1e-8
CLOSED_FORM_RTOL = 1e-8


@dataclass
class CheckResult:
    criterion: int
    name: str
    passed: bool
    detail: str
    repro: dict | None = field(default=None)


@dataclass(frozen=True)
class Failure:
    """What a check body returns when its criterion fails: the detail line
    and, where one point is to blame, the sweep config reproducing it."""

    detail: str
    repro: dict | None = None


def _criterion(number: int, name: str):
    """Turn a check body into the public check for criterion `number`.

    The body takes the seed and returns its pass detail (a str) or a
    Failure; the check returns the CheckResult for either.
    """

    def wrap(body):
        @functools.wraps(body)
        def check(seed: int = DEFAULT_SEED) -> CheckResult:
            outcome = body(seed)
            if isinstance(outcome, Failure):
                return CheckResult(number, name, False, outcome.detail, outcome.repro)
            return CheckResult(number, name, True, outcome)

        return check

    return wrap


GRID_VARIANTS = (("linear", None), ("oat", None)) + tuple(("lmg", lam) for lam in LMG_LAMBDAS)
GRID_OUTPUTS = ("qfi_general", "qfi_thermal", "qfi_sld", "variance_bound", "seminorm_bound", "gap_bounds")


def _point_config(model, twice_j, beta, t, lam) -> dict:
    cfg = {
        "model": model,
        "twice_j": twice_j,
        "beta_grid": [beta],
        "t_grid": [t],
        "outputs": list(GRID_OUTPUTS),
    }
    if model == "linear":
        cfg["axis"] = "x"
    if lam is not None:
        cfg["lambda"] = lam
    return cfg


def _grid_config(model, twice_j, lam) -> SweepConfig:
    """A variant's repro config (_point_config) widened to GRID_BETA x
    GRID_T, built as SweepConfig.from_dict would parse it."""
    return SweepConfig(model, twice_j, GRID_T, beta_grid=GRID_BETA, lam=lam, outputs=GRID_OUTPUTS)


def _grid_rows(variants, twice_js):
    """(model, 2J, beta, t, lambda, sweep row) in the order 2J, beta, t,
    (model, lambda) variant, from one run_sweeps per 2J over its variants:
    one probe decomposition per 2J, one encoding decomposition per
    variant, one stacked SpectralPlan per chunk of (variant, time) pairs
    (one per 2J up to 2J = 27)."""
    for twice_j in twice_js:
        sweeps = run_sweeps([_grid_config(model, twice_j, lam) for model, lam in variants])
        points = [{(row.beta, row.t): row for row in rows} for rows in sweeps]
        for beta, t in itertools.product(GRID_BETA, GRID_T):
            for (model, lam), rows in zip(variants, points):
                yield model, twice_j, beta, t, lam, rows[beta, t]


@_criterion(1, "three-way QFI agreement")
def check_three_way_agreement(seed):
    """The general, thermal and SLD routes agree at 1e-8 relative on the
    full model grid: the largest pairwise difference over the largest |F|,
    so a small F cannot hide a disagreement."""
    worst = 0.0
    count = 0
    for model, twice_j, beta, t, lam, row in _grid_rows(GRID_VARIANTS, GRID_TWICE_J):
        count += 1
        spread = _relative_spread(row.f_general, row.f_thermal, row.f_sld)
        worst = max(worst, spread)
        if spread > AGREEMENT_RTOL:
            return Failure(
                f"route disagreement {spread:.3e} at {model} 2J={twice_j} beta={beta} t={t} lam={lam} "
                f"(f_general={row.f_general!r}, f_thermal={row.f_thermal!r}, f_sld={row.f_sld!r})",
                _point_config(model, twice_j, beta, t, lam),
            )
    return f"max relative route spread {worst:.3e} over {count} scenarios"


@_criterion(2, "linear closed-form QFI")
def check_linear_closed_form(seed):
    """The closed linear QFI matches the matrix pipeline at 1e-8 relative
    for J <= 20, and the qubit value at beta=2, t=1 equals tanh(1)^2 to
    1e-10."""
    worst = 0.0
    for _, twice_j, beta, t, _, row in _grid_rows((("linear", None),), WIDE_TWICE_J):
        pipeline = row.f_general
        closed = linear_qfi_closed(twice_j, beta, t)
        rel = _relative_spread(closed, pipeline)
        worst = max(worst, rel)
        if rel > CLOSED_FORM_RTOL:
            return Failure(
                f"closed {closed!r} vs pipeline {pipeline!r} (rel {rel:.3e}) at 2J={twice_j} beta={beta} t={t}",
                _point_config("linear", twice_j, beta, t, None),
            )
    qubit = linear_qfi_closed(1, 2.0, 1.0)
    target = math.tanh(1.0) ** 2
    if abs(qubit - target) > 1e-10:
        return Failure(
            f"qubit spot value {qubit!r} differs from tanh(1)^2 = {target!r}",
            _point_config("linear", 1, 2.0, 1.0, None),
        )
    return (
        f"max rel deviation {worst:.3e} over {len(WIDE_TWICE_J) * len(GRID_BETA) * len(GRID_T)} points; "
        f"qubit value matches tanh(1)^2 to {abs(qubit - target):.1e}"
    )


@_criterion(3, "closed-form variance bounds and twisting QFI")
def check_variance_closed_forms(seed):
    """The closed variance bounds (linear and twisting, with the explicit
    t^2) and the closed twisting QFI match the numeric pipeline at 1e-8
    relative."""
    worst = 0.0
    for model, twice_j, beta, t, _, row in _grid_rows(GRID_VARIANTS[:2], WIDE_TWICE_J):
        closed_qfi, closed_variance = closed_forms_for(model, "x")
        checks = [(f"{model} variance", closed_variance(twice_j, beta, t), row.variance_bound)]
        if model == "oat":
            checks.append(("oat qfi", closed_qfi(twice_j, beta, t), row.f_general))
        for label, closed, numeric in checks:
            rel = _relative_spread(closed, numeric)
            worst = max(worst, rel)
            if rel > CLOSED_FORM_RTOL:
                return Failure(
                    f"{label}: closed {closed!r} vs numeric {numeric!r} (rel {rel:.3e}) at 2J={twice_j} beta={beta} t={t}",
                    _point_config(model, twice_j, beta, t, None),
                )
    return f"max rel deviation {worst:.3e} across linear variance, twisting variance and twisting QFI"


def _random_draws(seed: int):
    """Criterion 4's draws of each scenario, in the order dim, H, A, beta,
    t from one seeded stream: one (4, dim, dim) standard normal draw
    holding the real and then the imaginary parts of H's Gaussian matrix,
    then A's, and one draw of two uniforms in [0, 1), mapped to beta in
    [0.05, 10) and t in [0.1, 3.14) by rng.uniform's own low + (high -
    low) * u, so the stream and its bits are those of rng.normal and two
    rng.uniform calls."""
    rng = np.random.default_rng(seed)
    for _ in range(RANDOM_SCENARIO_COUNT):
        dim = int(rng.integers(2, 9))
        normals = rng.standard_normal((4, dim, dim))
        u_beta, u_t = rng.random(2).tolist()
        yield normals, 0.05 + (10.0 - 0.05) * u_beta, 0.1 + (3.14 - 0.1) * u_t


def _hermitian_parts(normals: np.ndarray) -> np.ndarray:
    """H and A, as a (2, ...) array, from (4, ...) draws: 0.5 (X + X^dagger)
    of each X = re + i im, formed in place."""
    return _symmetrize(normals[0::2] + 1j * normals[1::2])


def _random_scenarios(seed: int):
    """Criterion 4's (H, A, beta, t) scenarios, one at a time."""
    for normals, beta, t in _random_draws(seed):
        hamiltonian, generator = _hermitian_parts(normals)
        yield hamiltonian, generator, beta, t


def _random_reports(seed: int):
    """(index, BoundReport) of each random scenario, one stack per
    dimension in ascending dimension and each stack in draw order. Each
    stack's H and A come from one _hermitian_parts over its (4, k, n, n)
    draws, which are dropped once the parts exist. The draws are exactly
    Hermitian, finite and dense, with dim <= 8, so every stack meets
    stacked_bound_reports' precondition. A stack's arrays are dropped
    before the next stack is formed."""
    groups = {}
    for index, (normals, beta, t) in enumerate(_random_draws(seed)):
        groups.setdefault(normals.shape[-1], []).append((index, normals, beta, t))
    for dim in sorted(groups):
        indices, normals, betas, times = zip(*groups.pop(dim))
        normals = np.stack(normals, axis=1)
        hamiltonians, generators = _hermitian_parts(normals)
        del normals
        yield from zip(indices, stacked_bound_reports(hamiltonians, generators, np.array(betas), np.array(times)))
        del indices, hamiltonians, generators, betas, times


@_criterion(4, "bound ordering chain")
def check_bound_chain(seed):
    """The full ordering chain holds on the model grid and on 1000 seeded
    random scenarios, and the documented spot values for the seminorm and
    product bounds come out exactly."""
    for model, twice_j, beta, t, lam, row in _grid_rows(GRID_VARIANTS, GRID_TWICE_J):
        if not row.ordering_ok:
            # the detail shows the whole BoundReport, which a sweep row does not carry
            scenario = build_scenario(model, twice_j, beta, t, lam=lam)
            report = bound_report(scenario.probe, scenario.scheme, h=scenario.h)
            return Failure(
                f"ordering violated at {model} 2J={twice_j} beta={beta} t={t} lam={lam}: {report}",
                _point_config(model, twice_j, beta, t, lam),
            )
    index = min((i for i, report in _random_reports(seed) if not report.ordering_ok), default=None)
    if index is not None:  # drawn again, for the single-point detail line of the lowest offender
        hamiltonian, generator, beta, t = next(itertools.islice(_random_scenarios(seed), index, None))
        report = bound_report(gibbs_state(hamiltonian, beta), ExplicitGenerator(generator, t))
        return Failure(
            f"ordering violated on random scenario {index} (seed {seed}, dim {hamiltonian.shape[0]}, "
            f"beta {beta}, t {t}): {report}"
        )
    # spot values: linear seminorm bound beta^2 t^2 (2J)^2 / 4, twisting product bound beta^2 t^2 J^6
    beta, t = 1.3, 0.7
    lin = build_scenario("linear", 4, beta, t)  # J = 2
    lin_rep = bound_report(lin.probe, lin.scheme, h=lin.h)
    expect_semi = beta**2 * t**2 * 4.0**2 / 4.0
    if _relative_spread(lin_rep.seminorm_bound, expect_semi) > 1e-12:
        return Failure(f"linear seminorm bound {lin_rep.seminorm_bound!r} != beta^2 t^2 (2J)^2/4 = {expect_semi!r}",
                       _point_config("linear", 4, beta, t, None))
    oat = build_scenario("oat", 4, beta, t)  # integer J = 2
    oat_rep = bound_report(oat.probe, oat.scheme, h=oat.h)
    expect_prod = beta**2 * t**2 * 2.0**6
    if _relative_spread(oat_rep.product_bound, expect_prod) > 1e-12:
        return Failure(f"twisting product bound {oat_rep.product_bound!r} != beta^2 t^2 J^6 = {expect_prod!r}",
                       _point_config("oat", 4, beta, t, None))
    return f"ordering_ok on the full grid and {RANDOM_SCENARIO_COUNT} random scenarios (seed {seed}); spot values exact"


def _linear_qfi(twice_j, betas, t) -> dict[float, float]:
    """The general-route QFI of the linear model along x at time t, by beta,
    from one sweep over betas (increasing)."""
    config = SweepConfig("linear", twice_j, (t,), beta_grid=betas, outputs=("qfi_general",))
    return {row.beta: row.f_general for row in run_sweep(config)}


@_criterion(5, "high-temperature vanishing")
def check_high_temperature_vanishing(seed):
    """The linear QFI at beta = 1e-3 sits below its seminorm ceiling
    beta^2 ||J_y||^2 / 4 (1e-4 at J=10, 2.5e-5 at J=5), and F/beta^2
    converges on a log grid as beta -> 0."""
    t = 1.0
    f = {20: _linear_qfi(20, (1e-4, 1e-3, 1e-2), t), 10: _linear_qfi(10, (1e-3,), t)}
    failures = [
        f"2J={twice_j}: F(1e-3) = {f[twice_j][1e-3]!r} exceeds ceiling {ceiling!r}"
        for twice_j, ceiling in ((20, 1e-4), (10, 2.5e-5))
        if f[twice_j][1e-3] > ceiling
    ]
    if failures:
        return Failure("; ".join(failures), _point_config("linear", 20, 1e-3, t, None))
    ratios = [f[20][beta] / beta**2 for beta in (1e-2, 1e-3, 1e-4)]
    d1 = abs(ratios[1] - ratios[0])
    d2 = abs(ratios[2] - ratios[1])
    if not (d2 < d1 / 4.0):
        return Failure(f"F/beta^2 not converging: ratios {ratios}, diffs {d1!r}, {d2!r}")
    return (
        f"F(1e-3) below the seminorm ceiling at J=10 and J=5; F/beta^2 -> {ratios[-1]:.6f} "
        f"(successive diffs {d1:.2e}, {d2:.2e})"
    )


@_criterion(6, "standard-quantum-limit scaling")
def check_standard_quantum_limit(seed):
    """At beta = 20, t = 1 the exact linear QFI matches the large-spin
    approximation 2J - 2(2J+1)/(1+e^beta) at 1e-3 relative and F/(2J)
    lands in [0.99, 1]."""
    beta, t = 20.0, 1.0
    details = []
    for twice_j in (20, 40, 100):  # J = 10, 20, 50
        j = twice_j / 2.0
        exact = linear_qfi_closed(twice_j, beta, t)
        approx = large_j_linear_approx(twice_j, beta, t)
        rel = abs(exact - approx) / max(abs(exact), abs(approx))
        ratio = exact / (2.0 * j)
        if rel > 1e-3:
            return Failure(f"J={j}: exact {exact!r} vs approx {approx!r} (rel {rel:.3e})")
        if not (0.99 <= ratio <= 1.0 + 1e-12):
            return Failure(f"J={j}: F/(2J) = {ratio!r} outside [0.99, 1]")
        details.append(f"J={j}: rel {rel:.1e}, F/(2J) = {ratio:.6f}")
    return "; ".join(details)


@_criterion(7, "twisting temperature optimum")
def check_oat_temperature_peak(seed):
    """On the figure-2 sweeps (J = 5, t = 1) the twisting QFI over the
    polarization grid has an interior maximum while the linear QFI is
    monotone nondecreasing (curve shapes, not point values, are the
    target)."""
    oat_cfg, lin_cfg = (SweepConfig.from_dict(_figure_sweep_config(name)) for name in ("fig2a", "fig2b"))
    oat_f, lin_f = ([row.f_general for row in rows] for rows in run_sweeps([oat_cfg, lin_cfg]))
    peak = max(range(len(oat_f)), key=oat_f.__getitem__)
    interior = 0 < peak < len(oat_f) - 1 and oat_f[peak] > max(oat_f[0], oat_f[-1])
    diffs = np.diff(lin_f)
    monotone = bool(np.all(diffs >= -1e-12 * np.maximum(1.0, np.abs(lin_f[:-1]))))
    if not interior:
        return Failure(f"no interior maximum: F over P = {oat_f}")
    if not monotone:
        return Failure(f"linear QFI not monotone in P: {lin_f}")
    return f"twisting F peaks at P = {oat_cfg.p_grid[peak]} (interior), linear F monotone nondecreasing over P"


@_criterion(8, "semiclassical seminorm estimate")
def check_semiclassical_seminorm(seed):
    """||J_x J_y + J_y J_x|| <= 2J^2 for every tested J, exact small-spin
    values 2 (J=1) and 2 sqrt(3) (J=3/2), and the ratio to 2J^2
    nondecreasing from J = 3/2 up (at J = 1 the estimate is already exact,
    so the ratio starts at 1 and the monotone run begins one step later)."""
    twice_js = (2, 3, 4, 10, 20, 40, 80)  # J = 1, 3/2, 2, 5, 10, 20, 40
    exact = {twice_j: seminorm(oat_commutator(twice_j)) for twice_j in twice_js}
    if abs(exact[2] - 2.0) > 1e-9:
        return Failure(f"J=1 seminorm {exact[2]!r} != 2")
    if abs(exact[3] - 2.0 * math.sqrt(3.0)) > 1e-9:
        return Failure(f"J=3/2 seminorm {exact[3]!r} != 2 sqrt(3)")
    ratios = []
    for twice_j, width in exact.items():
        estimate = oat_seminorm_semiclassical(twice_j)
        if width > estimate + 1e-9:
            return Failure(f"2J={twice_j}: exact {width!r} exceeds 2J^2 = {estimate!r}")
        ratios.append(width / estimate)
    tail = ratios[1:]  # from J = 3/2 on
    if any(b < a - 1e-12 for a, b in zip(tail, tail[1:])):
        return Failure(f"ratio not nondecreasing from J=3/2: {ratios}")
    return f"exact values reproduced; ratios to 2J^2: {[round(r, 4) for r in ratios]}"


def _unitaries(family, decomposition):
    """U(lambda', t) = exp(-i H(lambda') t) of a family, given the
    decomposition of H(lambda) at its own lambda: each other H(lambda')
    is decomposed once and each unitary formed once, for as long as the
    returned function lives."""

    @functools.cache
    def decompose(value):
        if value == family.lam:
            return decomposition
        return eigendecompose(family.hamiltonian(value), "encoding Hamiltonian")

    @functools.cache
    def unitary(value, t):
        return matrix_exp_scaled(decompose(value), -1j * t)

    return unitary


def _fd_gap(unitary, lam: float, t: float, reference: np.ndarray, step: float) -> float:
    """Largest entry of |finite-difference generator - reference| for the
    unitary at time t, unitary(lambda', t), at the given step."""
    numeric = NumericUnitary(unitary=lambda value: unitary(value, t), lam=lam, fd_step=step)
    return float(np.max(np.abs(generator_fd(numeric).matrix - reference)))


@_criterion(9, "generator route cross-check")
def check_lmg_generator_routes(seed):
    """Spectral-kernel and finite-difference generators agree at 1e-5
    relative on the collective-spin family, and halving the step shrinks
    the gap by a factor in [3, 5] wherever the gap sits above the roundoff
    floor (below ~1e-9 the O(eps/step) subtraction noise, not the stencil
    truncation, dominates and no step scaling can show). Per (2J, lambda)
    H(lambda) is decomposed once, for the spectral kernel at both times
    and for U(lambda), and so is each H(lambda +- step)."""
    noise_floor = 1e-9
    times = (1.0, 3.14)
    worst_rel = 0.0
    ratios = []
    for twice_j in (2, 4, 8):  # J = 1, 2, 4
        for lam in (0.5, 1.0):
            family = model_encoding("lmg", twice_j, times[0], lam=lam)[1]  # its own t is not read
            spectrum = encoding_spectrum(family)
            generators = _integral_matrices(spectrum, np.array(times)[:, None, None])
            unitary = _unitaries(family, spectrum.decomposition)
            for i, t in enumerate(times):
                h_int = generators.member(i).matrix
                scale = max(1.0, float(np.max(np.abs(h_int))))
                gap_full = _fd_gap(unitary, family.lam, t, h_int, 1e-5)
                rel = gap_full / scale
                worst_rel = max(worst_rel, rel)
                if rel > 1e-5:
                    return Failure(f"2J={twice_j} lam={lam} t={t}: fd vs spectral rel gap {rel:.3e}")
                if gap_full > noise_floor:
                    ratio = gap_full / _fd_gap(unitary, family.lam, t, h_int, 5e-6)
                    ratios.append(ratio)
                    if not (3.0 <= ratio <= 5.0):
                        return Failure(f"2J={twice_j} lam={lam} t={t}: step-halving ratio {ratio!r} outside [3, 5]")
    if len(ratios) < 3:
        return Failure(f"only {len(ratios)} points rose above the noise floor for the step-halving check")
    return (
        f"max rel gap {worst_rel:.3e}; step-halving ratios in [{min(ratios):.2f}, {max(ratios):.2f}] "
        f"on {len(ratios)} above-floor points"
    )


def _figure_sweep_config(name: str) -> dict:
    """A canonical figure config without its metadata and output path, as a
    standalone repro config."""
    cfg_dict = dict(figure_configs()[name])
    cfg_dict.pop("metadata", None)
    cfg_dict.pop("output_path", None)
    return cfg_dict


@_criterion(10, "figure-3 sweeps")
def check_figure3_sweeps(seed):
    """The fixed-temperature and fixed-time collective-spin sweeps emit CSV
    with every row ordering_ok (curve shapes are for manual comparison;
    point-wise reproduction is out of scope)."""
    details = []
    for name in ("fig3a", "fig3b"):
        cfg_dict = _figure_sweep_config(name)
        rows = run_sweep(SweepConfig.from_dict(cfg_dict))
        bad = [row for row in rows if not row.ordering_ok]
        if bad:
            return Failure(
                f"{name}: {len(bad)} rows violate the ordering, first at beta={bad[0].beta} t={bad[0].t}", cfg_dict
            )
        lines = render_csv(rows).splitlines()
        if len(lines) != len(rows) + 1:
            return Failure(f"{name}: CSV has {len(lines)} lines for {len(rows)} rows")
        details.append(f"{name}: {len(rows)} rows, all ordering_ok")
    return "; ".join(details)


@_criterion(11, "sweep determinism")
def check_sweep_determinism(seed):
    """Sweep output is byte-identical across four consecutive runs."""
    cfg_dict = _figure_sweep_config("fig2a")
    cfg = SweepConfig.from_dict(cfg_dict)
    outputs = [render_csv(run_sweep(cfg)).encode("utf-8") for _ in range(4)]
    if any(blob != outputs[0] for blob in outputs[1:]):
        return Failure("CSV bytes differ across consecutive runs", cfg_dict)
    return f"byte-identical CSV ({len(outputs[0])} bytes) across four consecutive runs"


ALL_CHECKS = (
    check_three_way_agreement,
    check_linear_closed_form,
    check_variance_closed_forms,
    check_bound_chain,
    check_high_temperature_vanishing,
    check_standard_quantum_limit,
    check_oat_temperature_peak,
    check_semiclassical_seminorm,
    check_lmg_generator_routes,
    check_figure3_sweeps,
    check_sweep_determinism,
)


def run_all(seed: int = DEFAULT_SEED, checks=ALL_CHECKS) -> list[CheckResult]:
    return [check(seed=seed) for check in checks]


def run_verify(seed: int = DEFAULT_SEED, out_path=None, checks=ALL_CHECKS) -> int:
    """Run every check, print the table, write the JSON summary; 0 iff all pass."""
    results = run_all(seed=seed, checks=checks)
    width = max(len(r.name) for r in results)
    print(f"{'criterion':<10}{'name':<{width + 2}}status  detail")
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        print(f"{r.criterion:<10}{r.name:<{width + 2}}{status:<8}{r.detail}")
    failures = [r for r in results if not r.passed]
    for r in failures:
        if r.repro is not None:
            print(f"\nreproduce criterion {r.criterion} with this sweep config:")
            print(json.dumps(r.repro, indent=2))
    summary = {
        "seed": seed,
        "passed": not failures,
        "checks": [asdict(r) for r in results],
    }
    if out_path is None:
        out_path = Path(tempfile.gettempdir()) / "thermalqfi_verify.json"
    Path(out_path).write_text(json.dumps(summary, indent=2) + "\n", encoding="utf-8")
    print(f"\n{'all checks passed' if not failures else f'{len(failures)} check(s) FAILED'}; summary written to {out_path}")
    return 0 if not failures else 1
