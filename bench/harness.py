"""Set-up, the bracketed measurement loop and the end-to-end metrics.

Every timed unit runs between two reference-kernel calls; its wall time
divided by the mean of those two reference durations is its time in "ref"
units. A pass runs every unit of the workload once; its ref time is the
sum over its units.
"""

from __future__ import annotations

import importlib
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass

from reference import timed

SETUP_REPEATS = 3
# tail percentiles tried from the highest down, in per mille
TAIL_PERMILLE = (999, 990, 950, 900, 750)
MIN_BEYOND = 10


@dataclass(frozen=True)
class Sample:
    """One timed unit: wall seconds and the reference durations around it."""

    unit: str
    wall: float
    ref_before: float
    ref_after: float
    ops: int
    failed: int

    @property
    def ref(self) -> float:
        return self.wall / (0.5 * (self.ref_before + self.ref_after))


def run_unit(unit) -> tuple[int, object]:
    """(failed ops, output); an exception fails every op of the unit."""
    try:
        return unit.run()
    except Exception:
        traceback.print_exc(file=sys.stderr)
        return unit.ops, None


def fresh_import() -> None:
    """Drop every thermalqfi module and import the package again."""
    for name in [n for n in sys.modules if n == "thermalqfi" or n.startswith("thermalqfi.")]:
        del sys.modules[name]
    importlib.import_module("thermalqfi")


def set_up(workload, seed: int, kernel):
    """Import, build the inputs and warm up (one untimed pass), SETUP_REPEATS times.

    Each set-up is bracketed by reference-kernel calls like a timed unit.
    Returns the units of the last set-up and one Sample per set-up.
    """
    samples = []
    units = None
    ref_prev = timed(kernel)
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        fresh_import()
        units = workload.build(seed)
        for unit in units:
            run_unit(unit)
        wall = time.perf_counter() - t0
        ref_next = timed(kernel)
        samples.append(Sample("setup", wall, ref_prev, ref_next, 0, 0))
        ref_prev = ref_next
    return units, samples


def measure(units, kernel, seconds: float, tracer=None) -> list[list[Sample]]:
    """Run whole passes until ``seconds`` have elapsed (at least one pass)."""
    passes = []
    deadline = time.perf_counter() + seconds
    ref_prev = timed(kernel)
    while not passes or time.perf_counter() < deadline:
        samples = []
        for unit in units:
            t0 = time.perf_counter()
            if tracer is None:
                failed, _ = run_unit(unit)
            else:
                failed, _ = tracer.unit(unit.name, lambda: run_unit(unit))
            wall = time.perf_counter() - t0
            ref_next = timed(kernel)
            samples.append(Sample(unit.name, wall, ref_prev, ref_next, unit.ops, failed))
            ref_prev = ref_next
        passes.append(samples)
        if tracer is not None:
            tracer.end_pass()
    return passes


def tail_percentile(values) -> tuple[float, float] | None:
    """(percentile, value) for the highest percentile with at least
    MIN_BEYOND samples beyond it, by nearest rank; None when there are
    too few samples for any of TAIL_PERMILLE."""
    ordered = sorted(values)
    n = len(ordered)
    for permille in TAIL_PERMILLE:
        rank = -(-permille * n // 1000)
        if rank >= 1 and n - rank >= MIN_BEYOND:
            return permille / 10, ordered[rank - 1]
    return None


def pass_refs(passes) -> list[float]:
    return [sum(s.ref for s in samples) for samples in passes]


def counts(passes) -> tuple[int, int]:
    """(attempted ops, failed ops)."""
    samples = [s for p in passes for s in p]
    return sum(s.ops for s in samples), sum(s.failed for s in samples)


def end_to_end(passes, setups, kernel) -> dict[str, tuple[float, str]]:
    """The end-to-end metrics of an untraced run, by name: (value, unit).

    ``setup_s`` is the median set-up in ref units times the kernel's
    nominal duration: seconds at the reference machine's speed, so that
    the host's drift between runs cancels as it does for the pass times.
    """
    refs = pass_refs(passes)
    ops, _ = counts(passes)
    return {
        "ops_per_kref": (1000.0 * ops / sum(refs), "op/kref"),
        "pass_ref_p50": (statistics.median(refs), "ref"),
        "setup_s": (statistics.median(s.ref for s in setups) * kernel.NOMINAL_S, "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

