"""Field-kernel microbench: ns per add_i/mul_i/chi_i and FieldSpec build time.

The operand stream is fixed (its own seed, independent of the run's seed), so
the numbers compare across runs and commits.  Each figure is the median of
several repeats.
"""

from __future__ import annotations

import random
import statistics
import time

from orbitsquares import FieldSpec

FIELDS = (("q31", 31, 1), ("q169", 13, 2), ("q16807", 7, 5))
OPERAND_SEED = 20240328
OPS = 20000
REPEATS = 5
BUILD_REPEATS = 3


def _loop_ns(fn, pairs) -> float:
    t0 = time.perf_counter_ns()
    for a, b in pairs:
        fn(a, b)
    return (time.perf_counter_ns() - t0) / len(pairs)


def _chi_loop_ns(fn, pairs) -> float:
    t0 = time.perf_counter_ns()
    for a, _ in pairs:
        fn(a)
    return (time.perf_counter_ns() - t0) / len(pairs)


def field_metrics() -> dict[str, float]:
    out = {}
    for label, p, k in FIELDS:
        builds = []
        for _ in range(BUILD_REPEATS):
            t0 = time.perf_counter()
            F = FieldSpec(p, k)
            builds.append(time.perf_counter() - t0)
        out[f"field.build_s.{label}"] = statistics.median(builds)
        rng = random.Random(OPERAND_SEED)
        pairs = [(rng.randrange(F.q), rng.randrange(F.q)) for _ in range(OPS)]
        for kernel, loop, fn in (("add", _loop_ns, F.add_i), ("mul", _loop_ns, F.mul_i),
                                 ("chi", _chi_loop_ns, F.chi_i)):
            out[f"field.{kernel}_ns.{label}"] = statistics.median(
                loop(fn, pairs) for _ in range(REPEATS))
    return out
