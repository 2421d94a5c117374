"""One benchmark run of one workload in a fresh process; started by run.py.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1 --out DIR
    python3 perfbench/worker.py --workload NAME --setup-probe

The last line of stdout is one JSON object.  Untraced, the run times whole
passes of the workload for about --seconds.  Traced, it times every fifth
unit untraced (the baseline of trace.overhead_ratio), runs one pass with
spans, a counting pass (and a recount of its first tenth that must repeat the
counts exactly), then the field microbench.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import time

import speed

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
REFERENCE = os.path.join(HERE, "reference.json")


def import_package() -> float:
    """Import orbitsquares from this checkout's source tree; returns the seconds taken."""
    sys.path.insert(0, os.path.join(ROOT, "src"))
    t0 = time.perf_counter()
    import orbitsquares  # noqa: F401
    import orbitsquares.cli  # noqa: F401  (the package does not import its CLI or scan drivers)
    import orbitsquares.scan  # noqa: F401
    return time.perf_counter() - t0


def kernel_seconds():
    return statistics.median(speed.sample()[2] for _ in range(3))


def setup(name):
    """Import the package and build the workload's field.

    Returns (seconds, normalized seconds, workload class); the machine speed
    is the mean of two medians of three calibration samples, one on each side."""
    before = kernel_seconds()
    t_import = import_package()
    import orbitsquares
    import workloads

    cls = workloads.WORKLOADS[name]
    t0 = time.perf_counter()
    orbitsquares.FieldSpec.parse(cls.field)
    seconds = t_import + time.perf_counter() - t0
    kernel_s = (before + kernel_seconds()) / 2
    return seconds, seconds * speed.NOMINAL_KERNEL_S / kernel_s, cls


def load_reference():
    with open(REFERENCE) as fh:
        return json.load(fh)


def verify(wl, passes, reference):
    """Cross-pass, reference and independent checks; marks failing passes."""
    from workloads import DEFAULT_SEED

    problems = [pb for p in passes for pb in p.problems]
    first = passes[0].output
    bad = [p for p in passes[1:] if p.output != first]
    if bad:
        problems.append(f"{len(bad)} passes gave other output than the first")
    ref = reference.get(wl.name)
    if wl.seed == DEFAULT_SEED or wl.seed_independent_output:
        if ref is None:
            problems.append("no reference output recorded")
            bad = passes
        elif first != ref:
            problems.append(f"output {first} differs from the reference {ref}")
            bad = passes
    indep = wl.independent_check(first)
    if indep:
        problems += indep
        bad = passes
    for p in bad:
        p.failed = p.items
    return problems


def run_untraced(wl, clock, seconds):
    passes = []
    while not passes or sum(p.seconds for p in passes) * (1 + 1 / len(passes)) <= seconds:
        passes.append(wl.run_pass(clock))
    return passes


def run_traced(wl, clock, out_dir):
    import microbench
    from spans import EMIT_FUNCTIONS, FACTOR_DEGREE_BUCKETS, Counters, Tracer

    phases = {}
    t0 = time.perf_counter()
    # The overhead baseline times every fifth unit (the whole pass when it is one call).
    sample = slice(None, None, 5)
    untraced = wl.run_pass(clock, part=sample)
    phases["baseline"] = time.perf_counter() - t0

    tracer = Tracer()
    tracer.install()
    try:
        traced = wl.run_pass(clock, wrap_unit=lambda u: tracer.wrap("bench.unit", u))
    finally:
        tracer.undo()
    tracer.write(os.path.join(out_dir, f"spans-{wl.name}.tsv"))
    phases["spans"] = time.perf_counter() - t0 - sum(phases.values())

    counters = Counters()
    snapshots = []
    counters.install()
    try:
        counted = wl.run_pass(clock, after_unit=lambda i: snapshots.append(counters.snapshot()))
    finally:
        counters.undo()
    k = max(1, len(snapshots) // 10)
    recount = Counters()
    recount.install()
    try:
        wl.run_pass(clock, part=slice(k))
    finally:
        recount.undo()
    phases["counting"] = time.perf_counter() - t0 - sum(phases.values())
    problems = []
    if recount.counts != snapshots[k - 1]:
        problems.append(f"counts of the first {k} units do not repeat: "
                        f"{snapshots[k - 1]} then {recount.counts}")

    per_name, factor_in_classify = tracer.summary()

    def calls(label):
        return per_name.get(label, (0, 0))[0]

    def self_s(label):
        return per_name.get(label, (0, 0))[1] / 1e9

    def ratio(num, den):
        return num / den if den else 0.0

    def unique_ratio(label):
        return ratio(len(tracer.unique_args[label]), calls(label))

    def layer_self_s(prefix, exclude=()):
        return sum(v[1] for k, v in per_name.items()
                   if k.startswith(prefix) and k not in exclude) / 1e9

    m = microbench.field_metrics()
    phases["microbench"] = time.perf_counter() - t0 - sum(phases.values())
    c = counters.counts
    m["field.add_calls"] = c["FieldSpec.add_i"]
    m["field.mul_calls"] = c["FieldSpec.mul_i"]
    m["field.chi_calls"] = c["FieldSpec.chi_i"]
    m["fpoly.factor.calls"] = calls("fpoly.factor")
    m["fpoly.factor.self_s"] = self_s("fpoly.factor")
    for _, label in FACTOR_DEGREE_BUCKETS:
        m[f"fpoly.factor.calls.{label}"] = tracer.factor_degrees[label]
    for fn in ("pow_mod", "compose"):
        m[f"fpoly.{fn}.calls"] = calls(f"fpoly.{fn}")
        m[f"fpoly.{fn}.self_s"] = self_s(f"fpoly.{fn}")
    m["fpoly.eval_i.calls"] = c["Poly.eval_i"]
    m["dynamics.forward_orbit.calls"] = calls("dynamics.forward_orbit")
    m["dynamics.forward_orbit.self_s"] = self_s("dynamics.forward_orbit")
    m["dynamics.orbit_steps"] = tracer.orbit_steps
    m["dynamics.walk_unique_ratio"] = ratio(len(tracer.walks), calls("dynamics.forward_orbit"))
    m["dynamics.sign_sequence.self_s"] = self_s("dynamics.sign_sequence")
    m["dynamics.longest_run.self_s"] = self_s("dynamics.longest_run")
    for fn in ("classify_2_ordinary", "oracle_2_ordinary"):
        m[f"classify.{fn}.calls"] = calls(f"classify.{fn}")
        m[f"classify.{fn}.self_s"] = self_s(f"classify.{fn}")
    n_classify = calls("classify.classify_2_ordinary")
    m["classify.classify_unique_ratio"] = ratio(len(tracer.classified), n_classify)
    m["classify.factor_per_classify"] = ratio(factor_in_classify, n_classify)
    m["classify.oracle.certified"] = tracer.oracle_certified
    m["classify.oracle.consistent"] = tracer.oracle_consistent
    for fn in ("compute_B", "t_set_size"):
        m[f"bounds.{fn}.calls"] = calls(f"bounds.{fn}")
        m[f"bounds.{fn}.self_s"] = self_s(f"bounds.{fn}")
        m[f"bounds.{fn}.unique_ratio"] = unique_ratio(f"bounds.{fn}")
    for fn in ("weil_check", "orbit_bound_check", "envelope_check", "run_bound_check"):
        m[f"bounds.{fn}.self_s"] = self_s(f"bounds.{fn}")
    m["scan.driver_self_s"] = layer_self_s("scan.", exclude=EMIT_FUNCTIONS)
    m["scan.emit_s"] = sum(self_s(label) for label in EMIT_FUNCTIONS)
    m["scan.emit_bytes"] = tracer.emit_bytes
    m["cli.self_s"] = layer_self_s("cli.")
    m["trace.overhead_ratio"] = sum(traced.unit_norm_seconds[sample]) / untraced.norm_seconds
    problems += untraced.problems
    return [traced, counted], m, problems, phases


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", default=os.path.join(ROOT, ".bench_build", "perfbench"))
    ap.add_argument("--setup-probe", action="store_true",
                    help="only time the package import and field construction")
    args = ap.parse_args(argv)

    setup_raw_s, setup_s, cls = setup(args.workload)
    if args.setup_probe:
        print(json.dumps({"setup_s": setup_s, "setup_raw_s": setup_raw_s}))
        return 0

    work = os.path.join(args.out, f"work-{args.workload}")
    os.makedirs(work, exist_ok=True)
    wl = cls(args.seed, work)
    reference = load_reference()
    clock = speed.SpeedClock()
    clock.start()
    try:
        if args.trace:
            passes, metrics, problems, phases = run_traced(wl, clock, args.out)
        else:
            passes, problems, phases = run_untraced(wl, clock, args.seconds), [], {}
            metrics = {
                "items_per_s": statistics.median(p.items / p.norm_seconds for p in passes),
                "setup_s": setup_s,
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            }
    finally:
        clock.stop()
    problems = verify(wl, passes, reference) + problems
    attempted = sum(p.items for p in passes)
    failed = sum(p.failed for p in passes)
    if problems and not failed:
        failed = attempted
    shutil.rmtree(work, ignore_errors=True)
    print(json.dumps({
        "workload": wl.name,
        "seed": wl.seed,
        "trace": args.trace,
        "attempted": attempted,
        "failed": failed,
        "problems": problems[:20],
        "pass_seconds": [p.seconds for p in passes],
        "pass_norm_seconds": [p.norm_seconds for p in passes],
        "raw_items_per_s": statistics.median(p.items / p.seconds for p in passes),
        "setup_raw_s": setup_raw_s,
        "traced_phase_seconds": phases,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
