"""orbitsquares benchmark: one run of one workload, or a table of all of them.

    python3 perfbench/run.py --workload oracle-f5-cubic --seed 3 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all

Run from the root of a checkout; the package is imported from its ``src``
tree.  A run starts fresh processes only: an unmeasured warm-up probe, a few
set-up probes (import + field construction; ``setup_s`` is their median, with
the workload process's own set-up) and one workload process (worker.py).
Each has ``PYTHONHASHSEED`` fixed, ``ORBITSQUARES_DEGREE_BUDGET`` unset and,
where ``setarch`` exists, address-space randomization off.  Bytecode goes to
a fresh cache directory of the run's own (``PYTHONPYCACHEPREFIX``): the
warm-up compiles this checkout's source into it and every later process
loads that, so no bytecode under ``src/`` is read or written.  The last
stdout line is the JSON result; the full record, with the environment, goes
to ``.bench_build/perfbench/results/``.  The exit code is 0 only when
every output checked out.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
OUT = os.path.join(ROOT, ".bench_build", "perfbench")
SETUP_PROBES = 9
PROBE_TIMEOUT_S = 30
# Traced runs took 32-120 s on a shared 2-core host; a whole run must end within 180 s.
WORKER_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def load_spec():
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
            spec = json.load(fh)
    except (OSError, ValueError) as exc:
        fail(f"cannot read BENCHMARK.json: {exc}")
    if not os.path.isfile(os.path.join(ROOT, "src", "orbitsquares", "__init__.py")):
        fail("no orbitsquares source tree under src/; run from the root of a checkout")
    return spec


def child_env(pycache):
    env = dict(os.environ)
    for name in ("ORBITSQUARES_DEGREE_BUDGET", "PYTHONPATH", "PYTHONDONTWRITEBYTECODE"):
        env.pop(name, None)
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPYCACHEPREFIX"] = pycache  # any __pycache__ under src/ is never read
    return env


def no_aslr_prefix():
    """``setarch <arch> -R`` where available: with a fixed address layout, the
    run-to-run spread of a fresh CPython process's speed drops from about 4%
    to about 1.5% here.  It changes only the child's own personality."""
    setarch = shutil.which("setarch")
    return [setarch, platform.machine(), "-R"] if setarch else []


def run_child(args, pycache, timeout):
    """Run worker.py with ``args``; returns its last stdout line as JSON."""
    proc = subprocess.run([*no_aslr_prefix(), sys.executable, WORKER, *args], cwd=ROOT,
                          env=child_env(pycache), capture_output=True, text=True, timeout=timeout)
    if proc.returncode != 0 or not proc.stdout.strip():
        raise RuntimeError(f"worker {' '.join(args)} exited with {proc.returncode}: "
                           f"{proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def environment():
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "loadavg": list(os.getloadavg()),
        "git_commit": commit,
        "aslr_disabled": bool(no_aslr_prefix()),
    }


def run_one(spec, workload, seed, seconds, trace):
    """One run; returns (result line dict, full record dict)."""
    env_before = environment()
    problems = []
    raw = None
    setups = []
    os.makedirs(OUT, exist_ok=True)
    pycache = tempfile.mkdtemp(prefix="pycache-", dir=OUT)
    worker_wall_s = None
    try:
        if not trace:
            run_child(["--workload", workload, "--setup-probe"], pycache, PROBE_TIMEOUT_S)  # warm-up
            setups = [run_child(["--workload", workload, "--setup-probe"], pycache,
                                PROBE_TIMEOUT_S)["setup_s"] for _ in range(SETUP_PROBES)]
        t0 = time.perf_counter()
        raw = run_child(["--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
                         "--trace", str(trace), "--out", OUT], pycache, WORKER_TIMEOUT_S)
        worker_wall_s = time.perf_counter() - t0
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        problems.append(str(exc))
    finally:
        shutil.rmtree(pycache, ignore_errors=True)
    section = "per_layer" if trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[section]}
    metrics = {}
    if raw is not None:
        problems += raw["problems"]
        values = dict(raw["metrics"])
        if not trace:
            setups.append(values["setup_s"])
            values["setup_s"] = statistics.median(setups)
        if set(values) != set(units):
            problems.append(f"metrics {sorted(set(values) ^ set(units))} do not match "
                            f"BENCHMARK.json {section}")
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in units.items() if name in values}
    attempted = raw["attempted"] if raw else 1
    failed = raw["failed"] if raw else 1
    if problems and not failed:
        failed = attempted
    result = {
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    record = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "environment": env_before,
        "loadavg_after": list(os.getloadavg()),
        "setup_probes_s": setups,
        "worker_wall_s": worker_wall_s,
        "worker": raw,
        "failed_ratio": failed / attempted,
        "problems": problems,
        "result": result,
    }
    results_dir = os.path.join(OUT, "results")
    os.makedirs(results_dir, exist_ok=True)
    with open(os.path.join(results_dir, f"{workload}-seed{seed}-trace{trace}.json"), "w") as fh:
        json.dump(record, fh, indent=2)
    return result, record


def describe(workload, result, record):
    m = result["metrics"]
    parts = [f"{name}={v['value']:.6g} {v['unit']}" for name, v in m.items()]
    parts.append(f"failed_ratio={record['failed_ratio']:.6g} "
                 f"({result['failed']}/{result['attempted']})")
    if record["worker"] and not record["trace"]:
        parts.append(f"(wall-clock items_per_s={record['worker']['raw_items_per_s']:.6g})")
    line = f"{workload} seed={record['seed']}: " + " ".join(parts)
    for pb in record["problems"][:5]:
        line += f"\n  problem: {pb}"
    return line


def main(argv=None):
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description="orbitsquares benchmark")
    ap.add_argument("--workload", required=True, choices=names + ["all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    chosen = names if args.workload == "all" else [args.workload]
    results = {}
    for workload in chosen:
        result, record = run_one(spec, workload, args.seed, args.seconds, args.trace)
        print(describe(workload, result, record), flush=True)
        results[workload] = result
    print("environment: " + json.dumps(record["environment"]), flush=True)
    if args.workload == "all":
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{k}": v for w, r in results.items() for k, v in r["metrics"].items()},
        }
    else:
        final = results[args.workload]
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
