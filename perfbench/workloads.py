"""The three benchmark workloads, driven through orbitsquares' public functions.

Each workload is built from a seed and runs in *passes*: one pass is the
workload's whole input set, run once. A pass is a list of *units* (one
callable each); the benchmark times the units and nothing else, then turns
their results into a canonical ``output`` that is compared across passes,
against the recorded reference and, where the program's result can be
recomputed independently, against that recomputation.

Import this module only after ``orbitsquares`` is importable (the worker
puts ``src`` on ``sys.path`` and times the package import first).
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
from dataclasses import dataclass, field as dc_field

# Public functions are looked up on their module at call time, so that the
# traced run's wrappers (installed after this import) see every call.
import orbitsquares
from orbitsquares import NOT_TWO_ORDINARY, FieldSpec, Poly, cli, scan

DEFAULT_SEED = 0


def sha256_json(obj) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


@dataclass
class PassResult:
    items: int
    failed: int
    output: dict  # canonical, JSON-serializable; equal on every pass of one seed
    problems: list[str] = dc_field(default_factory=list)
    seconds: float = 0.0  # wall time of the units only
    norm_seconds: float = 0.0  # the same, normalized to the nominal machine speed (speed.py)
    unit_norm_seconds: list[float] = dc_field(default_factory=list)


def _guarded(unit):
    try:
        return unit()
    except Exception as exc:  # a failing item is counted, not fatal
        return exc


class Workload:
    name = ""
    field = ""  # field string, as the CLI reads it
    seed_independent_output = False  # output may be checked against the reference at any seed

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir

    def units(self) -> list:
        raise NotImplementedError

    def finish(self, results: list, part: slice) -> PassResult:
        """Check the results of ``self.units()[part]`` and build the pass's output."""
        raise NotImplementedError

    def run_pass(self, clock, part: slice = slice(None), wrap_unit=None,
                 after_unit=None) -> PassResult:
        """Run ``self.units()[part]`` (all by default), timed on a started SpeedClock.

        ``wrap_unit(unit)`` replaces each unit (the traced pass opens a root
        span per unit with it); ``after_unit(i)`` is called, outside the timed
        part, once unit i has returned (the counting pass snapshots counters)."""
        units = self.units()[part]
        if wrap_unit is not None:
            units = [wrap_unit(u) for u in units]
        results, walls, norms = [], [], []
        for i, unit in enumerate(units):
            res, wall, norm = clock.time(lambda: _guarded(unit))
            results.append(res)
            walls.append(wall)
            norms.append(norm)
            if after_unit is not None:
                after_unit(i)
        out = self.finish(results, part)
        out.seconds, out.norm_seconds, out.unit_norm_seconds = sum(walls), sum(norms), norms
        return out

    def independent_check(self, output: dict) -> list[str]:
        """Problems found by recomputing the output without the program."""
        return []


class OracleF5Cubic(Workload):
    """Criterion 2's cell: classifier and oracle agree on every monic cubic over F_5."""

    name = "oracle-f5-cubic"
    field = "5"
    seed_independent_output = True  # verdicts are properties of f; the seed only steers splitting
    depth = 4
    budget = 4096

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        F = FieldSpec.parse(self.field)
        q = F.q
        self.polys = [
            Poly(F, [i % q, (i // q) % q, (i // (q * q)) % q, F.one_idx]) for i in range(q**3)
        ]

    def units(self):
        seed, depth, budget = self.seed, self.depth, self.budget

        def unit(f):
            return lambda: (
                orbitsquares.classify_2_ordinary(f, seed),
                orbitsquares.oracle_2_ordinary(f, depth, seed=seed, budget=budget),
            )

        return [unit(f) for f in self.polys]

    def finish(self, results, part):
        records, failed, problems = [], 0, []
        for f, res in zip(self.polys[part], results):
            if isinstance(res, Exception):
                failed += 1
                problems.append(f"{f}: {type(res).__name__}: {res}")
                records.append({"f": str(f), "error": type(res).__name__})
                continue
            rep, orc = res
            if (rep.verdict == NOT_TWO_ORDINARY) != orc.certified_not:
                failed += 1
                problems.append(f"{f}: classifier {rep.verdict} vs oracle {orc}")
            records.append({"f": str(f), "classify": rep.to_json(), "oracle": str(orc)})
        output = {"items": len(records), "verdicts_sha256": sha256_json(records)}
        return PassResult(len(records), failed, output, problems)


class RatioQ169(Workload):
    """Criterion 9's largest field: ratio_scan over a seeded sample of quadratics."""

    name = "ratio-q169"
    field = "13^2"
    sample = 150

    def units(self):
        cfg = scan.ScanConfig(field=self.field, degree=2, sample=self.sample, seed=self.seed)
        return [lambda: scan.ratio_scan(cfg)]

    def finish(self, results, part):
        (res,) = results
        if isinstance(res, Exception):
            return PassResult(self.sample, self.sample, {"error": type(res).__name__},
                              [f"ratio_scan: {type(res).__name__}: {res}"])
        problems = []
        if res.get("polys") != self.sample:
            problems.append(f"ratio_scan covered {res.get('polys')} of {self.sample} polynomials")
        return PassResult(self.sample, self.sample if problems else 0, res, problems)

    def independent_check(self, output):
        F = FieldSpec.parse(self.field)
        polys = scan.sample_polys(F, 2, self.sample, self.seed)
        expected = reference_ratio_summary(F.p, F.k, F.modulus, [p.coeffs for p in polys])
        if output != expected:
            return [f"ratio summary {output} differs from the independent recomputation {expected}"]
        return []


class BoundsCliQ31(Workload):
    """The CLI scan with classification, Weil, orbit-bound and run-bound checks at q=31."""

    name = "bounds-cli-q31"
    field = "31"
    sample = 300
    checks = "classification,weil,orbit-bounds,run-bounds"

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.out = os.path.join(workdir, "scan-out")

    def argv(self):
        return ["scan", "--field", self.field, "--degree", "2", "--checks", self.checks,
                "--sample", str(self.sample), "--seed", str(self.seed), "--out", self.out]

    def units(self):
        shutil.rmtree(self.out, ignore_errors=True)
        return [lambda: cli.main(self.argv())]

    def finish(self, results, part):
        (rc,) = results
        problems = []
        if isinstance(rc, Exception):
            problems.append(f"cli.main raised {type(rc).__name__}: {rc}")
        elif rc != 0:
            problems.append(f"cli.main exited with {rc}")
        try:
            with open(os.path.join(self.out, "rows.jsonl"), "rb") as fh:
                data = fh.read()
            with open(os.path.join(self.out, "summary.json")) as fh:
                summary = json.load(fh)
        except OSError as exc:
            problems.append(f"missing scan output: {exc}")
            return PassResult(1, 1, {"error": "missing output"}, problems)
        lines = data.splitlines()
        failed = 0
        for line in lines:
            row = json.loads(line)
            if row.get("pass") is False or row.get("envelope_pass") is False or (
                row.get("applies") and row.get("passed") is False
            ):
                failed += 1
        for key in ("weil_failures", "orbit_bound_failures", "run_bound_failures"):
            if summary.get(key) != 0:
                problems.append(f"summary {key} = {summary.get(key)}")
        if failed:
            problems.append(f"{failed} rows with pass=false")
        if problems:
            failed = len(lines) or 1
        # The config echo is left out: it lists settings, not results.
        summary.pop("config", None)
        output = {
            "rows": len(lines),
            "rows_sha256": hashlib.sha256(data).hexdigest(),
            "summary": summary,
        }
        return PassResult(max(len(lines), 1), failed, output, problems)


WORKLOADS = {w.name: w for w in (OracleF5Cubic, RatioQ169, BoundsCliQ31)}


# --- independent recomputation of ratio_scan --------------------------------

def reference_ratio_summary(p: int, k: int, modulus, polys) -> dict:
    """ratio_scan's summary, recomputed from a successor table per polynomial.

    Field arithmetic is done here on coordinate tuples (same index encoding
    and modulus as the program), the character by Euler's criterion, and each
    orbit is read off the table, so no orbitsquares kernel is involved."""
    q = p**k
    mod = list(modulus)

    def coords(i):
        return [(i // p ** (k - 1 - j)) % p for j in range(k)]

    def index(c):
        return sum(cj * p ** (k - 1 - j) for j, cj in enumerate(c))

    def mul(a, b):
        prod = [0] * (2 * k - 1)
        for i, ai in enumerate(a):
            for j, bj in enumerate(b):
                prod[i + j] = (prod[i + j] + ai * bj) % p
        for top in range(2 * k - 2, k - 1, -1):  # reduce by the monic modulus
            c = prod[top]
            if c:
                for j in range(k + 1):
                    prod[top - k + j] = (prod[top - k + j] - c * mod[j]) % p
        return prod[:k]

    def power(a, e):
        out = [1] + [0] * (k - 1)
        while e:
            if e & 1:
                out = mul(out, a)
            a = mul(a, a)
            e >>= 1
        return out

    one = [1] + [0] * (k - 1)
    chi = [0] + [1 if power(coords(x), (q - 1) // 2) == one else -1 for x in range(1, q)]
    scale = q ** (5 / 6)
    best_orbit = best_run = 0.0
    for coeffs in polys:
        cs = [coords(c) for c in coeffs]
        succ = []
        for x in range(q):
            xc = coords(x)
            acc = [0] * k
            for c in reversed(cs):
                acc = [(u + v) % p for u, v in zip(mul(acc, xc), c)]
            succ.append(index(acc))
        for a in range(q):
            seen, walk = {}, []
            x = a
            while x not in seen:
                seen[x] = len(walk)
                walk.append(x)
                x = succ[x]
            tail = seen[x]
            period = len(walk) - tail
            signs = [chi[v] for v in walk]
            cycle = signs[tail:]
            m = next(t for t in range(1, period + 1)
                     if period % t == 0 and all(cycle[(j + t) % period] == cycle[j]
                                                for j in range(period)))

            def sign_at(ell):
                return signs[ell] if ell < len(signs) else cycle[(ell - tail) % period]

            s = tail
            while s > 0 and signs[s - 1] == sign_at(s - 1 + m):
                s -= 1
            if s == 0:
                best_orbit = max(best_orbit, len(walk) / (m * scale))
            for target in (1, -1):
                if all(c == target for c in cycle):
                    r = 0
                    while r < tail and signs[tail - 1 - r] == target:
                        r += 1
                    length = period + r
                else:
                    length = cur = 0
                    for ell in range(tail + 2 * period):
                        cur = cur + 1 if sign_at(ell) == target else 0
                        length = max(length, cur)
                best_run = max(best_run, length / scale)
    return {
        "q": q,
        "d": 2,
        "polys": len(polys),
        "max_orbit_ratio": f"{best_orbit:.6f}",
        "max_run_ratio": f"{best_run:.6f}",
    }
