"""Batch scan drivers: enumerate or sample polynomial spaces, run the
selected checks, and emit deterministic JSON-lines and CSV reports.

All kernels are pure; worker processes only parallelize over independent
work items and results are sorted by a canonical key before writing, so
output bytes are independent of the worker count.
"""

from __future__ import annotations

import csv
import io
import json
import random
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass

from .bounds import (
    choose_L,
    envelope_holds,
    orbit_bound_check,
    run_bound_check,
    weil_check,
)
from .classify import TWO_ORDINARY, classify_2_ordinary
from .dynamics import orbit_table
from .field import FieldElement, FieldSpec
from .fpoly import Poly

BOUNDS_CSV_COLUMNS = ["q", "d", "f", "a", "m", "orbit", "L", "maxB", "lhs", "rhs", "pass"]


@dataclass(frozen=True)
class ScanConfig:
    field: str
    degree: int
    sample: int | None = None  # None: every monic polynomial
    seed: int = 0
    workers: int = 1

    def __post_init__(self):
        if self.degree < 1:
            raise ValueError(f"degree must be at least 1, got {self.degree}")
        if self.workers < 1:
            raise ValueError(f"workers must be at least 1, got {self.workers}")
        if self.sample is not None and self.sample < 1:
            raise ValueError(f"sample size must be at least 1, got {self.sample}")

    def to_json(self):
        return asdict(self)


def enumerate_polys(field: FieldSpec, degree: int, space: str = "monic"):
    """Dense coefficient enumeration in canonical (index-lexicographic) order."""
    q = field.q

    def rec(prefix, remaining):
        if remaining == 0:
            yield prefix
            return
        for c in range(q):
            yield from rec(prefix + [c], remaining - 1)

    if space == "monic":
        for lower in rec([], degree):
            yield Poly(field, lower + [field.one_idx])
    elif space == "all":
        for lead in range(1, q):
            for lower in rec([], degree):
                yield Poly(field, lower + [lead])
    else:
        raise ValueError(f"unknown coefficient space {space!r}")


def sample_polys(field: FieldSpec, degree: int, count: int, seed: int) -> list[Poly]:
    """Seeded monic sample, without replacement when the space is small enough."""
    q = field.q
    total = q**degree
    rng = random.Random(seed)
    if total <= 4 * count:
        picks = sorted(rng.sample(range(total), min(count, total)))
    else:
        seen = set()
        while len(seen) < count:
            seen.add(rng.randrange(total))
        picks = sorted(seen)
    out = []
    for idx in picks:
        coeffs = []
        rem = idx
        for _ in range(degree):
            coeffs.append(rem % q)
            rem //= q
        out.append(Poly(field, coeffs + [field.one_idx]))
    return out


# --- per-item kernels (top level so worker processes can import them) ------
# Items are polynomials; a worker unpickles each one's field from make_field's cache.

def _classify_item(f: Poly):
    row = {"q": f.field.q, "d": f.degree, "f": str(f)}
    row.update(classify_2_ordinary(f).to_json())
    return row


def _weil_item(f: Poly):
    return {"q": f.field.q, "d": f.degree, "f": str(f), **weil_check(f).to_json()}


def _orbit_bounds_item(args):
    """Rows for every sampled start of one f, at each L; f is classified once."""
    f, starts, Ls = args
    F = f.field
    two_ordinary = classify_2_ordinary(f).verdict == TWO_ORDINARY
    rows = []
    for a_idx in starts:
        a = FieldElement(F, a_idx)
        for L in Ls:
            ob = orbit_bound_check(f, a, L)
            env_pass = None
            if two_ordinary:
                env_pass = all(envelope_holds(b, F.q, f.degree, L) for b in ob.B_values)
            rows.append(
                {
                    "q": F.q,
                    "d": f.degree,
                    "f": str(f),
                    "a": a_idx,
                    "m": ob.m,
                    "orbit": ob.orbit_size,
                    "L": L,
                    "maxB": str(max(ob.B_values)),
                    "lhs": ob.lhs,
                    "rhs": str(ob.rhs_sum),
                    "pass": bool(ob.passed and ob.passed_uniform),
                    "two_ordinary": two_ordinary,
                    "envelope_pass": env_pass,
                }
            )
    return rows


def _run_bounds_item(f: Poly):
    """Run-bound rows for every start of f, or none when f is in forms (a)-(e)."""
    if classify_2_ordinary(f).verdict != TWO_ORDINARY:
        return []
    return [run_bound_check(f, a).to_json() for a in f.field.elements()]


def _ratio_item(f: Poly):
    F = f.field
    scale = F.q ** (5 / 6)
    t = orbit_table(f)
    best_orbit = max(
        (t.tail[x] + t.cycle[x]) / (t.sign_period[x] * scale)
        for x in range(F.q)
        if t.sign_tail[x] == 0
    )
    best_run = max(r.length for target in (1, -1) for r in t.run[target]) / scale
    return {"q": F.q, "f": str(f), "orbit_ratio": best_orbit, "run_ratio": best_run}


def _pmap(fn, items, workers: int):
    items = list(items)
    workers = min(workers, len(items))  # a pool starts every worker at once
    if workers <= 1:
        return [fn(it) for it in items]
    with ProcessPoolExecutor(max_workers=workers) as ex:
        return list(ex.map(fn, items, chunksize=max(1, len(items) // (workers * 4))))


# --- drivers ---------------------------------------------------------------

def _monic_polys(cfg: ScanConfig) -> list[Poly]:
    """Every monic polynomial of cfg's degree, or a seeded sample of cfg.sample."""
    F = FieldSpec.parse(cfg.field)
    if cfg.sample is None:
        return list(enumerate_polys(F, cfg.degree, "monic"))
    return sample_polys(F, cfg.degree, cfg.sample, cfg.seed)


def classification_scan(cfg: ScanConfig):
    rows = _pmap(_classify_item, _monic_polys(cfg), cfg.workers)
    rows.sort(key=lambda r: (r["q"], r["d"], r["f"]))
    counts: dict[str, int] = {}
    for r in rows:
        counts[r["verdict"]] = counts.get(r["verdict"], 0) + 1
        for fm in r["forms"]:
            key = "form_" + fm["form"]
            counts[key] = counts.get(key, 0) + 1
    return rows, counts


def weil_scan(cfg: ScanConfig):
    F = FieldSpec.parse(cfg.field)
    rows = _pmap(_weil_item, enumerate_polys(F, cfg.degree, "monic"), cfg.workers)
    rows.sort(key=lambda r: (r["q"], r["d"], r["f"]))
    failures = [r for r in rows if r["applies"] and not r["passed"]]
    return rows, failures


def bounds_scan(cfg: ScanConfig):
    """Sampled orbit-bound + envelope rows in the fixed CSV schema."""
    F = FieldSpec.parse(cfg.field)
    pairs = []  # every (f, a) with f monic and a's signs purely periodic
    for f in enumerate_polys(F, cfg.degree, "monic"):
        sign_tail = orbit_table(f).sign_tail
        pairs += [(f, a) for a in range(F.q) if sign_tail[a] == 0]
    if cfg.sample is not None and cfg.sample < len(pairs):
        rng = random.Random(cfg.seed)
        pairs = [pairs[i] for i in sorted(rng.sample(range(len(pairs)), cfg.sample))]
    starts: dict[Poly, list[int]] = {}
    for f, a in pairs:
        starts.setdefault(f, []).append(a)
    Ls = tuple(range(1, max(choose_L(F.q, cfg.degree), 3) + 1))
    items = [(f, tuple(idxs), Ls) for f, idxs in starts.items()]
    nested = _pmap(_orbit_bounds_item, items, cfg.workers)
    rows = [r for chunk in nested for r in chunk]
    rows.sort(key=lambda r: (r["q"], r["d"], r["f"], r["a"], r["L"]))
    return rows


def run_bounds_scan(cfg: ScanConfig):
    """Run-structure inequality over every monic f outside forms (a)-(e)."""
    F = FieldSpec.parse(cfg.field)
    polys = enumerate_polys(F, cfg.degree, "monic")
    rows = [r for chunk in _pmap(_run_bounds_item, polys, cfg.workers) for r in chunk]
    rows.sort(key=lambda r: (r["q"], r["f"], r["a"]))
    return rows


def ratio_scan(cfg: ScanConfig):
    """Observational max |O|/(m q^(5/6)) and R/q^(5/6) over a seeded sample."""
    F = FieldSpec.parse(cfg.field)
    rows = _pmap(_ratio_item, _monic_polys(cfg), cfg.workers)
    max_orbit = max((r["orbit_ratio"] for r in rows), default=0.0)
    max_run = max((r["run_ratio"] for r in rows), default=0.0)
    return {
        "q": F.q,
        "d": cfg.degree,
        "polys": len(rows),
        "max_orbit_ratio": f"{max_orbit:.6f}",
        "max_run_ratio": f"{max_run:.6f}",
    }


# --- emission --------------------------------------------------------------

def write_jsonl(rows, path):
    with open(path, "w") as fh:
        for r in rows:
            fh.write(json.dumps(r, sort_keys=True) + "\n")


def rows_to_csv_text(rows, columns) -> str:
    buf = io.StringIO()
    w = csv.DictWriter(buf, fieldnames=columns, extrasaction="ignore", lineterminator="\n")
    w.writeheader()
    for r in rows:
        w.writerow(r)
    return buf.getvalue()


def write_csv(rows, columns, path):
    with open(path, "w") as fh:
        fh.write(rows_to_csv_text(rows, columns))
