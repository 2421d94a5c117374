"""Batch scans: enumerate or sample polynomial spaces, run the selected
checks in one pass per polynomial, and emit deterministic JSON-lines and
CSV reports.

All kernels are pure; worker processes only parallelize over independent
work items and results are sorted by a canonical key before writing, so
output bytes are independent of the worker count.

Every emitted row line is `json_lines`' output: the bytes of
`json.dumps(row, sort_keys=True)`, with each side dict that the run-bound
rows of one f share encoded once per f.
"""

from __future__ import annotations

import csv
import io
import json
import random
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass
from itertools import product
from json.encoder import encode_basestring_ascii

from .bounds import orbit_bound_rows, periodic_starts, run_bound_rows, weil_check
from .classify import TWO_ORDINARY, classify_2_ordinary
from .dynamics import orbit_table
from .field import FieldSpec
from .fpoly import Poly

BOUNDS_CSV_COLUMNS = ["q", "d", "f", "a", "m", "orbit", "L", "maxB", "lhs", "rhs", "pass"]
# the most monic f a scan enumerates or --sample draws; a larger cell or
# sample is refused before any work item is built (it would not fit in memory)
MAX_ENUMERATED_POLYS = 10**6


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
    leads = {"monic": [field.one_idx], "all": range(1, field.q)}.get(space)
    if leads is None:
        raise ValueError(f"unknown coefficient space {space!r}")
    for lead in leads:
        for lower in product(range(field.q), repeat=degree):
            yield Poly(field, [*lower, lead])


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


# --- per-check row kernels (top level so worker processes can import them) --
# Each maps f and its classification report (None when no selected check needs
# one) to the check's rows for f; all but classification read f's orbit table.

def _classification_rows(f: Poly, report):
    return [{"q": f.field.q, "d": f.degree, "f": str(f), **report.to_json()}]


def _weil_rows(f: Poly, report):
    return [{"q": f.field.q, "d": f.degree, "f": str(f), **weil_check(f).to_json()}]


def _periodic_start_count(f: Poly, report):
    """orbit-bounds' first phase: how many starts the draw can pick from f."""
    return [(f, len(periodic_starts(f)), report.verdict == TWO_ORDINARY)]


def _ratio_rows(f: Poly, report):
    F = f.field
    scale = F.q ** (5 / 6)
    t = orbit_table(f)
    best_orbit = max(
        (t.tail[x] + t.cycle[x]) / (t.sign_period[x] * scale)
        for x in range(F.q)
        if t.sign_tail[x] == 0
    )
    best_run = max(r.length for target in (1, -1) for r in t.run[target]) / scale
    return [{"q": F.q, "f": str(f), "orbit_ratio": best_orbit, "run_ratio": best_run}]


_ROWS = {
    "classification": _classification_rows,
    "weil": _weil_rows,
    "orbit-bounds": _periodic_start_count,
    "run-bounds": run_bound_rows,
    "ratios": _ratio_rows,
}
# scan's checks, in the order they run whatever order they are asked for in
CHECKS = tuple(_ROWS)
# --sample draws the polynomials these checks see; orbit-bounds draws its
# (f, a) pairs from every monic f instead, and weil and run-bounds see every f
SAMPLED_POLYS = frozenset({"classification", "ratios"})
_CLASSIFIED = frozenset({"classification", "orbit-bounds", "run-bounds"})


def _scan_item(item):
    """One f's rows for each of its checks; f is classified at most once."""
    f, checks = item
    report = classify_2_ordinary(f) if checks & _CLASSIFIED else None
    return {check: _ROWS[check](f, report) for check in checks}


def _orbit_bound_rows(item):
    """orbit-bounds' second phase: rows for the drawn purely periodic starts
    of one f (picks index them in ascending order)."""
    f, picks, two_ordinary = item
    return orbit_bound_rows(f, map(periodic_starts(f).__getitem__, picks), two_ordinary)


def _pmap(fn, items, workers: int):
    items = list(items)
    workers = min(workers, len(items))  # a pool starts every worker at once
    if workers <= 1:
        return [fn(it) for it in items]
    with ProcessPoolExecutor(max_workers=workers) as ex:
        return list(ex.map(fn, items, chunksize=max(1, len(items) // (workers * 4))))


# --- the driver --------------------------------------------------------------

def _drawn_starts(candidates, cfg: ScanConfig):
    """orbit-bounds' seeded draw of cfg.sample pairs from every purely
    periodic (f, a), in enumeration order, as one item per drawn f."""
    total = sum(n for _, n, _ in candidates)
    drawn = range(total)
    if cfg.sample is not None and cfg.sample < total:
        drawn = set(random.Random(cfg.seed).sample(range(total), cfg.sample))
    items, first = [], 0
    for f, n, two_ordinary in candidates:
        picks = [j - first for j in range(first, first + n) if j in drawn]
        if picks:
            items.append((f, picks, two_ordinary))
        first += n
    return items


def run_checks(cfg: ScanConfig, checks) -> dict[str, list]:
    """Each selected check's rows, in CHECKS order, from one item per monic f
    (per sampled f when every check is in SAMPLED_POLYS), which classifies f
    at most once; orbit-bounds then checks its drawn starts per f.  A cell
    that enumerates, or a sample that draws, more than MAX_ENUMERATED_POLYS
    polynomials is refused."""
    checks = frozenset(checks)
    unknown = sorted(checks - set(CHECKS))
    if unknown:
        raise ValueError(
            f"unknown check {', '.join(map(repr, unknown))}; known: {', '.join(CHECKS)}"
        )
    cap = MAX_ENUMERATED_POLYS
    if cfg.sample is not None and cfg.sample > cap:
        raise ValueError(f"--sample {cfg.sample:,} is more than the {cap:,} a scan draws")
    F = FieldSpec.parse(cfg.field)
    sampled_only = cfg.sample is not None and checks <= SAMPLED_POLYS
    # q >= 3 > 2, so capping the exponent at cap's bit length keeps the verdict
    if not sampled_only and F.q ** min(cfg.degree, cap.bit_length()) > cap:
        raise ValueError(
            f"{F.q}^{cfg.degree} monic polynomials are more than the {cap:,} a scan "
            f"enumerates; --sample draws only those of {', '.join(sorted(SAMPLED_POLYS))}"
        )
    if sampled_only:
        items = [(f, checks) for f in sample_polys(F, cfg.degree, cfg.sample, cfg.seed)]
    elif cfg.sample is None:
        items = [(f, checks) for f in enumerate_polys(F, cfg.degree)]
    else:
        sampled = set(sample_polys(F, cfg.degree, cfg.sample, cfg.seed))
        unsampled = checks - SAMPLED_POLYS
        items = [(f, checks if f in sampled else unsampled) for f in enumerate_polys(F, cfg.degree)]
    found = {check: [] for check in CHECKS if check in checks}
    for rows in _pmap(_scan_item, items, cfg.workers):
        for check, part in rows.items():
            found[check] += part
    if "orbit-bounds" in found:  # so far one (f, start count, 2-ordinary) per f
        nested = _pmap(_orbit_bound_rows, _drawn_starts(found["orbit-bounds"], cfg), cfg.workers)
        found["orbit-bounds"] = [r for part in nested for r in part]
    for rows in found.values():
        rows.sort(key=lambda r: (r["f"], r.get("a", 0), r.get("L", 0)))  # q, d are fixed
    return found


def failed(row) -> bool:
    """Whether a row records a failed proved inequality."""
    return (
        row.get("pass") is False or row.get("passed") is False or row.get("envelope_pass") is False
    )


def classification_counts(rows) -> dict[str, int]:
    """How many classification rows carry each verdict and each form."""
    return dict(Counter(
        key for r in rows for key in [r["verdict"]] + ["form_" + fm["form"] for fm in r["forms"]]
    ))


def ratio_summary(cfg: ScanConfig, rows) -> dict:
    """Observational max |O|/(m q^(5/6)) and R/q^(5/6) over ratios rows."""
    return {
        "q": FieldSpec.parse(cfg.field).q,
        "d": cfg.degree,
        "polys": len(rows),
        "max_orbit_ratio": f"{max(r['orbit_ratio'] for r in rows):.6f}",
        "max_run_ratio": f"{max(r['run_ratio'] for r in rows):.6f}",
    }


def ratio_scan(cfg: ScanConfig):
    """ratio_summary over a seeded sample of cfg.sample monic f (or every one)."""
    return ratio_summary(cfg, run_checks(cfg, {"ratios"})["ratios"])


# --- emission --------------------------------------------------------------

# json.dumps(row, sort_keys=True) of a run-bound row, keys in sorted order
_RUN_BOUND_LINE = '{"a": %d, "f": %s, "nonsquare": %s, "pass": %s, "q": %d, "square": %s}'
_RUN_BOUND_KEYS = frozenset({"a", "f", "nonsquare", "pass", "q", "square"})


def json_lines(rows):
    """json.dumps(r, sort_keys=True) for each row r, byte for byte.  A
    run-bound row is filled into one template, its side dicts' texts kept
    by id while f stays the same (run_checks' rows of one f are adjacent),
    so a side shared by the rows of one f is encoded once.  Each memo entry
    holds its dict, so no id is reused while the entry lives."""
    memo, memo_f = {}, None
    for r in rows:
        if (type(r) is not dict or r.keys() != _RUN_BOUND_KEYS
                or type(r["a"]) is not int or type(r["q"]) is not int
                or type(r["pass"]) is not bool or type(r["f"]) is not str
                or type(r["square"]) is not dict or type(r["nonsquare"]) is not dict):
            yield json.dumps(r, sort_keys=True)
            continue
        if r["f"] != memo_f:
            memo, memo_f = {}, r["f"]
        texts = []
        for side in (r["nonsquare"], r["square"]):
            hit = memo.get(id(side))
            if hit is None:
                hit = memo[id(side)] = (side, json.dumps(side, sort_keys=True))
            texts.append(hit[1])
        yield _RUN_BOUND_LINE % (
            r["a"], encode_basestring_ascii(r["f"]), texts[0],
            "true" if r["pass"] else "false", r["q"], texts[1],
        )


def write_jsonl(rows, path):
    with open(path, "w") as fh:
        for line in json_lines(rows):
            fh.write(line + "\n")


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
