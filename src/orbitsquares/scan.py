"""Batch scans: enumerate or sample polynomial spaces, run the selected
checks in one pass per polynomial, and emit deterministic JSON-lines and
CSV reports.

One rule builds the work items: a drawn f, or every f with no --sample,
gets every check, and the rest of the cell those outside SAMPLED_POLYS.
Every bound and hypothesis gate is stated in `bounds`; scan draws and dispatches.

All kernels are pure; worker processes only parallelize over independent
work items and results are sorted by a canonical key before writing, so
output bytes (each row line is `json_lines`' output) are independent of the
worker count.
"""

from __future__ import annotations

import csv
import io
import json
import os
import random
from collections import Counter, namedtuple
from itertools import product
from json.encoder import encode_basestring_ascii

from .bounds import orbit_bound_rows, periodic_starts, run_bound_rows, weil_check
from .classify import classify_2_ordinary
from .dynamics import orbit_table
from .field import FieldSpec, _field_key, _field_name, power_within
from .fpoly import Poly

BOUNDS_CSV_COLUMNS = ["q", "d", "f", "a", "m", "orbit", "L", "maxB", "lhs", "rhs", "pass"]
# the most monic f a scan enumerates or --sample draws; a larger cell or
# sample is refused before any work item is built (it would not fit in memory)
MAX_ENUMERATED_POLYS = 10**6


class ScanConfig(namedtuple("ScanConfig", "field degree sample seed workers")):
    """A scan's field and degree, its --sample size (None: every monic
    polynomial), seed and worker count."""

    __slots__ = ()

    def __new__(cls, field, degree, sample=None, seed=0, workers=1):
        if degree < 1:
            raise ValueError(f"degree must be at least 1, got {degree}")
        if workers < 1:
            raise ValueError(f"workers must be at least 1, got {workers}")
        if sample is not None and sample < 1:
            raise ValueError(f"sample size must be at least 1, got {sample}")
        return super().__new__(cls, field, degree, sample, seed, workers)

    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace checks too

    def to_json(self):
        """The settings that decide the results; workers decides none of them."""
        return {k: v for k, v in self._asdict().items() if k != "workers"}


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
    return [(f, len(periodic_starts(f)), report)]


def _ratio_rows(f: Poly, report):
    F = f.field
    scale = F.q ** (5 / 6)
    t = orbit_table(f)
    best_orbit = max(
        (tail + cycle) / (m * scale)
        for tail, cycle, m, sign_tail in zip(t.tail, t.cycle, t.sign_period, t.sign_tail)
        if sign_tail == 0
    )
    best_run = max(max(t.run[1]), max(t.run[-1])) / scale
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
# the checks whose polynomials --sample draws; orbit-bounds draws (f, a) pairs
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
    f, picks, report = item
    return orbit_bound_rows(f, map(periodic_starts(f).__getitem__, picks), report)


def _pmap(fn, items, workers: int):
    items = list(items)
    workers = min(workers, len(items), os.cpu_count() or 1)  # a pool starts every worker at once
    if workers <= 1:
        return [fn(it) for it in items]
    from concurrent.futures import ProcessPoolExecutor  # only a pool loads multiprocessing
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
    for f, n, report in candidates:
        picks = [j - first for j in range(first, first + n) if j in drawn]
        if picks:
            items.append((f, picks, report))
        first += n
    return items


def run_checks(cfg: ScanConfig, checks) -> dict[str, list]:
    """Each selected check's rows, in CHECKS order, from one item per f, which
    classifies f at most once; orbit-bounds then checks its drawn starts per
    f.  A cell or sample of more than MAX_ENUMERATED_POLYS f is refused."""
    checks = frozenset(checks)
    unknown = sorted(checks - set(CHECKS))
    if unknown:
        raise ValueError(
            f"unknown check {', '.join(map(repr, unknown))}; known: {', '.join(CHECKS)}"
        )
    cap = MAX_ENUMERATED_POLYS
    if cfg.sample is not None and cfg.sample > cap:
        raise ValueError(f"--sample {cfg.sample:,} is more than the {cap:,} a scan draws")
    p, k, _ = _field_key(*_field_name(cfg.field))  # checks the field, builds no table
    sampled_only = cfg.sample is not None and checks <= SAMPLED_POLYS
    if not sampled_only and not power_within(p**k, cfg.degree, cap):
        raise ValueError(
            f"{p**k}^{cfg.degree} monic polynomials are more than the {cap:,} a scan "
            f"enumerates; --sample draws only those of {', '.join(sorted(SAMPLED_POLYS))}"
        )
    F = FieldSpec.parse(cfg.field)
    drawn = None if cfg.sample is None else sample_polys(F, cfg.degree, cfg.sample, cfg.seed)
    in_draw, rest = set(drawn or ()), checks - SAMPLED_POLYS
    items = [(f, checks if drawn is None or f in in_draw else rest)
             for f in (drawn if sampled_only else enumerate_polys(F, cfg.degree))]
    found = {check: [] for check in CHECKS if check in checks}  # one part per f
    for rows in _pmap(_scan_item, items, cfg.workers):
        for check, part in rows.items():
            found[check].append(part)
    if "orbit-bounds" in found:  # so far one [(f, start count, report)] per f
        counts = [c for part in found["orbit-bounds"] for c in part]
        found["orbit-bounds"] = _pmap(_orbit_bound_rows, _drawn_starts(counts, cfg), cfg.workers)
    # a part's rows are in (a, L) order, so ordering the parts by f orders the
    # rows by (f, a, L); q and d are fixed
    return {
        check: [r for part in sorted(filter(None, parts), key=lambda p: p[0]["f"]) for r in part]
        for check, parts in found.items()
    }


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

# json.dumps(row, sort_keys=True) of a run-bound row is '{"a": <a>, "f": <f>'
# and this tail, keys in sorted order
_RUN_BOUND_TAIL = ', "nonsquare": %s, "pass": %s, "q": %d, "square": %s}'
_RUN_BOUND_KEYS = frozenset({"a", "f", "nonsquare", "pass", "q", "square"})
# the most tails json_lines keeps at once
_TAIL_MEMO = 4096


def json_lines(rows):
    """json.dumps(r, sort_keys=True) for each row r, byte for byte.  A
    run-bound row's line is its a and f before a tail, which is kept for the
    whole call by the ids of the row's two side dicts, its pass and its q,
    and each side's text by its id.  So a side that many rows share (run-
    bound rows share one per content, across every f) is encoded once per
    scan.  Each memo entry holds its dicts, so no id is reused while the
    entry lives; both memos are emptied when _TAIL_MEMO tails are kept."""
    texts, tails = {}, {}
    for r in rows:
        if type(r) is dict and r.keys() == _RUN_BOUND_KEYS:
            a, f, ok, q = r["a"], r["f"], r["pass"], r["q"]
            ns, sq = r["nonsquare"], r["square"]
            if type(a) is int and type(f) is str and type(ok) is bool and type(q) is int:
                key = id(ns), id(sq), ok, q
                tail = tails.get(key)
                if tail is None and type(ns) is dict and type(sq) is dict:
                    if len(tails) >= _TAIL_MEMO:
                        texts.clear()
                        tails.clear()
                    for side in (ns, sq):
                        if id(side) not in texts:
                            texts[id(side)] = side, json.dumps(side, sort_keys=True)
                    tail = tails[key] = ns, sq, _RUN_BOUND_TAIL % (
                        texts[id(ns)][1], "true" if ok else "false", q, texts[id(sq)][1]
                    )
                if tail is not None:
                    yield f'{{"a": {a}, "f": {encode_basestring_ascii(f)}{tail[2]}'
                    continue
        yield json.dumps(r, sort_keys=True)


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
