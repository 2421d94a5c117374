"""End-to-end acceptance suite.

One criterion per test, one printed pass/fail line per criterion, ending in
the criterion's wall seconds (run with `pytest -s` to see the lines for
passing criteria as well).  Criterion 3 pins
the exact level at which the oracle certifies each linear-power polynomial
A(x-B)^(p^e) as not ordinary: the cycle length of 0 under the permutation f,
computed from f's value table alone (see `_root_chain_level`).
"""

import json
import random
import time

import pytest
from chebyshev_ref import compose, monic_chebyshev, power, product, psi

from orbitsquares.bounds import choose_L
from orbitsquares.chebyshev import IntPoly, chebyshev
from orbitsquares.classify import (
    NOT_ORDINARY,
    NOT_TWO_ORDINARY,
    ORDINARY,
    chebyshev_conjugacy,
    classify_2_ordinary,
    generate_family,
    hn_sequence,
    oracle_2_ordinary,
    oracle_ordinary,
)
from orbitsquares.field import FieldElement, FieldSpec
from orbitsquares.fpoly import Poly
from orbitsquares.scan import (
    BOUNDS_CSV_COLUMNS,
    ScanConfig,
    enumerate_polys,
    failed,
    ratio_scan,
    rows_to_csv_text,
    run_checks,
)

FIELDS = {
    3: "3", 5: "5", 7: "7", 9: "3^2", 11: "11", 13: "13", 17: "17", 19: "19",
    23: "23", 25: "5^2", 27: "3^3", 49: "7^2", 81: "3^4", 121: "11^2",
    169: "13^2",
}


def field_for(q: int) -> FieldSpec:
    return FieldSpec.parse(FIELDS[q])


_criterion_start = time.perf_counter()


@pytest.fixture(autouse=True)
def _criterion_clock():
    """Start the wall clock that report() reads for the criterion under test."""
    global _criterion_start
    _criterion_start = time.perf_counter()


def report(n: int, title: str, ok: bool, detail: str = "") -> bool:
    tag = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    seconds = time.perf_counter() - _criterion_start
    print(f"[{tag}] criterion {n}: {title}{suffix} [{seconds:.1f} s]")
    return ok


def test_criterion_1_weil_exhaustive():
    failures = 0
    checked = 0
    for q in (3, 5, 7, 9, 11, 13):
        for degree in (2, 3):
            rows = run_checks(ScanConfig(field=FIELDS[q], degree=degree), {"weil"})["weil"]
            failures += sum(map(failed, rows))
            checked += q**degree
    ok = report(1, "Weil bound, exhaustive monic deg 2-3", failures == 0,
                f"{checked} polynomials, {failures} failures")
    assert ok


def test_criterion_2_classifier_oracle_agreement():
    # (q, degree, depth, kind): the F_3 quartics and quintics have p <= 2n - 1,
    # n = degree // 2; each holds two non-monic polynomials that meet the
    # square-root conditions of (d) or (e) outside S_d
    cells = [(3, 2, 6, "monic"), (5, 2, 6, "monic"), (7, 2, 6, "monic"), (9, 2, 6, "monic"),
             (25, 2, 5, "monic"), (27, 2, 5, "monic"),
             (3, 3, 4, "monic"), (5, 3, 4, "monic"), (3, 4, 3, "all"), (3, 5, 3, "all")]
    disagreements = []
    checked = 0
    for q, degree, depth, kind in cells:
        F = field_for(q)
        for f in enumerate_polys(F, degree, kind):
            checked += 1
            rep = classify_2_ordinary(f)
            res = oracle_2_ordinary(f, depth, budget=4096)
            if rep.verdict == NOT_TWO_ORDINARY and not res.certified_not:
                disagreements.append((q, str(f), "classifier-only"))
            if res.certified_not and rep.verdict != NOT_TWO_ORDINARY:
                disagreements.append((q, str(f), "oracle-only"))
    ok = report(2, "classifier/oracle agreement on small exhaustive cells",
                not disagreements, f"{checked} polynomials, "
                f"{len(disagreements)} disagreements")
    assert ok, disagreements[:10]


def _linear_power_polys(F):
    """All A(x - B)^(p^e) of degree <= 9 over F, with d = p^e, A and B."""
    e = 1
    while F.p**e <= 9:
        d = F.p**e
        for Ai in range(F.q):
            A = FieldElement(F, Ai)
            if A.is_zero():
                continue
            for Bi in range(F.q):
                B = FieldElement(F, Bi)
                lin = Poly.from_elements(F, [-B, F.one])
                yield Poly.constant(A) * lin**d, d, A, B
        e += 1


def _root_chain_level(f: Poly) -> int:
    """First level n at which f^n has no new irreducible factor, for f = A(x-B)^(p^e).

    Such an f permutes F_q, and f^n = A_n (x - C_n)^(d^n) with C_0 = 0 and
    f(C_n) = C_(n-1).  The single factor of f^n is new until the root chain
    C_0, C_1, ... repeats, so the level is the length of the cycle of 0 under
    f.  It is read off the inverse of f's value table, with no factoring."""
    F = f.field
    inverse = {f.eval_i(a): a for a in range(F.q)}
    assert len(inverse) == F.q, f"{f} does not permute F_{F.q}"
    chain = [0]
    while (r := inverse[chain[-1]]) not in chain:
        chain.append(r)
    return len(chain)


def test_criterion_3_finite_case():
    class_failures = []
    oracle_failures = []
    chain_failures = []
    checked = 0
    linear_powers = 0
    deep_levels = []
    for q in (3, 9, 5, 25):
        F = field_for(q)
        special = {}
        for f, d, A, B in _linear_power_polys(F):
            special[f] = d, A, B
        for f, (d, A, B) in special.items():
            checked += 1
            v = classify_2_ordinary(f).ordinary_verdict
            if v != NOT_ORDINARY:
                class_failures.append((q, str(f), "not flagged"))
                continue
            linear_powers += 1
            level = _root_chain_level(f)
            # hn_sequence's root chain returns to C_0 = 0 at the same level
            repeat = hn_sequence(A, A * B**d, d).repeat
            if repeat != (0, level):
                chain_failures.append((q, str(f), repeat, level))
            # Depth 6 certifies exactly the polynomials whose level is at
            # most 6; the rest must be certified at their own level.
            runs = [(6, f"CertifiedNot({level})" if level <= 6 else "ConsistentUpTo(6)")]
            if level > 6:
                deep_levels.append(level)
                runs.append((level, f"CertifiedNot({level})"))
            for depth, expected in runs:
                res = oracle_ordinary(f, depth, budget=d**depth)
                if str(res) != expected:
                    oracle_failures.append((q, str(f), depth, str(res), expected))
        rng = random.Random(q)
        degrees = sorted({d for _, d, _, _ in _linear_power_polys(F)})
        for d in degrees:
            for _ in range(40):
                coeffs = [rng.randrange(F.q) for _ in range(d)] + [F.one_idx]
                f = Poly(F, coeffs)
                if f in special:
                    continue
                checked += 1
                v = classify_2_ordinary(f).ordinary_verdict
                if v != ORDINARY:
                    class_failures.append((q, str(f), "false positive"))
    levels = " and ".join(str(n) for n in sorted(set(deep_levels)))
    ok = report(
        3, "linear-power detection and exact certification level",
        not class_failures and not oracle_failures and not chain_failures,
        f"{checked} polynomials, {len(class_failures)} classification "
        f"failures; {linear_powers} linear-power polynomials, "
        f"{len(deep_levels)} certify past depth 6 at their predicted levels "
        f"{levels}, {len(oracle_failures)} oracle disagreements, "
        f"{len(chain_failures)} hn_sequence repeats off the level",
    )
    assert not class_failures, class_failures[:10]
    assert not chain_failures, chain_failures[:10]
    assert ok, oracle_failures[:10]


def test_criterion_4_families_and_conjugacy():
    # (d, q): the last five prime cells and F_9 have p <= 2n - 1, n = d // 2
    cases = [(2, 7), (3, 5), (3, 7), (4, 5), (4, 7), (5, 7), (6, 7), (5, 11), (6, 11),
             (4, 3), (5, 3), (6, 5), (7, 5), (8, 7), (4, 9)]
    problems = []
    generated = 0
    for d, q in cases:
        F = field_for(q)
        fam = "d" if d % 2 == 0 else "e"
        signs = set()
        for B in F.elements():
            if B.is_zero():
                continue
            f = generate_family(B, d)
            generated += 1
            forms = classify_2_ordinary(f).matched_forms
            if not any(m.form == fam and m.witness["B"] == B for m in forms):
                problems.append((d, q, B.idx, "form not recovered with witness B"))
                continue
            conj = chebyshev_conjugacy(f)
            if conj is None:
                problems.append((d, q, B.idx, "no Chebyshev conjugacy"))
                continue
            signs.add(conj[0])
            res = oracle_2_ordinary(f, 2)
            if (res.certified_not, res.level) != (True, 2):
                problems.append((d, q, B.idx, f"oracle {res}, not CertifiedNot(2)"))
        if len(signs) != 1:
            problems.append((d, q, None, f"sign not constant: {sorted(signs)}"))
    ok = report(4, "family generation, form recovery, Chebyshev conjugacy",
                not problems, f"{generated} members generated, one per B")
    assert ok, problems[:10]


def test_criterion_5_chebyshev_identities():
    t2 = chebyshev(2)
    comp_ok = all(compose(t2, chebyshev(n)) == chebyshev(2 * n) for n in range(21))
    two = IntPoly([2])
    psi_ok = True
    for d in (3, 5, 7, 9, 11, 13, 15):
        t = monic_chebyshev(d)
        ks = [k for k in range(2, d + 1) if d % k == 0]
        psi_ok &= t - two == psi(1) * power(product(psi(k) for k in ks), 2)
        psi_ok &= t + two == psi(2) * power(product(psi(2 * k) for k in ks), 2)
    ok = report(5, "exact integer Chebyshev identities", comp_ok and psi_ok)
    assert ok


def _bounds_rows(q: int, workers: int = 1):
    cfg = ScanConfig(field=FIELDS[q], degree=2, sample=200, seed=q, workers=workers)
    return run_checks(cfg, {"orbit-bounds"})["orbit-bounds"]


def test_criterion_6_orbit_bound():
    failures = 0
    rows_total = 0
    for q in (7, 9, 11, 13):
        rows = _bounds_rows(q)
        Ls = {r["L"] for r in rows}
        assert Ls == set(range(1, max(choose_L(q, 2), 3) + 1))
        rows_total += len(rows)
        failures += sum(1 for r in rows if not r["pass"])
    ok = report(6, "exact orbit-size inequality on 200 sampled pairs per field",
                failures == 0, f"{rows_total} rows, {failures} failures")
    assert ok


def test_criterion_7_envelope():
    failures = 0
    tested = 0
    for q in (7, 9, 11, 13):
        for r in _bounds_rows(q):
            if r["two_ordinary"]:
                tested += 1
                if r["envelope_pass"] is not True:
                    failures += 1
    ok = report(7, "envelope bound on the 2-ordinary sampled subset",
                failures == 0, f"{tested} rows, {failures} failures")
    assert ok


def test_criterion_8_run_bound():
    failures = 0
    rows_total = 0
    for q in (7, 11, 13, 17, 19, 23, 27):
        rows = run_checks(ScanConfig(field=FIELDS[q], degree=2), {"run-bounds"})["run-bounds"]
        rows_total += len(rows)
        failures += sum(1 for r in rows if not r["pass"])
    ok = report(8, "run-structure inequality, exhaustive degree 2",
                failures == 0, f"{rows_total} orbits, {failures} failures")
    assert ok


def test_criterion_9_ratio_tables():
    table = {}
    ok = True
    for q in (9, 25, 49, 81, 121, 169):
        cfg = ScanConfig(field=FIELDS[q], degree=2, sample=100, seed=0)
        s1 = ratio_scan(cfg)
        s2 = ratio_scan(cfg)
        ok &= s1 == s2
        for key in ("max_orbit_ratio", "max_run_ratio"):
            v = float(s1[key])
            ok &= v == v and v >= 0 and v != float("inf")
        table[q] = (s1["max_orbit_ratio"], s1["max_run_ratio"])
    detail = "; ".join(f"q={q}: orbit {o}, run {r}" for q, (o, r) in table.items())
    ok = report(9, "observational ratio tables", ok, detail)
    assert ok


def test_criterion_10_determinism():
    rows_w1 = _bounds_rows(9, workers=1)
    rows_w2 = _bounds_rows(9, workers=2)
    rows_w4 = _bounds_rows(9, workers=4)
    csvs = {rows_to_csv_text(r, BOUNDS_CSV_COLUMNS) for r in (rows_w1, rows_w2, rows_w4)}
    jsons = {json.dumps(r, sort_keys=True) for r in (rows_w1, rows_w2, rows_w4)}
    w1, w3 = (
        run_checks(ScanConfig(field="7", degree=3, workers=w), {"weil"})["weil"]
        for w in (1, 3)
    )
    ok = len(csvs) == 1 and len(jsons) == 1 and w1 == w3
    ok = report(10, "byte-identical reports at any worker count", ok)
    assert ok
