"""Batch scan determinism and the command-line front end."""

import concurrent.futures
import hashlib
import json
import random
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import orbitsquares.field
from orbitsquares import bounds, dynamics, scan
from orbitsquares.bounds import RunBoundPart, choose_L, envelope_check, orbit_bound_check
from orbitsquares.classify import TWO_ORDINARY, classify_2_ordinary
from orbitsquares.cli import main
from orbitsquares.dynamics import CYCLE_WORD_CAP, forward_orbit, orbit_table, sign_sequence
from orbitsquares.field import FieldSpec, make_field
from orbitsquares.fpoly import Poly
from orbitsquares.scan import (
    BOUNDS_CSV_COLUMNS,
    CHECKS,
    ScanConfig,
    classification_counts,
    enumerate_polys,
    ratio_scan,
    rows_to_csv_text,
    run_check_parts,
    run_checks,
    sample_polys,
)

F5 = make_field(5)
F7 = make_field(7)
# the pinned scan: `scan --field 31 --degree 2 --checks classification,weil,
# orbit-bounds,run-bounds --sample 300 --seed 0`, and its rows.jsonl hash
PINNED_SCAN = {"field": "31", "degree": 2, "sample": 300, "seed": 0}
PINNED_CHECKS = ("classification", "weil", "orbit-bounds", "run-bounds")
PINNED_ROWS_SHA256 = "139db1d204d5cc495af8b0365c47e0db812880e5dbad9fae4223861786c239ba"


def rows_of(check, **cfg):
    """One check's rows from run_checks."""
    return run_checks(ScanConfig(**cfg), {check})[check]


class TestEnumeration:
    def test_monic_count(self):
        assert sum(1 for _ in enumerate_polys(F7, 2, "monic")) == 49

    def test_all_count(self):
        assert sum(1 for _ in enumerate_polys(F5, 2, "all")) == 4 * 25

    def test_monic_leading(self):
        for f in enumerate_polys(F5, 3, "monic"):
            assert f.degree == 3 and f.leading() == F5.one

    def test_unknown_space(self):
        with pytest.raises(ValueError):
            list(enumerate_polys(F5, 2, "weird"))

    def test_sample_seeded(self):
        a = sample_polys(F7, 2, 10, seed=3)
        b = sample_polys(F7, 2, 10, seed=3)
        c = sample_polys(F7, 2, 10, seed=4)
        assert a == b and len(a) == 10
        assert a != c
        assert len(set(map(str, a))) == 10  # without replacement


class TestScans:
    def test_classification_counts_f7_quadratics(self):
        rows = rows_of("classification", field="7", degree=2)
        counts = classification_counts(rows)
        assert len(rows) == 49
        assert counts["TwoOrdinary"] == 41
        assert counts["NotTwoOrdinary"] == 8
        assert counts["form_b"] == 7 and counts["form_d"] == 1

    def test_worker_count_does_not_change_bytes(self):
        # polynomial items cross to the workers pickled, are classified there,
        # and orbit-bounds' drawn starts cross back for its second phase with
        # each f's report: six of the 27 monic F_3 cubics match shape (a) or (c)
        for field, degree in (("7", 2), ("3^2", 2), ("3", 3)):
            out1, out2 = (
                run_checks(ScanConfig(field=field, degree=degree, sample=20, seed=3, workers=w),
                           CHECKS)
                for w in (1, 2)
            )
            assert list(out1) == list(CHECKS) and all(out1.values())
            assert json.dumps(out1, sort_keys=True) == json.dumps(out2, sort_keys=True)

    def test_pool_is_no_larger_than_the_work(self, monkeypatch):
        started = []

        class InProcessPool:
            """Records its size and maps in this process; starts nothing."""

            def __init__(self, max_workers):
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items, chunksize=1):
                return map(fn, items)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
        monkeypatch.setattr(scan.os, "cpu_count", lambda: 4)
        rows = rows_of("classification", field="7", degree=2, sample=3, workers=8)
        assert started == [3] and len(rows) == 3
        rows = rows_of("classification", field="7", degree=2, sample=1, workers=8)
        assert started == [3] and len(rows) == 1  # one item runs without a pool
        rows = rows_of("classification", field="7", degree=2, workers=10**6)
        assert started == [3, 4] and len(rows) == 49  # nor more workers than CPUs

    def test_the_cli_imports_no_pool(self):
        # every CLI run and every perfbench process imports cli; only a scan
        # that starts a pool should pay for concurrent.futures and
        # multiprocessing
        probe = ("import sys, orbitsquares.cli; "
                 "print(sorted({'concurrent.futures', 'multiprocessing'} & set(sys.modules)))")
        out = subprocess.run([sys.executable, "-c", probe], cwd=Path(scan.__file__).parents[1],
                             check=True, capture_output=True, text=True).stdout
        assert out.strip() == "[]"

    def test_weil_scan_no_failures(self):
        rows = rows_of("weil", field="5", degree=3)
        assert len(rows) == 125 and not any(map(scan.failed, rows))

    def test_bounds_scan_schema_and_pass(self):
        rows = rows_of("orbit-bounds", field="7", degree=2, sample=12, seed=1)
        assert rows and all(r["pass"] for r in rows)
        csv_text = rows_to_csv_text(rows, BOUNDS_CSV_COLUMNS)
        assert csv_text.splitlines()[0] == ",".join(BOUNDS_CSV_COLUMNS)

    @staticmethod
    def _per_pair_bounds_rows(cfg):
        """orbit-bounds' rows, built pair by pair: each sampled (f, a) is
        classified and checked on its own, with one orbit_bound_check per L,
        pass from both the sum and the uniform form, and one envelope_check
        per B_i."""
        F = FieldSpec.parse(cfg.field)
        pairs = [
            (f, a)
            for f in enumerate_polys(F, cfg.degree, "monic")
            for a in F.elements()
            if sign_sequence(f, a).purely_periodic
        ]
        if cfg.sample is not None and cfg.sample < len(pairs):
            rng = random.Random(cfg.seed)
            pairs = [pairs[i] for i in sorted(rng.sample(range(len(pairs)), cfg.sample))]
        rows = []
        for f, a in pairs:
            two_ordinary = classify_2_ordinary(f).verdict == TWO_ORDINARY
            for L in range(1, max(choose_L(F.q, cfg.degree), 3) + 1):
                ob = orbit_bound_check(f, a, L)
                uniform = 2 * L + 1 + ob.m * max(ob.B_values)
                rows.append(
                    {
                        "q": F.q,
                        "d": f.degree,
                        "f": str(f),
                        "a": a.idx,
                        "m": ob.m,
                        "orbit": forward_orbit(f, a).size,
                        "L": L,
                        "maxB": str(max(ob.B_values)),
                        "lhs": ob.lhs,
                        "rhs": str(ob.rhs_sum),
                        "pass": ob.lhs <= min(ob.rhs_sum, uniform),
                        "two_ordinary": two_ordinary,
                        "envelope_pass": all(
                            envelope_check(f, a, i, L).passed for i in range(ob.m)
                        ) if two_ordinary else None,
                    }
                )
        rows.sort(key=lambda r: (r["q"], r["d"], r["f"], r["a"], r["L"]))
        return rows

    @pytest.mark.parametrize("field", ["7", "3^2/(2,1,1)"])
    @pytest.mark.parametrize("sample, seed", [(25, 0), (25, 1), (25, 2), (None, 0)])
    def test_bounds_scan_matches_per_pair_checks(self, field, sample, seed):
        cfg = ScanConfig(field=field, degree=2, sample=sample, seed=seed)
        expected = self._per_pair_bounds_rows(cfg)
        assert run_checks(cfg, {"orbit-bounds"})["orbit-bounds"] == expected
        # the other checks share the pass but not the draw
        assert run_checks(cfg, CHECKS)["orbit-bounds"] == expected

    def test_bounds_scan_worker_determinism(self):
        # run-bounds rows of one f share their side dicts, in a worker as in-process
        out1, out3 = (
            run_checks(ScanConfig(field="7", degree=2, sample=8, seed=5, workers=w),
                       {"orbit-bounds", "run-bounds"})
            for w in (1, 3)
        )
        assert rows_to_csv_text(out1["orbit-bounds"], BOUNDS_CSV_COLUMNS) == rows_to_csv_text(
            out3["orbit-bounds"], BOUNDS_CSV_COLUMNS
        )
        assert out1["run-bounds"]
        assert [json.dumps(r, sort_keys=True) for r in out1["run-bounds"]] == [
            json.dumps(r, sort_keys=True) for r in out3["run-bounds"]
        ]

    def test_sample_means_the_same_in_every_scan(self):
        cfg = ScanConfig(field="7", degree=2, sample=5)
        assert len(rows_of("classification", field="7", degree=2, sample=5)) == 5
        assert ratio_scan(cfg)["polys"] == 5
        assert len(rows_of("classification", field="7", degree=2)) == 49
        # weil and run-bounds cover every f in the same pass as the sample
        found = run_checks(cfg, CHECKS)
        assert len(found["classification"]) == len(found["ratios"]) == 5
        assert {r["f"] for r in found["classification"]} == {str(f) for f in sample_polys(F7, 2, 5, 0)}
        assert len(found["weil"]) == 49
        assert {r["f"] for r in found["run-bounds"]} == {
            r["f"] for r in rows_of("classification", field="7", degree=2)
            if r["verdict"] == TWO_ORDINARY
        }

    def test_each_f_is_classified_and_walked_once(self, monkeypatch):
        calls = Counter()

        def counted(f, *args):
            calls[f] += 1
            return classify_2_ordinary(f, *args)

        monkeypatch.setattr(scan, "classify_2_ordinary", counted)
        for field in ("7", "3^2/(2,1,1)"):
            calls.clear()
            orbit_table.cache_clear()
            found = run_checks(ScanConfig(field=field, degree=2, sample=30, seed=2), CHECKS)
            q = FieldSpec.parse(field).q
            drawn = {r["f"] for r in found["orbit-bounds"]}
            assert len(calls) == q * q and max(calls.values()) == 1
            assert orbit_table.cache_info().misses <= q * q + len(drawn)

    def test_sample_must_be_positive(self):
        with pytest.raises(ValueError):
            ScanConfig(field="7", degree=2, sample=0)

    def test_run_bounds_scan_passes(self):
        rows = rows_of("run-bounds", field="7", degree=2)
        assert rows and all(r["pass"] for r in rows)

    def test_unknown_check(self):
        with pytest.raises(ValueError, match="unknown check 'ratio'"):
            run_checks(ScanConfig(field="7", degree=2), {"weil", "ratio"})

    def test_oversized_exhaustive_cell_is_refused_up_front(self, monkeypatch):
        def unreachable(*args):
            raise AssertionError("a work item was built before the refusal")

        big = {"field": "31", "degree": 5}  # 31^5 = 28,629,151 monic f
        allowed = run_checks(ScanConfig(**big, sample=2), {"ratios"})
        assert len(allowed["ratios"]) == 2
        monkeypatch.setattr(scan, "enumerate_polys", unreachable)
        monkeypatch.setattr(scan, "sample_polys", unreachable)
        for sample, checks in [(None, {"ratios"}), (None, {"weil"}), (3, {"weil"}),
                               (3, {"classification", "orbit-bounds"})]:
            with pytest.raises(ValueError, match="31\\^5 monic polynomials are more than"):
                run_checks(ScanConfig(**big, sample=sample), checks)

    def test_a_cell_just_over_the_cap_is_refused(self):
        # 1009^2 = 1,018,081: below the cap's bit length, so the power decides
        message = ("1009^2 monic polynomials are more than the 1,000,000 a scan enumerates; "
                   "--sample draws only those of classification, ratios")
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            run_checks(ScanConfig(field="1009", degree=2), ["weil"])

    def test_an_oversized_cell_is_refused_before_its_field_is_built(self, monkeypatch):
        # make_field's cache may already hold F_100003, so a patch on the
        # table builder would not see the build; the refusal needs only q
        def no_field(*args):
            raise AssertionError(f"make_field{args} ran before the cap check")

        monkeypatch.setattr(orbitsquares.field, "make_field", no_field)
        message = ("100003^2 monic polynomials are more than the 1,000,000 a scan enumerates; "
                   "--sample draws only those of classification, ratios")
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            run_checks(ScanConfig(field="100003", degree=2), ["weil"])
        with pytest.raises(ValueError, match="^100001 is not prime$"):  # 11 * 9091
            run_checks(ScanConfig(field="100001", degree=2), ["weil"])

    def test_cell_size_cap_is_inclusive(self, monkeypatch):
        monkeypatch.setattr(scan, "MAX_ENUMERATED_POLYS", 9)
        assert len(rows_of("weil", field="3", degree=2)) == 9
        with pytest.raises(ValueError, match="more than the 9 "):
            rows_of("weil", field="3", degree=3)

    def test_ratio_scan_fixed_precision(self):
        s = ratio_scan(ScanConfig(field="3^2", degree=2, sample=20, seed=0))
        assert s["q"] == 9 and s["polys"] == 20
        float(s["max_orbit_ratio"])  # formatted as a parseable fixed-point string
        assert "." in s["max_orbit_ratio"] and len(s["max_orbit_ratio"].split(".")[1]) == 6


class TestCli:
    def run(self, capsys, *argv):
        rc = main(list(argv))
        out = capsys.readouterr()
        return rc, out.out, out.err

    def test_classify_form_d(self, capsys):
        rc, out, _ = self.run(capsys, "classify", "--field", "7", "--poly", "0,4,5")
        assert rc == 0
        doc = json.loads(out)
        assert doc["verdict"] == "NotTwoOrdinary"
        assert any(fm["form"] == "d" for fm in doc["forms"])

    def test_classify_form_a(self, capsys):
        rc, out, _ = self.run(capsys, "classify", "--field", "3", "--poly", "1,0,0,1")
        assert rc == 0
        assert any(fm["form"] == "a" for fm in json.loads(out)["forms"])

    def test_classify_takes_no_seed(self, capsys):
        # classification reads shapes from coefficients; nothing random is left to seed
        rc, out, _ = self.run(capsys, "classify", "--field", "7", "--poly", "1,0,1", "--seed", "3")
        assert rc == 1 and out == ""

    @pytest.mark.parametrize("field", ["3^2/(4,0,1)", "3^2/(-2,0,1)", "3^2/(1,0,4)"])
    def test_modulus_coefficient_out_of_range(self, capsys, field):
        rc, out, err = self.run(capsys, "classify", "--field", field, "--poly", "0,0,1")
        assert rc == 1 and out == "" and "error:" in err

    def test_classify_two_ordinary(self, capsys):
        rc, out, _ = self.run(capsys, "classify", "--field", "7", "--poly", "1,0,1")
        assert rc == 0 and json.loads(out)["verdict"] == "TwoOrdinary"

    def test_parse_error_exit_code(self, capsys):
        rc, _, err = self.run(capsys, "classify", "--field", "7", "--poly", "1,x,3")
        assert rc == 1 and "error:" in err

    def test_bad_field_exit_code(self, capsys):
        rc, _, err = self.run(capsys, "classify", "--field", "4", "--poly", "1,1")
        assert rc == 1 and "error:" in err

    def test_orbit_start_out_of_range(self, capsys):
        rc, _, err = self.run(
            capsys, "orbit", "--field", "7", "--poly", "0,0,1", "--start", "10"
        )
        assert rc == 1 and "error:" in err

    def test_negative_coefficient_rejected(self, capsys):
        # over F_9 a residue -1 would read as index 8, the element 2+2x, not -1
        rc, _, err = self.run(capsys, "classify", "--field", "3^2", "--poly=-1,0,1")
        assert rc == 1 and "error:" in err

    @pytest.mark.parametrize("argv", [
        ["scan", "--field", "3_1", "--degree", "2"],
        ["orbit", "--field", "7", "--poly", "0,0,1", "--start", "1_0"],
        ["classify", "--field", "7", "--poly", "0,4,\u0665"],  # ARABIC-INDIC FIVE
    ])
    def test_only_ascii_decimal_digits(self, capsys, argv):
        # int() would read these as 31, 10 and 0,4,5
        rc, out, err = self.run(capsys, *argv)
        assert rc == 1 and out == "" and "error: expected a decimal number" in err

    @pytest.mark.parametrize("flag", ["--degree", "--sample", "--seed", "--workers"])
    @pytest.mark.parametrize("value", ["0_1", "+2", "\u0663"])  # ARABIC-INDIC THREE
    def test_integer_flags_are_ascii_decimals(self, capsys, flag, value):
        # int() would read these as 1, 2 and 3, each a valid value of each flag
        flags = {"--degree": "2", "--checks": "weil", flag: value}
        argv = [a for item in flags.items() for a in item]
        rc, out, err = self.run(capsys, "scan", "--field", "3", *argv)
        assert rc == 1 and out == ""
        assert f"argument {flag}: expected a decimal number" in err

    def test_oversized_exhaustive_cell_exits_1(self, capsys):
        rc, out, err = self.run(capsys, "scan", "--field", "31", "--degree", "10")
        assert rc == 1 and out == "" and "error: 31^10 monic polynomials" in err

    def test_oversized_sample_exits_1(self, capsys, monkeypatch):
        def unreachable(*args):
            raise AssertionError("a work item was built before the refusal")

        monkeypatch.setattr(scan, "MAX_ENUMERATED_POLYS", 9)
        rc, out, _ = self.run(capsys, "scan", "--field", "31", "--degree", "10",
                              "--sample", "9", "--checks", "ratios")
        assert rc == 0 and json.loads(out.strip().splitlines()[-1])["summary"]["ratios"]["polys"] == 9
        monkeypatch.setattr(scan, "sample_polys", unreachable)
        monkeypatch.setattr(scan, "enumerate_polys", unreachable)
        for checks in ("ratios", "classification,ratios", "orbit-bounds"):
            rc, out, err = self.run(capsys, "scan", "--field", "31", "--degree", "10",
                                    "--sample", "10", "--checks", checks)
            assert rc == 1 and out == "" and "error: --sample 10 is more than the 9 " in err

    def test_summary_failed_and_csv_paths_leave_rows_unchanged(self, capsys, monkeypatch, tmp_path):
        rows, before = [], []

        def recorded(cfg, checks):
            found = run_check_parts(cfg, checks)
            rows.extend(flat_rows(it for items in found.values() for it in items))
            before.extend(json.dumps(r, sort_keys=True) for r in rows)
            return found

        monkeypatch.setattr(scan, "run_check_parts", recorded)
        rc, _, _ = self.run(capsys, "scan", "--field", "7", "--degree", "2", "--checks",
                            ",".join(CHECKS), "--sample", "10", "--out", str(tmp_path))
        assert rc == 0
        assert not any(map(scan.failed, rows))
        rows_to_csv_text(rows, BOUNDS_CSV_COLUMNS)
        assert [json.dumps(r, sort_keys=True) for r in rows] == before

    def test_gen_family_index_out_of_range(self, capsys):
        rc, _, err = self.run(
            capsys, "gen-family", "--field", "7", "--degree", "2", "--B", "7",
        )
        assert rc == 1 and "error:" in err

    def test_orbit(self, capsys):
        rc, out, _ = self.run(
            capsys, "orbit", "--field", "7", "--poly", "0,0,1", "--start", "3"
        )
        assert rc == 0
        doc = json.loads(out)
        assert doc["orbit"]["elements"] == [3, 2, 4]
        assert doc["signs"]["signs"] == [-1, 1, 1]

    def test_gen_family_roundtrip(self, capsys):
        rc, out, _ = self.run(
            capsys, "gen-family", "--field", "7", "--degree", "2", "--B", "2",
        )
        assert rc == 0
        doc = json.loads(out)
        assert doc["poly"] == "0,4,5"
        assert any(fm["form"] == "d" for fm in doc["classification"]["forms"])
        assert doc["chebyshev_conjugacy"] is not None

    def test_gen_family_where_p_is_at_most_2n_minus_1(self, capsys):
        rc, out, _ = self.run(capsys, "gen-family", "--field", "3", "--degree", "4", "--B", "1")
        assert rc == 0
        doc = json.loads(out)
        assert any(fm["form"] == "d" for fm in doc["classification"]["forms"])
        assert doc["chebyshev_conjugacy"] is not None

    def test_gen_family_at_q_211(self, capsys):
        # the conjugacy is solved from coefficients, not searched over q(q - 1) maps
        rc, out, _ = self.run(capsys, "gen-family", "--field", "211", "--degree", "3", "--B", "1")
        assert rc == 0
        doc = json.loads(out)
        assert doc["chebyshev_conjugacy"] == {"sign": "-", "a": 2, "b": 210}
        assert any(fm["form"] == "e" for fm in doc["classification"]["forms"])

    def test_classify_above_the_degree_budget_exits_1(self, capsys):
        poly = ",".join(["0"] * 2049 + ["2"] + ["0"] * 2048 + ["1"])  # x^4098 + 2x^2049
        rc, out, err = self.run(capsys, "classify", "--field", "7", "--poly", poly)
        assert rc == 1 and out == "" and "exceeds degree budget 4096" in err

    def test_verify_weil_out_dir(self, capsys, tmp_path):
        out_dir = tmp_path / "weil"
        rc, _, _ = self.run(
            capsys, "verify-weil", "--field", "5", "--degree", "2",
            "--out", str(out_dir),
        )
        assert rc == 0
        rows = [json.loads(l) for l in (out_dir / "rows.jsonl").read_text().splitlines()]
        assert len(rows) == 25
        assert json.loads((out_dir / "summary.json").read_text())["failures"] == 0
        assert (out_dir / "rows.csv").read_text().startswith("q,d,f,")

    def test_verify_bounds(self, capsys, tmp_path):
        out_dir = tmp_path / "bounds"
        rc, _, _ = self.run(
            capsys, "verify-bounds", "--field", "7", "--degree", "2",
            "--sample", "6", "--out", str(out_dir),
        )
        assert rc == 0
        summary = json.loads((out_dir / "summary.json").read_text())
        assert summary["failures"] == 0 and summary["envelope_failures"] == 0
        header = (out_dir / "rows.csv").read_text().splitlines()[0]
        assert header == ",".join(BOUNDS_CSV_COLUMNS)

    def test_scan_summary_on_stdout(self, capsys):
        rc, out, _ = self.run(
            capsys, "scan", "--field", "7", "--degree", "2",
            "--checks", "classification,weil",
        )
        assert rc == 0
        lines = out.strip().splitlines()
        summary = json.loads(lines[-1])["summary"]
        assert summary["classification_counts"]["TwoOrdinary"] == 41
        assert summary["weil_failures"] == 0

    @pytest.mark.parametrize("checks,named", [
        ("clasification,wiel", "'clasification', 'wiel'"),
        ("classification,weil,ratio", "'ratio'"),
    ])
    def test_scan_unknown_check(self, capsys, checks, named):
        rc, out, err = self.run(
            capsys, "scan", "--field", "7", "--degree", "2", "--checks", checks
        )
        assert rc == 1 and out == ""
        assert f"error: unknown check {named};" in err

    def test_scan_checks_run_in_fixed_order(self, capsys):
        rc, out, _ = self.run(
            capsys, "scan", "--field", "5", "--degree", "2",
            "--checks", "weil,classification",
        )
        assert rc == 0
        rows = [json.loads(l) for l in out.strip().splitlines()[:-1]]
        assert len(rows) == 50
        assert all("verdict" in r for r in rows[:25])
        assert all("applies" in r for r in rows[25:])

    def test_scan_rows_pinned(self, capsys, tmp_path):
        rc, _, _ = self.run(
            capsys, "scan", "--field", "31", "--degree", "2",
            "--checks", "classification,weil,orbit-bounds,run-bounds",
            "--sample", "300", "--seed", "0", "--out", str(tmp_path),
        )
        assert rc == 0
        assert hashlib.sha256((tmp_path / "rows.jsonl").read_bytes()).hexdigest() == (
            PINNED_ROWS_SHA256
        )

    def test_stdout_rows_equal_rows_jsonl(self, capsys, tmp_path):
        argv = ["scan", "--field", "7", "--degree", "2", "--checks", ",".join(CHECKS),
                "--sample", "10"]
        rc, out, _ = self.run(capsys, *argv)
        assert rc == 0 and json.loads(out.splitlines()[-1])["summary"]
        rc, _, _ = self.run(capsys, *argv, "--out", str(tmp_path))
        assert rc == 0
        printed = "".join(out.splitlines(keepends=True)[:-1]).encode()
        assert printed and printed == (tmp_path / "rows.jsonl").read_bytes()

    def test_scan_degree_one_skips_classification(self, capsys):
        # classification needs degree >= 2; weil and ratios do not classify
        rc, out, _ = self.run(
            capsys, "scan", "--field", "7", "--degree", "1", "--checks", "weil,ratios"
        )
        assert rc == 0
        summary = json.loads(out.strip().splitlines()[-1])["summary"]
        assert summary["weil_failures"] == 0 and summary["ratios"]["polys"] == 7

    def test_scan_depth_flag_is_gone(self, capsys):
        rc, _, _ = self.run(
            capsys, "scan", "--field", "7", "--degree", "2", "--depth", "6"
        )
        assert rc == 1

    def test_batch_flags_only_on_batch_commands(self, capsys):
        for flag in ("--workers", "--sample", "--budget", "--out", "--seed"):
            rc, out, _ = self.run(
                capsys, "orbit", "--field", "7", "--poly", "0,0,1", "--start", "3",
                flag, "8",
            )
            assert rc == 1 and out == "", flag

    def test_verify_weil_rejects_sampling_flags(self, capsys):
        # weil_scan always covers every monic polynomial of the degree
        for flag in ("--sample", "--budget"):
            rc, out, _ = self.run(
                capsys, "verify-weil", "--field", "5", "--degree", "2", flag, "3"
            )
            assert rc == 1 and out == "", flag

    def test_scan_summary_config_echo(self, capsys):
        rc, out, _ = self.run(capsys, "scan", "--field", "5", "--degree", "2")
        assert rc == 0
        config = json.loads(out.strip().splitlines()[-1])["summary"]["config"]
        for key in ("checks", "depth", "space", "bound_Ls", "budget", "workers"):
            assert key not in config, key

    def test_scan_summary_is_the_same_at_any_worker_count(self, capsys, tmp_path):
        summaries = []
        for workers in ("1", "2"):
            out_dir = tmp_path / workers
            rc, _, _ = self.run(
                capsys, "scan", "--field", "7", "--degree", "2", "--checks",
                "classification,weil", "--workers", workers, "--out", str(out_dir),
            )
            assert rc == 0
            summaries.append((out_dir / "summary.json").read_bytes())
        assert summaries[0] == summaries[1]

    def test_budget_flag_is_gone(self, capsys):
        # no scan or bound check forms an iterate f^n, so no degree budget applies
        for command in ("scan", "verify-bounds"):
            rc, out, _ = self.run(
                capsys, command, "--field", "7", "--degree", "2", "--budget", "5"
            )
            assert rc == 1 and out == "", command

    @pytest.mark.parametrize("config", [
        ["--degree", "-1"],
        ["--degree", "0"],
        ["--degree", "2", "--workers", "0"],
        ["--degree", "2", "--workers", "-3"],
    ])
    def test_scan_rejects_unreadable_config(self, capsys, config):
        rc, out, err = self.run(capsys, "scan", "--field", "3", *config)
        assert rc == 1 and out == "" and "error:" in err

    def test_scan_orbit_bounds_counts_envelope_failures(self, capsys, monkeypatch):
        monkeypatch.setattr(bounds, "envelope_holds", lambda *args: False)
        rc, out, _ = self.run(
            capsys, "scan", "--field", "7", "--degree", "2",
            "--checks", "orbit-bounds", "--sample", "5",
        )
        assert rc == 2
        summary = json.loads(out.strip().splitlines()[-1])["summary"]
        assert summary["orbit_bound_failures"] == 15

    def test_scan_run_bounds_counts_planted_failures(self, capsys, monkeypatch, tmp_path):
        # no run of an F_7 quadratic is long enough for S >= 1, so S is
        # planted as the run length, and every |T(L)| as 0 in the one list
        # that the sides read: each side that is not cycle-constant fails
        planted = []
        monkeypatch.setattr(bounds, "_run_S", lambda length: length)
        monkeypatch.setattr(bounds, "_t_set_sizes", lambda f, target: planted.append(f) or [0])
        argv = ["scan", "--field", "7", "--degree", "2", "--checks", "run-bounds"]
        rows = run_checks(ScanConfig(field="7", degree=2), {"run-bounds"})["run-bounds"]
        expected = sum(map(scan.failed, rows))
        assert planted and (expected, len(rows)) == (216, 287)
        rc, out, _ = self.run(capsys, *argv)
        lines = out.splitlines()
        assert rc == 2 and json.loads(lines[-1])["summary"]["run_bound_failures"] == expected
        assert sum(scan.failed(json.loads(line)) for line in lines[:-1]) == expected
        rc, _, _ = self.run(capsys, *argv, "--out", str(tmp_path))
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert rc == 2 and summary["run_bound_failures"] == expected
        assert (tmp_path / "rows.jsonl").read_text() == "".join(l + "\n" for l in lines[:-1])

    def test_scan_builds_no_run_bound_row_dict(self, capsys, monkeypatch, tmp_path):
        # a part yields row dicts only when iterated; the scan command counts
        # its failures and writes its lines from its side lists
        argv = ["scan", "--field", "7", "--degree", "2", "--checks", ",".join(CHECKS)]
        outcomes = []
        for patched in (False, True):
            if patched:
                def unreachable(part):
                    raise AssertionError("a run-bound row dict was built")

                monkeypatch.setattr(RunBoundPart, "__iter__", unreachable)
            rc, out, _ = self.run(capsys, *argv)
            out_dir = tmp_path / str(patched)
            rc_out, _, _ = self.run(capsys, *argv, "--out", str(out_dir))
            files = [(out_dir / n).read_bytes() for n in ("rows.jsonl", "summary.json")]
            outcomes.append((rc, rc_out, out, files))
        assert outcomes[0] == outcomes[1] and outcomes[0][:2] == (0, 0)
        assert '"nonsquare"' in outcomes[0][2]

    def test_run_bound_kernel_is_looked_up_when_it_runs(self, monkeypatch):
        # so a wrapper put on scan.run_bound_part, as a tracer puts one,
        # sees every call the scan makes
        calls = []

        def counted(f, report):
            calls.append(f)
            return bounds.run_bound_part(f, report)

        monkeypatch.setattr(scan, "run_bound_part", counted)
        parts = run_check_parts(ScanConfig(field="7", degree=2), {"run-bounds"})["run-bounds"]
        assert len(calls) == 49 and len(parts) == 41


class TestFieldStrings:
    def test_extension_with_modulus(self):
        spec = FieldSpec.parse("3^2/(1,0,1)")
        rows = rows_of("classification", field="3^2/(1,0,1)", degree=2)
        assert len(rows) == spec.q**2


def reference_lines(rows):
    """json_lines' definition: one json.dumps(r, sort_keys=True) per row."""
    return [json.dumps(r, sort_keys=True) for r in rows]


def flat_rows(items):
    """The rows of items, which holds rows and RunBoundParts, in order."""
    return [r for it in items for r in (it if type(it) is RunBoundPart else [it])]


def distinct_sides(rows):
    """The distinct side dicts of rows' run-bound rows."""
    return {id(s): s for r in rows if "square" in r for s in (r["square"], r["nonsquare"])}


def pinned_rows(workers):
    found = run_checks(ScanConfig(**PINNED_SCAN, workers=workers), PINNED_CHECKS)
    return [r for part in found.values() for r in part]


def pinned_items(workers):
    """The pinned scan's rows and run-bound parts, in the order they are written."""
    found = run_check_parts(ScanConfig(**PINNED_SCAN, workers=workers), PINNED_CHECKS)
    return [it for items in found.values() for it in items]


@pytest.fixture(scope="module")
def pinned():
    return pinned_rows(1)


@pytest.fixture(scope="module")
def pinned_parts():
    return pinned_items(1)


class TestEmission:
    @pytest.mark.parametrize("field", ["7", "3^2"])
    def test_json_lines_match_json_dumps_on_every_check(self, field):
        found = run_checks(ScanConfig(field=field, degree=2), CHECKS)
        rows = [r for part in found.values() for r in part]
        assert distinct_sides(rows) and list(scan.json_lines(rows)) == reference_lines(rows)

    def test_json_lines_match_json_dumps_on_the_pinned_scan(self, pinned):
        assert list(scan.json_lines(pinned)) == reference_lines(pinned)

    def test_rows_jsonl_pinned_at_any_worker_count(self, pinned_parts, tmp_path):
        # one process keeps one tail string per distinct pair of sides; a
        # pool pickles its results, so there only the tails' text is shared
        for workers, items in [(1, pinned_parts), (2, pinned_items(2))]:
            path = tmp_path / f"rows-{workers}.jsonl"
            scan.write_jsonl(items, path)
            assert hashlib.sha256(path.read_bytes()).hexdigest() == PINNED_ROWS_SHA256
            tails = [t for it in items if type(it) is RunBoundPart for t in it.tails]
            assert len(tails) == 28799 and len(set(tails)) == 144
            if workers == 1:
                assert len(set(map(id, tails))) == 144

    def test_each_shared_side_is_encoded_once(self, tmp_path, monkeypatch):
        # a guard by count, not by time: the per-row encoder made one call
        # per row, 30,960 on this scan.  With the tail cache cleared, the scan
        # encodes each row of another check once and each distinct pair of
        # run-bound sides at most twice
        bounds._pair_tail.cache_clear()
        calls = Counter()
        dumps = json.dumps

        def counted(obj, **kwargs):
            calls["dumps"] += 1
            return dumps(obj, **kwargs)

        monkeypatch.setattr(json, "dumps", counted)  # scan's and bounds' json.dumps
        items = pinned_items(1)
        scan.write_jsonl(items, tmp_path / "rows.jsonl")
        data = (tmp_path / "rows.jsonl").read_bytes()
        assert hashlib.sha256(data).hexdigest() == PINNED_ROWS_SHA256
        other = sum(type(it) is not RunBoundPart for it in items)
        assert (data.count(b"\n"), other) == (30960, 2161)
        assert other < calls["dumps"] <= other + 2 * 144


def reference_cycle_words(f):
    """The sign word (chi + 1 per point, as bytes) of each cycle of f, in the
    order orbit_table closes them, from a Horner walk of each start in index
    order: the first start whose orbit reaches a cycle closes it, and its word
    begins at the first point of that orbit on the cycle."""
    F, closed, words = f.field, set(), []
    for a in range(F.q):
        place, xs, x = {}, [], a
        while x not in place:
            place[x] = len(xs)
            xs.append(x)
            x = f.eval_i(x)
        cycle = xs[place[x]:]
        if x not in closed:
            closed.update(cycle)
            words.append(bytes(F.chi_i(y) + 1 for y in cycle))
    return words


class TestCycleMemo:
    """Guards by count, not by time, on the memo of per-cycle data that
    orbit_table keeps by sign word."""

    def test_one_miss_per_distinct_word_on_the_pinned_scan(self, monkeypatch):
        walked = []
        value_table = Poly.value_table
        monkeypatch.setattr(Poly, "value_table", lambda f: walked.append(f) or value_table(f))
        orbit_table.cache_clear()
        dynamics._cycle_memo.cache_clear()
        run_checks(ScanConfig(**PINNED_SCAN), PINNED_CHECKS)
        words = {f: [w for w in reference_cycle_words(f) if len(w) <= CYCLE_WORD_CAP]
                 for f in set(walked)}
        lookups = sum(len(words[f]) for f in walked)  # a drawn f is walked twice
        distinct = {w for ws in words.values() for w in ws}
        info = dynamics._cycle_memo.cache_info()
        assert (info.misses, info.hits + info.misses) == (len(distinct), lookups)
        assert (len(distinct), lookups) == (308, 3053)

    def test_no_word_over_the_cap_is_stored(self, monkeypatch):
        # 20 seeded quadratics over F_10007: their longest cycles pass the cap
        memoized, unmemoized = [], []
        memo, data = dynamics._cycle_memo, dynamics._cycle_data
        monkeypatch.setattr(dynamics, "_cycle_memo", lambda w: memoized.append(w) or memo(w))
        monkeypatch.setattr(dynamics, "_cycle_data", lambda w: unmemoized.append(w) or data(w))
        orbit_table.cache_clear()
        memo.cache_clear()
        cfg = ScanConfig(field="10007", degree=2, sample=20, seed=7)
        rows = run_checks(cfg, {"ratios"})["ratios"]
        assert len(rows) == 20 and memo.cache_info().currsize == len(set(memoized))
        assert max(map(len, memoized)) <= CYCLE_WORD_CAP < min(map(len, unmemoized))
        unmemoized_points, long_points = sum(map(len, unmemoized)), 0
        F = FieldSpec.parse(cfg.field)
        for r in rows:  # the points on cycles over the cap, read from each table
            table = orbit_table(Poly(F, [int(c) for c in r["f"].split(",")]))
            long_points += sum(c.length for c in table.cycles if c.length > CYCLE_WORD_CAP)
        assert long_points == unmemoized_points > 0


def part_cells():
    """(name, f, report) for every f of 7/2 and 3^2/(2,1,1)/2 and for 12
    seeded 13^2 quadratics."""
    for field, polys in [
        ("7", enumerate_polys(make_field(7), 2)),
        ("3^2/(2,1,1)", enumerate_polys(FieldSpec.parse("3^2/(2,1,1)"), 2)),
        ("13^2", sample_polys(make_field(13, 2), 2, 12, seed=5)),
    ]:
        for f in polys:
            yield field, f, classify_2_ordinary(f)


def reference_part(f):
    """The slow definition of f's part: json.dumps(run_bound_check(f, a)
    .to_json(), sort_keys=True) for every start a, by index, and how many
    of those checks fail."""
    reports = [bounds.run_bound_check(f, a) for a in f.field.elements()]
    lines = [json.dumps(r.to_json(), sort_keys=True) for r in reports]
    return lines, sum(not r.passed for r in reports)


@pytest.fixture(scope="module")
def pinned_reference(pinned_parts):
    """reference_part of every f the pinned scan has a part for, by name."""
    F = FieldSpec.parse(PINNED_SCAN["field"])
    names = [it.f for it in pinned_parts if type(it) is RunBoundPart]
    return {name: reference_part(Poly(F, [int(c) for c in name.split(",")])) for name in names}


class TestRunBoundParts:
    """A part's lines and failure count against run_bound_check, start by
    start: a tail served for another pair of sides shows as a wrong line."""

    def check_cells(self):
        cells, failures = Counter(), 0
        for field, f, report in part_cells():
            part = bounds.run_bound_part(f, report)
            assert (part is None) == (report.verdict != TWO_ORDINARY)
            if part is not None:
                cells[field] += 1
                lines, failed = reference_part(f)
                assert (list(part.lines()), part.failures) == (lines, failed), part.f
                failures += failed
        assert cells == {"7": 41, "3^2/(2,1,1)": 71, "13^2": 12}
        return failures

    @pytest.mark.parametrize("planted", [False, True])
    def test_parts_of_each_f_match_their_rows(self, planted, monkeypatch):
        # the unplanted parts are built first in either case, so a planted
        # side that could be served a tail cached for them fails the check
        assert self.check_cells() == 0
        if planted:  # every side that is not cycle-constant fails
            ran = []
            monkeypatch.setattr(bounds, "_run_S", lambda length: length)
            monkeypatch.setattr(bounds, "_t_set_sizes", lambda f, target: ran.append(f) or [0])
            assert self.check_cells() > 0 and ran

    @pytest.mark.parametrize("workers", [1, 2])
    def test_pinned_parts_match_their_rows(self, workers, pinned, pinned_parts, pinned_reference):
        items = pinned_parts if workers == 1 else pinned_items(2)  # parts cross a pool pickled
        parts = [it for it in items if type(it) is RunBoundPart]
        assert [p.f for p in parts] == list(pinned_reference)
        for part in parts:
            assert (list(part.lines()), part.failures) == pinned_reference[part.f], part.f
        assert flat_rows(items) == pinned
        assert scan.failures(items) == sum(map(scan.failed, pinned)) == 0
