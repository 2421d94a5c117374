"""The package's result records: each is an immutable tuple of named fields
that is built by position or keyword, compares and hashes by its fields,
refuses assignment, prints as Name(field=value, ...) and survives pickle;
ScanConfig validates on construction and OrbitTable keeps a per-table memo
outside its fields."""

import pickle
from types import MappingProxyType

import pytest

from orbitsquares.bounds import (
    EnvelopeCheck,
    OrbitBoundReport,
    RunBoundReport,
    RunBoundSide,
    WeilCheck,
    envelope_check,
    orbit_bound_check,
    run_bound_check,
    weil_check,
)
from orbitsquares.classify import (
    ClassificationReport,
    ConjugacyWitness,
    FormMatch,
    HnSequence,
    OracleResult,
    classify_2_ordinary,
    hn_sequence,
    oracle_2_ordinary,
)
from orbitsquares.dynamics import (
    OrbitSummary,
    OrbitTable,
    RunReport,
    SignSequence,
    forward_orbit,
    longest_run,
    orbit_table,
    sign_sequence,
)
from orbitsquares.field import FieldElement, make_field
from orbitsquares.fpoly import Factorization, Poly, factor
from orbitsquares.scan import ScanConfig

F3 = make_field(3)
F7 = make_field(7)
SQUARE = Poly.from_ints(F7, [0, 0, 1])  # x^2: shape (b)
TWO_ORDINARY_F = Poly.from_ints(F7, [0, 1, 1])  # x^2 + x, with 0 purely periodic


def el(field, idx):
    return FieldElement(field, idx)


# each record type, its public fields in order, and a fresh instance per call
RECORDS = {
    WeilCheck: (
        ("applies", "reason", "sum", "passed", "margin_sq"),
        lambda: weil_check(Poly.from_ints(F7, [1, 0, 1])),
    ),
    OrbitBoundReport: (
        ("m", "B_values", "lhs", "rhs_sum"),
        lambda: orbit_bound_check(SQUARE, el(F7, 2), 2),
    ),
    EnvelopeCheck: (
        ("B_i", "i", "L", "passed"),
        lambda: envelope_check(TWO_ORDINARY_F, el(F7, 0), 0, 1),
    ),
    RunBoundSide: (
        ("target", "run", "S", "t_sizes", "excluded"),
        lambda: run_bound_check(TWO_ORDINARY_F, el(F7, 3)).square,
    ),
    RunBoundReport: (
        ("f", "a", "square", "nonsquare"),
        lambda: run_bound_check(TWO_ORDINARY_F, el(F7, 3)),
    ),
    FormMatch: (
        ("form", "witness"),
        lambda: FormMatch("b", {"A": F7.one, "g": Poly.x(F7)}),
    ),
    ClassificationReport: (
        ("matched_forms",),
        lambda: classify_2_ordinary(Poly.from_ints(F3, [0, 0, 0, 1])),  # x^3: (a) and (c)
    ),
    HnSequence: (("values", "repeat"), lambda: hn_sequence(el(F7, 3), el(F7, 2), 2)),
    OracleResult: (
        ("certified_not", "level", "depth"),
        lambda: oracle_2_ordinary(SQUARE, 2),
    ),
    ConjugacyWitness: (("a", "b"), lambda: ConjugacyWitness(el(F7, 3), el(F7, 2))),
    OrbitSummary: (
        ("start", "tail", "period", "elements", "contains_zero_at"),
        lambda: forward_orbit(TWO_ORDINARY_F, el(F7, 3)),
    ),
    OrbitTable: (
        ("succ", "tail", "cycle", "sign_tail", "sign_period", "cycle_sign", "ahead", "run"),
        lambda: OrbitTable(**fields_of(orbit_table(TWO_ORDINARY_F), OrbitTable)),
    ),
    SignSequence: (
        ("orbit", "signs", "sign_tail", "sign_period", "purely_periodic"),
        lambda: sign_sequence(TWO_ORDINARY_F, el(F7, 3)),
    ),
    Factorization: (("unit", "factors"), lambda: factor(Poly.from_ints(F7, [0, 6, 0, 2]))),
    ScanConfig: (
        ("field", "degree", "sample", "seed", "workers"),
        lambda: ScanConfig("7", 2, sample=5, seed=1),
    ),
    RunReport: (
        ("target", "length", "cycle_constant"),
        lambda: longest_run(TWO_ORDINARY_F, el(F7, 3), 1),
    ),
}
# records with a list, dict or mapping field, which hash as nothing can
UNHASHABLE = frozenset({FormMatch, ClassificationReport, OrbitTable})
by_name = pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)


def fields_of(record, cls):
    return {name: getattr(record, name) for name in RECORDS[cls][0]}


@by_name
def test_built_by_position_and_keyword(cls):
    record = RECORDS[cls][1]()
    assert type(record) is cls
    values = fields_of(record, cls)
    assert cls(*values.values()) == record == cls(**values)


def test_defaults():
    assert WeilCheck(False, "constant-times-square") == WeilCheck(
        applies=False, reason="constant-times-square", sum=None, passed=None, margin_sq=None
    )
    assert ScanConfig("7", 2) == ScanConfig(field="7", degree=2, sample=None, seed=0, workers=1)


@by_name
def test_equal_records_compare_and_hash_equal(cls):
    first, second = RECORDS[cls][1](), RECORDS[cls][1]()
    assert first is not second and first == second and not first != second
    if cls in UNHASHABLE:
        with pytest.raises(TypeError):
            hash(first)
    else:
        assert hash(first) == hash(second)


@by_name
def test_fields_refuse_assignment(cls):
    record = RECORDS[cls][1]()
    before = fields_of(record, cls)
    for name, value in before.items():
        with pytest.raises(AttributeError):
            setattr(record, name, value)
    assert fields_of(record, cls) == before


@by_name
def test_repr_names_every_field(cls):
    record = RECORDS[cls][1]()
    shown = ", ".join(f"{name}={value!r}" for name, value in fields_of(record, cls).items())
    assert repr(record) == f"{cls.__name__}({shown})"


@by_name
def test_pickle_round_trip(cls):
    # a --workers pool carries classification reports (with their witnesses)
    # and each row kernel's records between processes
    record = RECORDS[cls][1]()
    back = pickle.loads(pickle.dumps(record))
    assert type(back) is cls and back == record


def test_witness_stays_read_only_through_pickle():
    witness = {"A": F7.one, "g": Poly.x(F7)}
    match = FormMatch(form="b", witness=witness)
    witness["A"] = F7.zero
    assert match.witness == {"A": F7.one, "g": Poly.x(F7)}
    for m in (match, pickle.loads(pickle.dumps(match))):
        assert type(m.witness) is MappingProxyType
        with pytest.raises(TypeError):
            m.witness["A"] = F7.zero


def test_oracle_result_prints_its_verdict():
    assert str(OracleResult(True, 3, 4)) == "CertifiedNot(3)"
    assert str(OracleResult(certified_not=False, level=None, depth=4)) == "ConsistentUpTo(4)"


@pytest.mark.parametrize("settings, message", [
    ({"degree": 0}, "degree must be at least 1, got 0"),
    ({"degree": -1}, "degree must be at least 1, got -1"),
    ({"degree": 2, "workers": 0}, "workers must be at least 1, got 0"),
    ({"degree": 2, "sample": 0}, "sample size must be at least 1, got 0"),
])
def test_scan_config_refuses_unreadable_settings(settings, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        ScanConfig("7", **settings)


def test_scan_config_json_leaves_out_workers():
    cfg = ScanConfig("7", 2, sample=5, seed=1, workers=3)
    assert list(cfg.to_json().items()) == [
        ("field", "7"), ("degree", 2), ("sample", 5), ("seed", 1),
    ]


def test_replace_builds_as_the_constructor_does():
    with pytest.raises(ValueError, match="^workers must be at least 1, got 0$"):
        ScanConfig("7", 2)._replace(workers=0)
    witness = {"A": F7.zero}
    match = RECORDS[FormMatch][1]()._replace(witness=witness)
    witness["A"] = F7.one
    assert type(match.witness) is MappingProxyType and match.witness == {"A": F7.zero}
    table = RECORDS[OrbitTable][1]()
    assert table._replace(succ=list(table.succ)).derived == {}


def test_orbit_table_memo_is_per_table_and_not_compared():
    first, second = RECORDS[OrbitTable][1](), RECORDS[OrbitTable][1]()
    assert first.derived == {} and first.derived is not second.derived
    first.derived["key"] = 1
    assert first == second and second.derived == {}
    assert "derived" not in repr(first)
    assert pickle.loads(pickle.dumps(first)).derived == {"key": 1}
