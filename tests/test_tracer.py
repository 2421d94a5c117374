"""perfbench's span tracer and call counters, installed on this package: every
name they look up still resolves, and undo restores the package.  spans.py
imports only the standard library, so it is loaded by file path."""

import importlib.util
from pathlib import Path

import orbitsquares
import orbitsquares.cli  # noqa: F401  (the tracer wraps the CLI and scan drivers too)
import orbitsquares.scan  # noqa: F401
from orbitsquares.field import FieldSpec, make_field
from orbitsquares.fpoly import Poly

SPANS = Path(orbitsquares.__file__).parents[2] / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_and_counters_install_run_and_undo():
    spans = load_spans()
    F5 = make_field(5)
    f = Poly.from_ints(F5, [1, 2, 0, 1])
    before = (orbitsquares.classify_2_ordinary, Poly.pow_mod, FieldSpec.add_i)
    tracer = spans.Tracer()
    tracer.install()
    try:
        orbitsquares.classify_2_ordinary(f)
        orbitsquares.oracle_2_ordinary(f, 2, seed=0, budget=4096)
    finally:
        tracer.undo()
    per_name, factor_in_classify = tracer.summary()
    assert per_name["classify.classify_2_ordinary"][0] == 1
    assert per_name["classify.oracle_2_ordinary"][0] == 1
    assert factor_in_classify == 0
    looked_up = {"fpoly.factor", "fpoly.pow_mod", "fpoly.compose", *spans.EMIT_FUNCTIONS,
                 *tracer.unique_args}
    assert looked_up <= set(tracer.names)

    counters = spans.Counters()
    counters.install()
    try:
        f.evaluate(F5.from_int(3))
    finally:
        counters.undo()
    assert counters.snapshot()["Poly.eval_i"] == 1
    assert (orbitsquares.classify_2_ordinary, Poly.pow_mod, FieldSpec.add_i) == before
