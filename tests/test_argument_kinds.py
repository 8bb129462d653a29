"""Every argument of a qent-typed kind passes one check, errors._kind:
an instance of the class it names, or the entry point's QentError with
"need ..., got <type>".  A probe calls every public callable with wrong
values and accepts only a return or a QentError, so a new public name is
covered as soon as qent exports it.  No module but errors.py raises
after an `if not isinstance(...)` test of its own.
"""
import ast
import inspect
import itertools
import math

import numpy as np
import pytest

import qent
from qent import (
    ClosedFormPrediction,
    ConfigError,
    IncompatibleInput,
    InputError,
    MeasureReport,
    NegativityProfile,
    OutOfDomain,
    Partition,
    QentError,
    RelationCheckResult,
    RelationId,
    SchmidtSpectrum,
    SuiteReport,
    ghz,
    invariants3,
    invariants4,
    kme_from_invariants3,
    random_mixed,
    random_pure,
)
from test_integers import SOURCES, _name

PSI3, PSI4 = random_pure(3, 0), random_pure(4, 0)
# what the probe passes, in every combination, as each required positional argument
WRONG = {
    "None": None, "3": 3, "-1": -1, "str": "x", "1.5": 1.5, "nan": float("nan"), "list": [],
    "dict": {}, "pair": (1, 2), "array": np.ones(3), "pure3": PSI3, "pure4": PSI4,
    "density2": random_mixed(2, 2, 0), "inv3": invariants3(PSI3), "inv4": invariants4(PSI4),
    "bool": True, "huge": 10**30,
}
EXEMPT = {
    # Python's Enum constructor raises its own ValueError; check() is the
    # entry point for relation names and refuses an unknown one with a QentError
    "RelationId": "Enum lookup",
    # file I/O raises OSError for a path that cannot be opened
    "save_state": "file I/O",
    "load_state": "file I/O",
}


def _required(fn) -> int:
    """The number of required positional parameters of fn."""
    return sum(p.default is p.empty and p.kind in (p.POSITIONAL_ONLY, p.POSITIONAL_OR_KEYWORD)
               for p in inspect.signature(fn).parameters.values())


PROBED = sorted(
    name for name in dir(qent)
    if not name.startswith("_") and name not in EXEMPT and callable(obj := getattr(qent, name))
    and not (isinstance(obj, type) and issubclass(obj, BaseException))
    and 1 <= _required(obj) <= 3
)


def test_probe_covers_the_public_names():
    assert {"MeasureReport", "kme_from_invariants3", "run_suite", "slocc_family"} <= set(PROBED)
    assert len(PROBED) > 50


@pytest.mark.parametrize("name", PROBED)
def test_wrong_values_return_or_raise_a_qent_error(name):
    fn = getattr(qent, name)
    escaped = []
    for args in itertools.product(WRONG, repeat=_required(fn)):
        try:
            got = fn(*(WRONG[a] for a in args))
        except QentError:
            continue
        except Exception as exc:  # anything else escapes the one error class
            escaped.append(f"{name}({', '.join(args)}): {type(exc).__name__}: {exc}")
            continue
        if isinstance(got, float) and not math.isfinite(got):
            escaped.append(f"{name}({', '.join(args)}) returned {got}")
    assert escaped == [], "\n".join(escaped[:10])


@pytest.mark.parametrize("call,error,message", [
    # a four-qubit state's invariants read as three-qubit ones gave (0.9999999999999999, 0.0)
    (lambda: kme_from_invariants3(invariants4(ghz(4))), IncompatibleInput,
     "need Invariants3, got Invariants4"),
    (lambda: qent.tangles_from_invariants3(invariants4(ghz(4)), 0.1), IncompatibleInput,
     "need Invariants3, got Invariants4"),
    (lambda: qent.kme_from_invariants4(invariants3(ghz(3))), IncompatibleInput,
     "need Invariants4, got Invariants3"),
    (lambda: qent.slocc_family(PSI3), IncompatibleInput, "need FamilyParams, got PureState"),
    (lambda: qent.family_closed_forms(1), IncompatibleInput, "need FamilyParams, got int"),
    (lambda: qent.run_suite({"seed": 7}), ConfigError, "need a SuiteConfig, got dict"),
], ids=["kme3_of_inv4", "tangles3_of_inv4", "kme4_of_inv3", "slocc_of_state", "closed_of_id",
        "suite_of_dict"])
def test_an_argument_of_another_kind_is_refused(call, error, message):
    with pytest.raises(error, match=message):
        call()


@pytest.mark.parametrize("build", [
    lambda: MeasureReport(None, 0.5, None),
    lambda: MeasureReport("C_2-ME", float("nan"), None),
    lambda: MeasureReport("C_2-ME", -0.1, None),
    lambda: MeasureReport("C_2-ME", "0.5", None),
    lambda: MeasureReport("C_2-ME", 0.5, ((0,), (1,))),
    lambda: NegativityProfile(None),
    lambda: NegativityProfile((0.5, float("nan"))),
    lambda: NegativityProfile((1.5,)),
    lambda: NegativityProfile(("0.5",)),
    lambda: SchmidtSpectrum(None),
    lambda: SchmidtSpectrum(3),
    lambda: SchmidtSpectrum((0.5j, 0.5)),
    lambda: SchmidtSpectrum(((0.5, 0.5),)),
    # SuiteReport(None).to_csv() ended in TypeError and SuiteReport((3,)).to_csv() in AttributeError
    lambda: SuiteReport(None),
    lambda: SuiteReport((3,)),
    lambda: SuiteReport([_row()]),
    # a str relation was kept, and to_csv() ended in AttributeError
    lambda: _row(relation="R1"),
    lambda: _row(state_descriptor=None),
    lambda: _row(lhs=float("nan")),
    lambda: _row(rhs="0.5"),
    lambda: _row(residual=-1e-3),
    lambda: _row(tolerance=None),
    lambda: _row(verdict="maybe"),
    lambda: _row(verdict=np.ones(3)),
    lambda: _row(condition_note=3),
], ids=["name", "nan", "negative", "str_value", "raw_blocks", "profile_none", "profile_nan",
        "profile_above_1", "profile_str", "schmidt_none", "schmidt_int", "schmidt_complex",
        "schmidt_2d", "report_none", "report_int_row", "report_list", "row_str_relation",
        "row_descriptor_none", "row_nan", "row_str_value", "row_negative_residual",
        "row_tolerance_none", "row_unknown_verdict", "row_array_verdict", "row_int_note"])
def test_a_result_built_directly_is_checked(build):
    with pytest.raises(InputError):
        build()


def _row(**fields):
    """A RelationCheckResult of valid fields but those given."""
    valid = {"relation": RelationId.R1, "state_descriptor": "d", "lhs": 0.5, "rhs": 0.5,
             "residual": 0.0, "tolerance": 1e-9, "verdict": "pass", "condition_note": ""}
    return RelationCheckResult(**{**valid, **fields})


def test_a_suite_report_built_directly_keeps_python_numbers():
    row = _row(lhs=np.float64(0.5), rhs=1, residual=np.float32(0.5))
    assert (row.lhs, row.rhs, row.residual) == (0.5, 1.0, 0.5)
    assert all(type(v) is float for v in (row.lhs, row.rhs, row.residual, row.tolerance))
    report = SuiteReport((row, _row(verdict="fail")))
    assert report.exit_code == 1 and report.to_csv().count("\n") == 3
    assert SuiteReport(()).to_csv().count("\n") == 1


def test_a_result_built_directly_keeps_python_numbers():
    report = MeasureReport("C_2-ME", np.float64(0.5), Partition(((0,), (1,))))
    assert type(report.value) is float and report.value == 0.5
    profile = NegativityProfile([np.float64(0.25), 0])
    assert profile.per_site == (0.25, 0.0) and all(type(v) is float for v in profile.per_site)
    assert SchmidtSpectrum([0.75, np.float64(0.25)]).coefficients == (0.75, 0.25)


@pytest.mark.parametrize("field,value", [
    ("c2", 1.5), ("c3", -0.1), ("c4", float("nan")), ("negativities", (0, 0, 0, 1.1)),
    ("c2_min_negativity", "maybe"),
    ("c2", None), ("c3", "0.5"), ("negativities", None), ("negativities", (0.5,) * 3),
    ("condition_margin", "x"),
])
def test_closed_form_out_of_range_is_out_of_domain(field, value):
    fields = {"c2": 0.5, "c3": 0.5, "c4": 0.5, "negativities": (0.5,) * 4,
              "c2_min_negativity": "holds", "condition_margin": None}
    ClosedFormPrediction(**fields)
    with pytest.raises(OutOfDomain):
        ClosedFormPrediction(**{**fields, field: value})


def test_closed_form_keeps_python_numbers():
    pred = ClosedFormPrediction(np.float64(0.5), 1, 0.5, [np.float64(0.25)] * 4, "fails", -1)
    values = (pred.c2, pred.c3, *pred.negativities, pred.condition_margin)
    assert values == (0.5, 1.0, 0.25, 0.25, 0.25, 0.25, -1.0)
    assert all(type(v) is float for v in values)


def _own_kind_tests(source: str) -> list[int]:
    """Lines of `source` with an `if not isinstance(...)` test whose block raises."""
    return [
        node.lineno for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.If) and isinstance(node.test, ast.UnaryOp)
        and isinstance(node.test.op, ast.Not) and isinstance(node.test.operand, ast.Call)
        and _name(node.test.operand.func) == "isinstance"
        and any(isinstance(sub, ast.Raise) for stmt in node.body for sub in ast.walk(stmt))
    ]


@pytest.mark.parametrize("module", sorted(p.name for p in SOURCES.glob("*.py")))
def test_only_errors_refuses_a_kind_itself(module):
    found = _own_kind_tests((SOURCES / module).read_text(encoding="utf-8"))
    assert module == "errors.py" or found == [], f"{module} lines {found}"


@pytest.mark.parametrize("snippet,found", [
    ("if not isinstance(x, A):\n    raise E()", True),
    ("if a:\n    pass\nelif not isinstance(x, (A, B)):\n    raise E()", True),
    ("if not isinstance(x, A):\n    if y:\n        raise E()", True),
    ("if not isinstance(x, A):\n    x = A(x)", False),
    ("if isinstance(x, A):\n    raise E()", False),
    ("if not (isinstance(x, A) and len(x) == 2):\n    raise E()", False),
    ("if not isinstance(x, A) or not x:\n    raise E()", False),
])
def test_kind_test_finder(snippet, found):
    assert bool(_own_kind_tests(snippet)) == found
