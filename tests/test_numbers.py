"""Every real and complex argument in qent passes one check in errors.py:
_real (a visibility t, a tolerance, a weight, an R7 grid value, an
invariant, a three-tangle given to tangles_from_invariants3),
_complex (a family parameter) or _complex_array (amplitudes, matrix
entries, a local unitary, W-class coefficients, the raw matrix of purity
and hermitian_eigenvalues).  Each takes a Python or numpy number, never
a bool (not even among numbers in a list), string or None, and never NaN
or Inf; a real argument refuses a complex number too.  Anything else raises the entry
point's QentError subclass with a short message, and a numpy number
gives exactly the result of the equal Python number.  No module but
errors.py imports numbers or cmath or tests for a float or complex type.
"""
import ast

import numpy as np
import pytest

from qent import (
    ConfigError,
    DensityMatrix,
    Ensemble,
    FamilyParams,
    IncompatibleInput,
    InputError,
    Invariants3,
    Invariants4,
    OutOfDomain,
    OutOfRange,
    PureState,
    SuiteConfig,
    apply_local_unitary,
    check,
    family_closed_forms,
    ghz_noise,
    ghz_noise_negativity,
    ghz_noise_nme_exact,
    hermitian_eigenvalues,
    kme_from_invariants3,
    kme_from_invariants4,
    make_pure,
    purity,
    random_pure,
    run_suite,
    tangles_from_invariants3,
    w_class,
    w_two_tangle,
)
from qent.qstate import clamped_sqrt
from test_integers import SOURCES, _canon, _name

PSI2 = random_pure(2, 1)
INV3 = Invariants3(1.0, (1.0, 0.5, 0.5, 0.5))
BAD = {"bool": True, "str": "0.5", "None": None, "nan": float("nan"), "inf": float("inf"),
       "huge": 10**400}
NOT_REAL = {**BAD, "complex": 1j}
NOT_TOLERANCE = {**{k: v for k, v in NOT_REAL.items() if k != "None"}, "zero": 0.0}  # None: default


def _r7(value):
    """The CSV report of R7 on one family-6 grid point: a config keeps its grids
    as given, and the suite turns them into parameters."""
    spec = {"families": [6], "random_points": 0, "grids": {"6": [[value]]}}
    return run_suite(SuiteConfig(relations={"R7": spec})).to_csv()


# entry point -> (call of one number, a valid value, the error, the bad values); an
# array entry point gets an array whose every entry (or diagonal entry) is the number
TABLE = {
    "ghz_noise t": (lambda v: ghz_noise(3, v), 0.5, OutOfRange, NOT_REAL),
    "ghz_noise_negativity t": (lambda v: ghz_noise_negativity(3, v), 0.5, OutOfRange, NOT_REAL),
    "ghz_noise_nme_exact t": (lambda v: ghz_noise_nme_exact(3, v), 0.9, OutOfDomain, NOT_REAL),
    "check R3 t": (lambda v: check("R3", (3, v)), 0.9, IncompatibleInput, NOT_REAL),
    "check tol": (lambda v: check("R1", PSI2, v), 1e-3, IncompatibleInput, NOT_TOLERANCE),
    "SuiteConfig tolerance": (lambda v: SuiteConfig(relations={"R1": {"tolerance": v}}), 1e-3,
                              ConfigError, NOT_TOLERANCE),
    "SuiteConfig tangle_tolerance": (
        lambda v: SuiteConfig(relations={"R5": {"tangle_tolerance": v}}), 1e-3, ConfigError,
        NOT_TOLERANCE),
    "Ensemble weight": (lambda v: Ensemble((v, 0.5), (PSI2, PSI2)), 0.5, InputError, NOT_REAL),
    "R7 grid value": (_r7, 0.5, ConfigError, NOT_REAL),
    "R7 grid pair": (lambda v: _r7([0.5, v]), 0.5, ConfigError, NOT_REAL),
    "FamilyParams a": (lambda v: family_closed_forms(FamilyParams(5, v)), 0.5 - 0.5j, OutOfRange,
                       BAD),
    "FamilyParams d": (lambda v: family_closed_forms(FamilyParams(1, 1, 0, 0, v)), 0.5j,
                       OutOfRange, BAD),
    "PureState amplitudes": (lambda v: PureState([v, v], 1), 0.5**0.5, InputError, BAD),
    "PureState amplitude beside a number": (lambda v: PureState([v, 0], 1), 1.0, InputError,
                                            BAD),
    "DensityMatrix entries": (lambda v: DensityMatrix([[v, v], [v, v]], 1), 0.5, InputError,
                              BAD),
    "make_pure amplitudes": (lambda v: make_pure([v, v], 1), 1j, InputError, BAD),
    "make_pure amplitude beside a number": (lambda v: make_pure([1, v], 1), 1j, InputError, BAD),
    "purity matrix": (lambda v: purity([[v, 0], [0, v]]), 0.5, InputError, BAD),
    "hermitian_eigenvalues matrix": (lambda v: hermitian_eigenvalues([[v, 0], [0, v]]), 0.5,
                                     InputError, BAD),
    "apply_local_unitary u": (lambda v: apply_local_unitary(PSI2, 0, np.diag([v, v])), 1j,
                              InputError, BAD),
    "w_class coefficients": (lambda v: w_class([v, v, v]), 2.0, InputError, BAD),
    "w_two_tangle coefficients": (lambda v: w_two_tangle([v, v, v], 1, 2), 2.0, InputError, BAD),
    "check R8 coefficients": (lambda v: check("R8", ("w_two_tangle", [v, v, v])), 2.0,
                              IncompatibleInput, BAD),
    "Invariants3 i2": (lambda v: kme_from_invariants3(Invariants3(v, INV3.i4)), 1.0, InputError,
                       NOT_REAL),
    "Invariants3 i4 entry": (lambda v: kme_from_invariants3(Invariants3(1.0, (1.0, v, 0.5, 0.5))),
                             0.5, InputError, NOT_REAL),
    "Invariants4 i2": (lambda v: kme_from_invariants4(Invariants4(v, (0.5,) * 7)), 1.0,
                       InputError, NOT_REAL),
    "Invariants4 i4 entry": (lambda v: kme_from_invariants4(Invariants4(1.0, (v,) + (0.5,) * 6)),
                             0.5, InputError, NOT_REAL),
    "tangles_from_invariants3 tau_abc": (lambda v: tangles_from_invariants3(INV3, v), 0.25,
                                         InputError, NOT_REAL),
}


@pytest.mark.parametrize("call,error,bad", [
    pytest.param(call, error, bad, id=f"{name}-{kind}")
    for name, (call, _, error, bads) in TABLE.items()
    for kind, bad in bads.items()
])
def test_refused_with_its_error_and_a_short_message(call, error, bad):
    with pytest.raises(error) as info:
        call(bad)
    assert type(info.value) is error
    assert len(str(info.value)) < 80, str(info.value)


@pytest.mark.parametrize("call,valid", [
    pytest.param(call, valid, id=name) for name, (call, valid, _, _) in TABLE.items()
])
def test_numpy_number_gives_the_python_result(call, valid):
    numpy_valid = np.asarray(valid)[()]  # np.float64 or np.complex128
    assert type(numpy_valid) is not type(valid)
    assert _canon(call(numpy_valid)) == _canon(call(valid))


@pytest.mark.parametrize("entries", [[True, False], ["1", "0"], [object(), 1], [[1, 0], [1]]],
                         ids=["bool", "str", "object", "ragged"])
def test_an_amplitude_list_of_what_is_not_a_number_is_refused(entries):
    with pytest.raises(InputError):
        PureState(entries, 1)


@pytest.mark.parametrize("build", [
    lambda: Invariants3(0.0, INV3.i4),
    lambda: Invariants4(-1.0, (0.5,) * 7),
    lambda: Invariants3(1.0, INV3.i4[:3]),
    lambda: Invariants4(1.0, INV3.i4),
    lambda: Invariants3(1.0, None),
    lambda: Invariants3(1.0, "abcd"),
], ids=["i2 zero", "i2 negative", "three i4", "four i4", "i4 None", "i4 str"])
def test_invariants_need_a_positive_i2_and_their_count_of_i4(build):
    with pytest.raises(InputError) as info:
        build()
    assert len(str(info.value)) < 80


def test_sqrt_below_its_clamp_floor_is_out_of_domain():
    assert clamped_sqrt(-1e-13) == 0.0
    with pytest.raises(OutOfDomain):
        clamped_sqrt(-1e-3)
    with pytest.raises(OutOfDomain):
        kme_from_invariants3(Invariants3(1.0, (1.0, 5, 5, 5)))


def test_w_two_tangle_survives_an_overflowing_norm():
    assert abs(w_two_tangle([1e200, 1e200, 0], 2, 3) - 1.0) < 1e-12
    rows = check("R8", ("w_two_tangle", [1e200, 1e200, 1]))
    assert [row.verdict for row in rows] == ["pass"] * 3


@pytest.mark.parametrize("coeffs", [[0.6, 0.48j, 0.64], [3, 4, 0, 1j]])
def test_w_two_tangle_unchanged_where_the_norm_is_finite(coeffs):
    c = np.asarray(coeffs, dtype=complex)
    c = c / float(np.linalg.norm(c))
    n = len(coeffs)
    assert w_two_tangle(coeffs, 1, n) == float(4.0 * abs(c[n - 1]) ** 2 * abs(c[0]) ** 2)


def _number_tests(source: str) -> list[int]:
    """Lines of `source` that import numbers or cmath, or test for a float
    or complex type with isinstance."""
    modules = ("numbers", "cmath")
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found = any(alias.name in modules for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            found = node.module in modules
        elif isinstance(node, ast.Call) and _name(node.func) == "isinstance":
            found = any(_name(sub) in ("float", "complex") for sub in ast.walk(node.args[-1]))
        else:
            found = False
        if found:
            lines.append(node.lineno)
    return lines


@pytest.mark.parametrize("module", sorted(p.name for p in SOURCES.glob("*.py")))
def test_only_errors_tests_for_a_number_type(module):
    found = _number_tests((SOURCES / module).read_text(encoding="utf-8"))
    assert bool(found) == (module == "errors.py"), f"{module} lines {found}"


@pytest.mark.parametrize("snippet,found", [
    ("import numbers", True),
    ("import cmath, math", True),
    ("from numbers import Real", True),
    ("isinstance(x, float)", True),
    ("isinstance(x, (complex, np.complexfloating))", True),
    ("isinstance(x, (int, float))", True),
    ("import math", False),
    ("from .errors import _real", False),
    ("isinstance(x, (list, tuple))", False),
    ("float(x)", False),
])
def test_number_test_finder(snippet, found):
    assert bool(_number_tests(snippet)) == found
