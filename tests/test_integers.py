"""Every integer argument in qent passes one check, errors._integer: an
int or numpy integer, never a bool, float, string or None, within the
argument's range.  Anything else raises the entry point's QentError
subclass with a short message, and a numpy integer gives exactly the
result of the equal int.  No module but errors.py tests for an integer
type itself.
"""
import ast
import dataclasses
import pathlib

import numpy as np
import pytest

import qent
from qent import (
    ConfigError,
    DensityMatrix,
    DimensionMismatch,
    Ensemble,
    FamilyParams,
    IncompatibleInput,
    IndexOutOfRange,
    InputError,
    OutOfRange,
    Partition,
    PureState,
    SuiteConfig,
    apply_local_unitary,
    check,
    density_of,
    ghz,
    ghz_noise,
    ghz_noise_negativity,
    ghz_noise_nme_exact,
    ghz_noise_threshold,
    k_partitions,
    kme_concurrence_pure,
    kme_concurrence_stack,
    make_pure,
    negativity,
    one_tangle,
    random_ensemble,
    random_local_unitary,
    random_pure,
    w,
    w_kme_closed_form,
    w_two_tangle,
)
from qent.qstate import sites_tuple
from qent.verify import _random_rank2

PSI3 = random_pure(3, 9)
RANK2 = _random_rank2(2, 2, 16)
COEFFS = np.array([0.6, 0.48j, 0.64])

NON_INTEGERS = {"bool": True, "float": 2.5, "str": "2", "None": None}
BAD = {**NON_INTEGERS, "huge": 10**35}

# entry point -> (call of one integer argument, a valid value, the error, the bad values)
# ghz and w cap n at 14, as the GHZ + noise and W closed forms do, and
# ghz_noise at 12, so a huge n is refused before 2^n or 4^n entries are
# allocated; the cap of 14 alone would still allow 4^14 entries
TABLE = {
    "sites_tuple": (lambda v: sites_tuple(v, 3), 1, IndexOutOfRange, BAD),
    "sites_tuple set": (lambda v: sites_tuple([0, v], 3), 2, IndexOutOfRange, BAD),
    "PureState num_sites": (lambda v: PureState(np.eye(4)[1], v), 2, DimensionMismatch, BAD),
    "DensityMatrix num_sites": (lambda v: DensityMatrix(np.eye(4) / 4, v), 2, DimensionMismatch,
                                BAD),
    "make_pure num_sites": (lambda v: make_pure([1, 0, 0, 1], v), 2, DimensionMismatch, BAD),
    "apply_local_unitary site": (lambda v: apply_local_unitary(PSI3, v, np.eye(2)), 1,
                                 IndexOutOfRange, BAD),
    "one_tangle site": (lambda v: one_tangle(PSI3, v), 1, IndexOutOfRange, BAD),
    "negativity site": (lambda v: negativity(PSI3, v), 1, IndexOutOfRange, BAD),
    "kme_concurrence_pure k": (lambda v: kme_concurrence_pure(PSI3, v), 2, OutOfRange, BAD),
    "kme_concurrence_stack k": (lambda v: kme_concurrence_stack([PSI3, PSI3], v), 3, OutOfRange,
                                BAD),
    "k_partitions n": (lambda v: k_partitions(v, 2), 4, OutOfRange, BAD),
    "k_partitions k": (lambda v: k_partitions(4, v), 2, OutOfRange, BAD),
    "Partition site": (lambda v: Partition(((0,), (v,))), 1, IndexOutOfRange, NON_INTEGERS),
    "ghz n": (ghz, 3, OutOfRange, BAD),
    "w n": (w, 3, OutOfRange, BAD),
    "ghz_noise n": (lambda v: ghz_noise(v, 0.5), 3, OutOfRange, BAD),
    "ghz_noise_threshold n": (ghz_noise_threshold, 3, OutOfRange, BAD),
    "ghz_noise_negativity n": (lambda v: ghz_noise_negativity(v, 0.5), 3, OutOfRange, BAD),
    "ghz_noise_nme_exact n": (lambda v: ghz_noise_nme_exact(v, 0.9), 3, OutOfRange, BAD),
    "w_kme_closed_form n": (lambda v: w_kme_closed_form(v, 2), 4, OutOfRange, BAD),
    "w_kme_closed_form k": (lambda v: w_kme_closed_form(4, v), 3, OutOfRange, BAD),
    "w_two_tangle i": (lambda v: w_two_tangle(COEFFS, v, 3), 1, OutOfRange, BAD),
    "w_two_tangle j": (lambda v: w_two_tangle(COEFFS, 1, v), 2, OutOfRange, BAD),
    "FamilyParams family_id": (FamilyParams, 5, OutOfRange, BAD),
    "random_pure n": (lambda v: random_pure(v, 1), 3, OutOfRange, BAD),
    "random_pure seed": (lambda v: random_pure(2, v), 5, OutOfRange, NON_INTEGERS),
    "random_ensemble n": (lambda v: random_ensemble(v, 2, 1), 2, OutOfRange, BAD),
    "random_ensemble rank": (lambda v: random_ensemble(2, v, 1), 3, OutOfRange, BAD),
    "random_local_unitary seed": (random_local_unitary, 4, OutOfRange, NON_INTEGERS),
    "check R3 n": (lambda v: check("R3", (v, 0.5)), 3, IncompatibleInput, NON_INTEGERS),
    "check R3 n cap": (lambda v: check("R3", (v, 0.5)), 3, OutOfRange, {"huge": 10**35}),
    "check R8 n": (lambda v: check("R8", ("w_kme", v)), 4, IncompatibleInput, NON_INTEGERS),
    "check R8 n cap": (lambda v: check("R8", ("w_kme", v)), 4, OutOfRange, {"huge": 10**35}),
    "check R9 site": (lambda v: check("R9", (RANK2, (v,))), 1, IncompatibleInput, BAD),
    "SuiteConfig seed": (SuiteConfig, 3, ConfigError, NON_INTEGERS),
    **{
        f"SuiteConfig {rel} {key}": (
            lambda v, rel=rel, key=key, wrap=wrap: SuiteConfig(relations={rel: {key: wrap(v)}}),
            valid, ConfigError, BAD,
        )
        for rel, key, valid, wrap in [
            ("R1", "samples", 2, lambda v: v),
            ("R3", "t_points", 3, lambda v: v),
            ("R3", "random_t", 1, lambda v: v),
            ("R7", "random_points", 1, lambda v: v),
            ("R1", "sizes", 3, lambda v: [2, v]),
            ("R2", "ranks", 3, lambda v: [v]),
            ("R7", "families", 6, lambda v: [v]),
            ("R9", "cuts", 2, lambda v: [[1, 1], [v, 1]]),
        ]
    },
}


def _canon(x):
    """x as nested tuples of type names and exact values: two results are
    equal only if they agree bit for bit and in every type."""
    if dataclasses.is_dataclass(x):
        fields = (f.name for f in dataclasses.fields(x) if f.compare)
        return (type(x).__name__,) + tuple(_canon(getattr(x, name)) for name in fields)
    if isinstance(x, np.ndarray):
        return ("ndarray", x.dtype.str, x.shape, x.tobytes())
    if isinstance(x, dict):
        return ("dict",) + tuple((_canon(k), _canon(v)) for k, v in x.items())
    if isinstance(x, (list, tuple)):
        return (type(x).__name__,) + tuple(_canon(v) for v in x)
    return (type(x).__name__, repr(x))


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
    pytest.param(call, valid, id=name)
    for name, (call, valid, _, _) in TABLE.items()
    if "cap" not in name
])
def test_numpy_integer_gives_the_int_result(call, valid):
    assert _canon(call(np.int64(valid))) == _canon(call(valid))


@pytest.mark.parametrize("tol", [float("nan"), -1.0, 0.0, float("inf"), 10**400, True, "1e-3"])
def test_check_takes_tol_by_the_suite_config_rule(tol):
    with pytest.raises(IncompatibleInput):
        check("R1", random_pure(2, 1), tol)
    with pytest.raises(ConfigError):
        SuiteConfig(relations={"R1": {"tolerance": tol}})


@pytest.mark.parametrize("tol", [1, np.int64(1), 1e-3, np.float64(1e-3)])
def test_tol_accepted_by_both(tol):
    (row,) = check("R1", random_pure(2, 1), tol)
    assert row.tolerance == tol
    assert SuiteConfig(relations={"R1": {"tolerance": tol}})


TWO_QUBITS = (random_pure(2, 1), random_pure(2, 2))


@pytest.mark.parametrize("weights,states", [
    ((0.5, 0.5), (random_pure(2, 1), random_pure(3, 2))),
    ((0.5, 0.5), (TWO_QUBITS[0], density_of(TWO_QUBITS[1]))),
    ((float("nan"), 1.0), TWO_QUBITS),
    ((float("inf"), 1.0), TWO_QUBITS),
    (("a", 1.0), TWO_QUBITS),
    ((0.5j, 0.5), TWO_QUBITS),
    ((None, 1.0), TWO_QUBITS),
    ((10**400, 1.0), TWO_QUBITS),
    (1.0, TWO_QUBITS[:1]),
    ((1.0,), TWO_QUBITS[0]),
], ids=["two-sizes", "density", "nan", "inf", "str", "complex", "None", "huge", "scalar weight",
        "bare state"])
def test_ensemble_refuses_what_it_cannot_mix(weights, states):
    with pytest.raises(InputError) as info:
        Ensemble(weights, states)
    assert len(str(info.value)) < 80, str(info.value)


@pytest.mark.parametrize("value", ["a", None, [1.0], 10**400, float("nan"), complex("inf")])
def test_family_parameter_must_be_a_finite_number(value):
    with pytest.raises(OutOfRange) as info:
        FamilyParams(1, value)
    assert len(str(info.value)) < 80, str(info.value)


def _name(node) -> str:
    if isinstance(node, ast.Name):
        return node.id
    return node.attr if isinstance(node, ast.Attribute) else ""


def _integer_tests(source: str) -> list[int]:
    """Lines of `source` that test for an integer type themselves:
    isinstance(..., int), isinstance(..., np.integer) or numbers.Integral."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if _name(node) == "Integral":
            lines.append(node.lineno)
        elif isinstance(node, ast.Call) and _name(node.func) == "isinstance":
            if any(_name(sub) in ("int", "integer") for sub in ast.walk(node.args[-1])):
                lines.append(node.lineno)
    return lines


SOURCES = pathlib.Path(qent.__file__).parent


@pytest.mark.parametrize("module", sorted(p.name for p in SOURCES.glob("*.py")))
def test_only_errors_tests_for_an_integer_type(module):
    found = _integer_tests((SOURCES / module).read_text(encoding="utf-8"))
    assert bool(found) == (module == "errors.py"), f"{module} lines {found}"


@pytest.mark.parametrize("snippet,found", [
    ("isinstance(x, int)", True),
    ("isinstance(x, (float, int))", True),
    ("isinstance(x, np.integer)", True),
    ("isinstance(x, numbers.Integral)", True),
    ("ok = x in Integral", True),
    ("isinstance(x, bool) or int(x)", False),
    ("isinstance(x, (numbers.Real, PureState))", False),
])
def test_integer_test_finder(snippet, found):
    assert bool(_integer_tests(snippet)) == found
