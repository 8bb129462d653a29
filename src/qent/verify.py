"""Relation-verification harness.

Each RelationId names one quantitative relation among the measures.  A
case is a (payload, descriptor) pair.  A relation's checker is a plain
function from a list of trusted payloads to one list of bare rows
(label, lhs, rhs, row options) per payload; it only computes, and knows
neither its relation, the cases' descriptors nor any tolerance.
Checkers take k-ME for all their payloads from one
measures.kme_concurrence_stack call per k.  _run_group() is the only
dispatch: it resolves the tolerances and calls the checker, and
_run_case() stamps each case's rows with the relation and the
descriptor joined to the row's label; _row() alone judges a row against
its tolerance.  check() evaluates one relation
on one payload, a group of one, once _admit(), its only door, has
checked and capped the payload and made its case.  run_suite() drives a
configurable batch over fixed anchor states plus seeded random families
through the same dispatch, serially, streaming in groups the cases of
each relation's _RELATIONS entry, and aggregates a deterministic report.
Its SuiteConfig is checked in full when built, so a case generator only
generates cases, as run_suite asks for them.

Relations:
    R1  pure n-qubit identity: C_n-ME equals the negativity quadratic mean
    R2  mixed lower bound: ensemble-averaged C_n-ME >= the quadratic mean
    R3  GHZ + white noise: exact C_n-ME value and per-site negativities
    R4  3-qubit: C_2-ME = min N^p and C_3-ME = rms of N^p
    R5  3-qubit invariants: C_2/C_3 formulas, invariant two-tangles, the
        tangle form of C_3-ME
    R6  4-qubit invariant formulas for C_2/C_3/C_4
    R7  per-family closed forms and the conditional C_2-ME = min N^p
    R8  W states: k-ME closed form and the pair two-tangle product form
    R9  Schmidt-rank-2 cuts: negativity equals concurrence

R1-R4 and R7 take negativity from the partial transpose of the density
matrix (measures.transposed_profile), never from negativity_profile:
for a pure state its factored route works from psi's Schmidt data, the
same data k-ME is computed from, so R1 would compare two functions of
one computation.
"""
from __future__ import annotations

import copy
import csv
import io
import itertools
import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, NamedTuple, Optional, Union

import numpy as np

from .errors import (ConfigError, IncompatibleInput, InputError, _complex_array, _integer,
                     _json_object, _kind, _real, brief)
from .families import (
    FAMILY_LABELS,
    FAMILY_PARAM_COUNTS,
    FamilyParams,
    default_parameter_grid,
    family_closed_forms,
    ghz,
    ghz_noise,
    ghz_noise_negativity,
    ghz_noise_nme_exact,
    ghz_noise_threshold,
    slocc_family,
    w,
    w_class,
    w_kme_closed_form,
    w_two_tangle,
)
from .invariants import (
    invariants3,
    invariants4,
    kme_from_invariants3,
    kme_from_invariants4,
    tangles_from_invariants3,
)
from .measures import (
    _pair_tangle,
    kme_concurrence_stack,
    linear_entropy_pure,
    quadratic_mean,
    three_tangle,
    transposed_profile,
)
from .qstate import (
    DensityMatrix,
    PureState,
    _pure,
    _trusted,
    clamped_sqrt,
    hermitian_eigenvalues,
    partial_transpose_sites,
    schmidt_weights,
)

TOL_EQUALITY = 1e-9
TOL_TANGLE = 1e-8
TOL_FAMILY = 1e-8

# most qubits of a random suite state, a `sizes` entry, an R9 cut (na + nb)
# or a check() payload
SUITE_MAX_SITES = 8
# most cases one suite count (samples, t_points, random_t, random_points),
# R7 family grid or `qent verify --grid` axis may ask for
SUITE_MAX_COUNT = 10_000
# most consecutive cases of one relation run_suite gives one checker call
SUITE_GROUP_CASES = 64

VERDICT_PASS = "pass"
VERDICT_FAIL = "fail"
VERDICT_INEQ = "inequality-satisfied"
VERDICT_SKIP = "skip"
_VERDICTS = (VERDICT_PASS, VERDICT_FAIL, VERDICT_INEQ, VERDICT_SKIP)

# format of every float in the report CSV, 17 digits so that it reads back exactly
CSV_PRECISION = ".17g"
# columns of the report CSV, shared with `qent measure --csv`
CSV_HEADER = [
    "relation",
    "state_descriptor",
    "lhs",
    "rhs",
    "residual",
    "tolerance",
    "verdict",
    "condition_note",
]


def _csv_text(rows) -> str:
    """CSV_HEADER then `rows`, one line each, as report CSV text."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    writer.writerows(rows)
    return buf.getvalue()


@dataclass(frozen=True)
class RelationCheckResult:
    """One report row: finite lhs and rhs, a residual and tolerance >= 0
    and one of the four VERDICT_* values; built directly, InputError for
    anything else."""

    relation: RelationId
    state_descriptor: str
    lhs: float
    rhs: float
    residual: float
    tolerance: float
    verdict: str
    condition_note: str = ""

    def __post_init__(self):
        _kind(self.relation, RelationId, "a RelationId", InputError)
        _kind(self.state_descriptor, str, "a state descriptor string", InputError)
        for name, lo in (("lhs", None), ("rhs", None), ("residual", 0.0), ("tolerance", 0.0)):
            object.__setattr__(self, name, _real(getattr(self, name), name, lo, error=InputError))
        if _kind(self.verdict, str, "a verdict string", InputError) not in _VERDICTS:
            raise InputError(f"verdict must be one of {', '.join(_VERDICTS)}, "
                             f"got {brief(self.verdict)}")
        _kind(self.condition_note, str, "a condition note string", InputError)


@dataclass(frozen=True)
class Ensemble:
    """Explicit convex mixture of pure states with its weights retained."""

    weights: tuple[float, ...]
    states: tuple[PureState, ...]

    def __post_init__(self):
        try:
            matching = 0 < len(self.states) == len(self.weights)
        except TypeError:  # weights or states that are not sequences
            matching = False
        if not matching:
            raise InputError("ensemble needs matching, non-empty weights and states")
        sizes = {psi.num_sites if isinstance(psi, PureState) else None for psi in self.states}
        if None in sizes or len(sizes) > 1:
            raise InputError("ensemble states must be pure states of one qubit count")
        # each weight in [0, 1] up to rounding
        weights = tuple(_real(p, "weight", -1e-12, 1 + 1e-9, InputError) for p in self.weights)
        object.__setattr__(self, "weights", weights)
        if abs(sum(self.weights) - 1.0) > 1e-9:
            raise InputError(f"ensemble weights sum to {sum(self.weights)}")

    @property
    def num_sites(self) -> int:
        return self.states[0].num_sites

    def density(self) -> DensityMatrix:
        n = self.num_sites
        m = np.zeros((2**n, 2**n), dtype=complex)
        for p, psi in zip(self.weights, self.states):
            m += p * np.outer(psi.amplitudes, psi.amplitudes.conj())
        return _trusted(DensityMatrix, m, n)


def _rng(seed: int) -> np.random.Generator:
    """default_rng(seed); OutOfRange unless seed is a non-negative integer."""
    return np.random.default_rng(_integer(seed, "seed", 0))


def _complex_normal(rng: np.random.Generator, shape) -> np.ndarray:
    """Complex array of `shape` with standard normal real then imaginary parts."""
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


def _unit_state(v: np.ndarray, n: int) -> PureState:
    """The PureState of v / ||v|| for a nonzero complex vector v that qent drew."""
    return _trusted(PureState, v / np.linalg.norm(v), n)


def random_pure(n: int, seed: int) -> PureState:
    """Haar-like random pure state from a seeded complex-normal vector."""
    n = _integer(n, "n", 1, SUITE_MAX_SITES)
    return _unit_state(_complex_normal(_rng(seed), 2**n), n)


def random_ensemble(n: int, rank: int, seed: int) -> Ensemble:
    """Random convex mixture of `rank` random pure states with Dirichlet
    weights, fully reproducible from `seed`."""
    n = _integer(n, "n", 1, SUITE_MAX_SITES)
    rank = _integer(rank, "rank", 1, 2**n)
    rng = _rng(seed)
    states = tuple(_unit_state(_complex_normal(rng, 2**n), n) for _ in range(rank))
    return Ensemble(tuple(rng.dirichlet(np.ones(rank))), states)


def random_mixed(n: int, rank: int, seed: int) -> DensityMatrix:
    """Density matrix of random_ensemble(n, rank, seed)."""
    return random_ensemble(n, rank, seed).density()


def random_local_unitary(seed: int) -> np.ndarray:
    """Haar-random 2x2 unitary (QR of a complex-normal matrix)."""
    q, r = np.linalg.qr(_complex_normal(_rng(seed), (2, 2)) / np.sqrt(2.0))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _row(relation: RelationId, desc: str, lhs: float, rhs: float, tols: tuple[float, float],
         inequality: bool = False, note: str = "", skip: bool = False,
         tangle: bool = False) -> RelationCheckResult:
    """The report row of one comparison: tols is the (tol, tangle_tol)
    pair, and a tangle row takes the second."""
    tol = tols[tangle]
    residual = max(0.0, rhs - lhs) if inequality else abs(lhs - rhs)
    if skip:
        verdict = VERDICT_SKIP
        if residual <= tol:
            note += "; equality holds anyway"
    elif inequality:
        verdict = VERDICT_INEQ if lhs >= rhs - tol else VERDICT_FAIL
    else:
        verdict = VERDICT_PASS if residual <= tol else VERDICT_FAIL
    return _trusted(RelationCheckResult, relation, desc, float(lhs), float(rhs), float(residual),
                    float(tol), verdict, note)


# A checker is a plain function payloads -> one list of rows per
# payload.  Its payloads are the suite's own or admitted by _admit, so it
# only computes, and returns bare rows (label, lhs, rhs, options): the
# label is appended to the case's descriptor, and options are _row's
# keywords; _row applies the tolerances.


def _per_payload(checker: Callable) -> Callable:
    """A checker of payload lists from one that takes a single payload."""
    return lambda payloads: [checker(p) for p in payloads]


def _kme_values(states: list, ks: list) -> list[tuple[float, ...]]:
    """C_k-ME of states[i] for each k of ks[i], from one
    kme_concurrence_stack call per k."""
    values: list[dict] = [{} for _ in states]
    for k in sorted({k for wanted in ks for k in wanted}):
        at = [i for i, wanted in enumerate(ks) if k in wanted]
        for i, rep in zip(at, kme_concurrence_stack([states[i] for i in at], k)):
            values[i][k] = rep.value
    return [tuple(v[k] for k in wanted) for v, wanted in zip(values, ks)]


def _check_r1(payloads: list):
    kme = _kme_values(payloads, [(psi.num_sites,) for psi in payloads])
    return [
        [("", lhs, quadratic_mean(transposed_profile(psi).per_site), {})]
        for psi, (lhs,) in zip(payloads, kme)
    ]


def _check_r2(payloads: list):
    states = [psi for ens in payloads for psi in ens.states]
    kme = iter(_kme_values(states, [(ens.num_sites,) for ens in payloads for _ in ens.states]))
    out = []
    for ens in payloads:
        # zip stops at the last weight, so each ensemble takes its own states' values
        lhs = sum(p * value for p, (value,) in zip(ens.weights, kme))
        rhs = quadratic_mean(transposed_profile(ens.density()).per_site)
        out.append([("", lhs, rhs, {"inequality": True})])
    return out


def _check_r3(payload: tuple[int, float]):
    n, tvis = payload
    prof = transposed_profile(ghz_noise(n, tvis)).per_site
    rows = [("exact n-ME value", ghz_noise_nme_exact(n, tvis), quadratic_mean(prof), {})]
    pred = ghz_noise_negativity(n, tvis)
    return rows + [(f"negativity site {p}", pred, prof[p], {}) for p in range(n)]


def _check_r4(payloads: list):
    out = []
    for psi, (c2, c3) in zip(payloads, _kme_values(payloads, [(2, 3)] * len(payloads))):
        prof = transposed_profile(psi).per_site
        out.append([
            ("C2 = min N", c2, min(prof), {}),
            ("C3 = rms N", c3, quadratic_mean(prof), {}),
        ])
    return out


def _check_r5(payloads: list):
    out = []
    for psi, (c2d, c3d) in zip(payloads, _kme_values(payloads, [(2, 3)] * len(payloads))):
        inv = invariants3(psi)
        c2i, c3i = kme_from_invariants3(inv)
        tau3 = three_tangle(psi)
        pred = tangles_from_invariants3(inv, tau3)
        rows = [("C2 via invariants", c2i, c2d, {}), ("C3 via invariants", c3i, c3d, {})]
        direct_tangles = []
        for pair, name, lhs in zip(((0, 1), (0, 2), (1, 2)), ("AB", "AC", "BC"), pred):
            direct_tangles.append(_pair_tangle(psi, pair))
            rows.append((f"tau_{name} via invariants", lhs, direct_tangles[-1], {"tangle": True}))
        c3_tangle = clamped_sqrt(2.0 / 3.0 * sum(direct_tangles) + tau3)
        out.append(rows + [("C3 via tangles", c3_tangle, c3d, {"tangle": True})])
    return out


def _check_r6(payloads: list):
    kme = _kme_values(payloads, [(2, 3, 4)] * len(payloads))
    return [
        [
            (f"C{k} via invariants", inv_val, direct, {})
            for k, inv_val, direct in zip((2, 3, 4), kme_from_invariants4(invariants4(psi)), values)
        ]
        for psi, values in zip(payloads, kme)
    ]


def _check_r7(payloads: list):
    states = [slocc_family(params) for params in payloads]
    out = []
    for params, psi, kme in zip(payloads, states, _kme_values(states, [(2, 3, 4)] * len(states))):
        pred = family_closed_forms(params)
        direct_neg = transposed_profile(psi).per_site
        rows = [
            (f"C{k} closed form", closed, direct, {})
            for k, closed, direct in zip((2, 3, 4), (pred.c2, pred.c3, pred.c4), kme)
        ]
        rows += [
            (f"N site {p} closed form", pred.negativities[p], direct_neg[p], {})
            for p in range(4)
        ]
        skip = pred.c2_min_negativity == "fails"
        if skip:
            note = f"condition violated (margin={pred.condition_margin:.6g}); equality not predicted"
        elif pred.c2_min_negativity == "holds":
            note = "unconditional"
        else:
            note = f"condition satisfied (margin={pred.condition_margin:.6g})"
        out.append(rows + [("C2 = min N", kme[0], min(direct_neg), {"note": note, "skip": skip})])
    return out


def _check_r8(payload):
    kind, arg = payload  # ("w_kme", n) or ("w_two_tangle", coeffs)
    if kind == "w_kme":
        ks = tuple(range(2, arg + 1))
        (kme,) = _kme_values([w(arg)], [ks])
        return [(f"k={k}", w_kme_closed_form(arg, k), value, {}) for k, value in zip(ks, kme)]
    psi = w_class(arg)
    n = psi.num_sites
    return [
        (f"pair ({i},{j})", w_two_tangle(arg, i, j), _pair_tangle(psi, (i - 1, j - 1)),
         {"tangle": True})
        for i in range(1, n + 1)
        for j in range(i + 1, n + 1)
    ]


def _check_r9(payload):
    psi, side = payload
    lam = schmidt_weights(psi, side)
    rank = int(np.sum(lam > 1e-10))
    if rank > 2:
        raise IncompatibleInput(f"R9 needs Schmidt rank <= 2, got {rank}")
    rho = np.outer(psi.amplitudes, psi.amplitudes.conj())
    ev = hermitian_eigenvalues(partial_transpose_sites(rho, side, psi.num_sites))
    lhs = float(np.abs(ev).sum() - 1.0)
    # S_L from the Schmidt weights: 1 - Tr rho^2 would lose half its digits
    # to the square root on a near-product cut
    rhs = clamped_sqrt(2.0 * linear_entropy_pure(psi, side))
    return [("", lhs, rhs, {"note": f"schmidt rank {rank}"})]


# A case generator is a function (spec, seed) -> (payload, descriptor)
# pairs, each case and its state built only when it is asked for;
# seed(i) is the relation's i-th seed under the suite seed.


def _r1_cases(spec: dict, seed: Callable):
    yield slocc_family(FamilyParams(9)), "family L_0(3+1)0(3+1)"
    yield ghz(4), "ghz n=4"
    for n in spec["sizes"]:
        for i in range(spec["samples"]):
            yield random_pure(n, seed(n * 1000 + i)), f"random n={n} #{i:03d}"


def _r2_cases(spec: dict, seed: Callable):
    gn, gt = 3, 0.6
    basis = np.eye(2**gn, dtype=complex)
    states = [ghz(gn)] + [_trusted(PureState, basis[z], gn) for z in range(2**gn)]
    weights = [gt] + [(1 - gt) / 2**gn] * 2**gn
    yield Ensemble(tuple(weights), tuple(states)), f"ghz_noise ensemble n={gn} t={gt}"
    for n, rank, i in itertools.product(spec["sizes"], spec["ranks"], range(spec["samples"])):
        s = seed(n * 10000 + rank * 100 + i)
        yield random_ensemble(n, rank, s), f"random n={n} rank={rank} #{i:03d}"


def _r3_cases(spec: dict, seed: Callable):
    for n in spec["sizes"]:
        lo = ghz_noise_threshold(n)
        for i, tvis in enumerate(np.linspace(lo, 1.0, spec["t_points"])):
            yield (n, float(tvis)), f"grid n={n} #{i:02d}"
        rng = np.random.default_rng(seed(n))
        for i in range(spec["random_t"]):
            yield (n, float(rng.uniform(lo, 1.0))), f"random-t n={n} #{i:02d}"


def _three_qubit_cases(spec: dict, seed: Callable):
    yield ghz(3), "ghz n=3"
    yield w(3), "w n=3"
    for i in range(spec["samples"]):
        yield random_pure(3, seed(i)), f"random n=3 #{i:03d}"


def _r6_cases(spec: dict, seed: Callable):
    yield slocc_family(FamilyParams(9)), "family L_0(3+1)0(3+1)"
    yield slocc_family(FamilyParams(7)), "family L_0(5+3)"
    for i in range(spec["samples"]):
        yield random_pure(4, seed(i)), f"random n=4 #{i:03d}"


def _r7_cases(spec: dict, seed: Callable):
    for fam in spec["families"]:
        points = _custom_grid(spec["grids"] or {}, fam) or default_parameter_grid(fam)
        for i, params in enumerate(points):
            yield params, f"family {fam} grid #{i:02d}"
        rng = np.random.default_rng(seed(fam))
        nparams = FAMILY_PARAM_COUNTS[fam]
        for i in range(spec["random_points"] if nparams else 0):
            vals = rng.uniform(-1.2, 1.2, size=(4, 2))
            args = [complex(re, im) for re, im in vals][:nparams]
            yield FamilyParams(fam, *args), f"family {fam} random #{i:02d}"


def _r8_cases(spec: dict, seed: Callable):
    for n in spec["sizes"]:
        yield ("w_kme", n), f"w n={n}"
    yield ("w_two_tangle", np.ones(3) / np.sqrt(3)), "uniform w n=3"
    for i in range(spec["samples"]):
        n = [3, 4, 5, 6][i % 4]
        coeffs = _complex_normal(np.random.default_rng(seed(i)), n)
        coeffs /= np.linalg.norm(coeffs)
        yield ("w_two_tangle", coeffs), f"random coeffs n={n} #{i:03d}"


def _r9_cases(spec: dict, seed: Callable):
    bell = _trusted(PureState, np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2), 2)
    yield (bell, (0,)), "bell cut 1|1"
    for ci, (na, nb) in enumerate(spec["cuts"]):
        for i in range(spec["samples"]):
            psi = _random_rank2(na, nb, seed(ci * 1000 + i))
            yield (psi, tuple(range(na))), f"rank2 cut {na}|{nb} #{i:03d}"


def _random_rank2(na: int, nb: int, seed: int) -> PureState:
    """Random pure state with Schmidt rank exactly 2 across the first na sites."""
    rng = np.random.default_rng(seed)
    da, db = 2**na, 2**nb
    qa = np.linalg.qr(_complex_normal(rng, (da, 2)))[0]
    qb = np.linalg.qr(_complex_normal(rng, (db, 2)))[0]
    lam = rng.uniform(0.05, 0.95)
    v = np.sqrt(lam) * np.kron(qa[:, 0], qb[:, 0]) + np.sqrt(1 - lam) * np.kron(
        qa[:, 1], qb[:, 1]
    )
    return _unit_state(v, na + nb)


class _Relation(NamedTuple):
    checker: Callable
    tolerance: float  # default tolerance of the rows that are not tangle rows
    spec: dict  # every key of a suite spec but "tolerance", with its default
    cases: Callable  # its case generator


# relation -> its one entry; the order is the default suite's
_RELATIONS: dict[str, _Relation] = {
    "R1": _Relation(_check_r1, TOL_EQUALITY, {"sizes": [2, 3, 4, 5], "samples": 15}, _r1_cases),
    "R2": _Relation(_check_r2, TOL_EQUALITY, {"sizes": [2, 3], "ranks": [2, 3], "samples": 8},
                    _r2_cases),
    "R3": _Relation(_per_payload(_check_r3), TOL_EQUALITY,
                    {"sizes": [2, 3, 4, 5], "t_points": 21, "random_t": 5}, _r3_cases),
    "R4": _Relation(_check_r4, TOL_EQUALITY, {"samples": 60}, _three_qubit_cases),
    "R5": _Relation(_check_r5, TOL_EQUALITY, {"samples": 60, "tangle_tolerance": None},
                    _three_qubit_cases),
    "R6": _Relation(_check_r6, TOL_EQUALITY, {"samples": 60}, _r6_cases),
    "R7": _Relation(_check_r7, TOL_FAMILY,
                    {"families": [1, 2, 3, 4, 5, 6, 7, 8, 9], "random_points": 4, "grids": None},
                    _r7_cases),
    "R8": _Relation(_per_payload(_check_r8), TOL_EQUALITY,
                    {"sizes": [3, 4, 5, 6], "samples": 8, "tangle_tolerance": None}, _r8_cases),
    "R9": _Relation(_per_payload(_check_r9), TOL_EQUALITY,
                    {"samples": 25, "cuts": [[1, 1], [1, 2], [2, 2], [1, 3]]}, _r9_cases),
}

# one member per relation, valued by its name
RelationId = Enum("RelationId", [(name, name) for name in _RELATIONS], type=str)


def _run_case(rel: RelationId, desc: str, rows, tols: tuple) -> list[RelationCheckResult]:
    """Label one case's bare rows with its relation and descriptor, and
    judge each against the (tol, tangle_tol) pair."""
    return [
        _row(rel, f"{desc} | {label}" if label else desc, lhs, rhs, tols, **options)
        for label, lhs, rhs, options in rows
    ]


def _run_group(rel: RelationId, cases: list, tol: Optional[float],
               tangle_tol: Optional[float]) -> list[RelationCheckResult]:
    """Run (payload, descriptor) cases of one relation through one checker call.

    Tangle rows (R5 two-tangles and C3 via tangles, R8 pair tangles) use
    tangle_tol if given, else tol, else TOL_TANGLE.  Every other row uses
    tol if given, else the relation's default.
    """
    checker, default_tol = _RELATIONS[rel][:2]
    tols = (default_tol if tol is None else tol,
            (TOL_TANGLE if tol is None else tol) if tangle_tol is None else tangle_tol)
    per_case = checker([payload for payload, _ in cases])
    return [row for (_, desc), rows in zip(cases, per_case)
            for row in _run_case(rel, desc, rows, tols)]


def check(
    relation: Union[RelationId, str], payload, tol: Optional[float] = None
) -> list[RelationCheckResult]:
    """Evaluate one relation on one input; returns one row per sub-relation.

    Raises a QentError for an unknown relation, a payload that does not
    fit it or a tol that is not a positive finite number, and OutOfRange
    for a state of more than SUITE_MAX_SITES qubits.
    """
    try:
        rel = RelationId(relation)
    except ValueError as exc:
        raise IncompatibleInput(f"unknown relation {brief(relation)}") from exc
    tol = None if tol is None else _tolerance(tol, "tol", IncompatibleInput)
    return _run_group(rel, [_admit(rel, payload)], tol, None)


def _num_sites(what: str, n) -> int:
    """A payload's qubit count: IncompatibleInput unless it is an integer,
    OutOfRange above SUITE_MAX_SITES, before any state is built."""
    return _integer(_integer(n, what, error=IncompatibleInput), what, hi=SUITE_MAX_SITES)


# relation -> the pair its check() payload must be, where it is a tuple
_PAIRS = {"R3": "(n, t)", "R8": "('w_kme', n) or ('w_two_tangle', coeffs)",
          "R9": "(PureState, side_a)"}


def _admit(rel: RelationId, payload) -> tuple:
    """The (payload, descriptor) case of a check() payload, its numbers as
    Python numbers.  IncompatibleInput unless the payload has the kind and
    shape its relation takes; OutOfRange for a state or n of more than
    SUITE_MAX_SITES qubits, before any state is built."""
    if rel.value in _PAIRS and not (isinstance(payload, tuple) and len(payload) == 2):
        raise IncompatibleInput(f"{rel.value} payload must be {_PAIRS[rel.value]}")
    if rel is RelationId.R2:
        n = _num_sites("R2 qubit count", _kind(payload, Ensemble, "an Ensemble for R2").num_sites)
        return payload, f"ensemble n={n} rank={len(payload.states)}"
    if rel is RelationId.R3:
        n, t = _num_sites("R3 n", payload[0]), _real(payload[1], "R3 t", error=IncompatibleInput)
        return (n, t), f"ghz_noise n={n} t={t:.6g}"
    if rel is RelationId.R7:
        return payload, _kind(payload, FamilyParams, "FamilyParams for R7").describe()
    if rel is RelationId.R8:
        kind, arg = payload
        if not (isinstance(kind, str) and kind in ("w_kme", "w_two_tangle")):
            raise IncompatibleInput(f"unknown R8 payload kind {brief(kind)}")
        if kind == "w_kme":
            return (kind, _num_sites("R8 n", arg)), rel.value
        coeffs = _complex_array(arg, "R8 coeffs", IncompatibleInput).ravel()
        _num_sites("R8 coefficient count", coeffs.size)
        return (kind, coeffs), rel.value
    if rel is RelationId.R9:
        n = _num_sites("R9 qubit count", _pure(payload[0]).num_sites)
        try:
            side = tuple(_integer(s, "R9 site", 0, n - 1, IncompatibleInput) for s in payload[1])
        except TypeError as exc:
            raise IncompatibleInput("R9 side_a must be a list of site indices") from exc
        if len(set(side)) == n:
            raise IncompatibleInput("R9 side_a must leave a site on the other side of the cut")
        return (payload[0], side), rel.value
    # R1 takes a pure state of up to SUITE_MAX_SITES qubits, R4 and R5 one of 3, R6 one of 4
    n = _pure(payload).num_sites
    want = {RelationId.R4: 3, RelationId.R5: 3, RelationId.R6: 4}.get(rel, n)
    if n != want:
        raise IncompatibleInput(f"expected {want} sites, got {n}")
    return payload, f"pure n={_num_sites(f'{rel.value} qubit count', n)}"


# ---------------------------------------------------------------------------
# suite configuration and execution


def _tolerance(value, what: str, error: type) -> float:
    """value as a float if it is a positive finite real number; `error` otherwise."""
    if (tol := _real(value, what, error=error)) > 0:
        return tol
    raise error(f"{what} must be positive, got {brief(value)}")


def _spec_value(name: str, key: str, value):
    """A relation spec value as its key needs it, with Python ints for its
    integers; ConfigError otherwise.  Grids pass as given: SuiteConfig
    checks them against the spec's families."""
    what = f"relation {name} {key}"
    if key in ("samples", "t_points", "random_t", "random_points"):
        return _integer(value, what, 0, SUITE_MAX_COUNT, ConfigError)
    if key in ("tolerance", "tangle_tolerance"):
        return value if value is None else _tolerance(value, what, ConfigError)
    if key == "grids":
        return value
    _kind(value, (list, tuple), f"a list for {what}", ConfigError)
    if key == "cuts":  # a cut builds a 4^(na + nb) projector
        if not all(isinstance(cut, (list, tuple)) and len(cut) == 2 for cut in value):
            raise ConfigError(f"{what} must be a list of [na, nb] pairs, got {brief(value)}")
        top = SUITE_MAX_SITES - 1
        cuts = [[_integer(v, f"{what} entry", 1, top, ConfigError) for v in cut] for cut in value]
        if any(sum(cut) > SUITE_MAX_SITES for cut in cuts):
            raise ConfigError(f"{what} must have na + nb <= {SUITE_MAX_SITES}, got {brief(value)}")
        entries = cuts
    else:
        lo, hi = {  # a size n builds 2^n-entry states or a 4^n density matrix
            "sizes": (3 if name == "R8" else 2, SUITE_MAX_SITES),  # W states start at 3, k-ME at 2
            "ranks": (1, None),  # SuiteConfig checks each against 2^n for every size n
            "families": (min(FAMILY_LABELS), max(FAMILY_LABELS)),
        }[key]
        entries = [_integer(v, f"{what} entry", lo, hi, ConfigError) for v in value]
    # a repeated entry would only run its cases again, on the same states
    if len({tuple(e) if key == "cuts" else e for e in entries}) < len(entries):
        raise ConfigError(f"{what} repeats an entry: {brief(value)}")
    return entries


def _complex_from_config(value) -> complex:
    """An R7 grid value, a real number or an [re, im] pair of them, as a
    complex; ConfigError otherwise (JSON true and false included)."""
    pair = value if isinstance(value, (list, tuple)) and len(value) == 2 else (value, 0.0)
    return complex(*(_real(v, "grid value", error=ConfigError) for v in pair))


def _custom_grid(grids: dict, fam: int) -> Optional[list[FamilyParams]]:
    """FamilyParams of the product of the value lists that `grids` holds for
    family `fam` (under the id or its string), one per parameter; or None.
    The number of points is counted before the product is formed."""
    per_parameter = grids.get(str(fam), grids.get(fam))
    if per_parameter is None:
        return None
    nparams = FAMILY_PARAM_COUNTS[fam]
    if not isinstance(per_parameter, list) or not per_parameter:
        raise ConfigError(f"family {fam} grid must be a non-empty list per parameter")
    if len(per_parameter) > nparams:
        raise ConfigError(
            f"family {fam} takes {nparams} parameters, grid lists {len(per_parameter)}"
        )
    if not all(isinstance(values, list) and values for values in per_parameter):
        raise ConfigError(f"family {fam} grid axis must be a non-empty list")
    points = math.prod(len(values) for values in per_parameter)
    if points > SUITE_MAX_COUNT:
        raise ConfigError(f"family {fam} grid has {points} points, over {SUITE_MAX_COUNT}")
    axes = [[_complex_from_config(v) for v in values] for values in per_parameter]
    return [FamilyParams(fam, *combo) for combo in itertools.product(*axes)]


@dataclass(frozen=True)
class SuiteConfig:
    """The seed and the relations of one suite run, checked in full when
    built (ConfigError).  `relations` lists names, or maps each name to a
    spec of "tolerance" and the keys of its _RELATIONS entry, whose
    defaults fill the rest; the config keeps its own copy of every spec."""

    seed: int = 7
    relations: Union[dict, list] = field(default_factory=lambda: list(_RELATIONS))

    def __post_init__(self):
        object.__setattr__(self, "seed", _integer(self.seed, "seed", 0, error=ConfigError))
        normalized: dict[str, dict] = {}
        rels = self.relations
        if isinstance(rels, (list, tuple)):
            if not all(isinstance(name, str) for name in rels):
                raise ConfigError(f"relations list entries must be names, got {brief(rels)}")
            rels = {name: {} for name in rels}
        for name, spec in _kind(rels, dict, "relations as a list or object", ConfigError).items():
            if name not in _RELATIONS:
                raise ConfigError(f"unknown relation {brief(name)}")
            spec = _kind({} if spec is None else spec, dict, f"an object for relation {name} spec",
                         ConfigError)
            defaults = {"tolerance": None, **_RELATIONS[name].spec}
            if bad := set(spec) - set(defaults):
                raise ConfigError(f"relation {name} has unknown keys {brief(sorted(bad))}")
            spec = {key: _spec_value(name, key, value) for key, value in spec.items()}
            merged = copy.deepcopy({**defaults, **spec})
            top = 2 ** min(merged.get("sizes") or [SUITE_MAX_SITES])
            if any(rank > top for rank in merged.get("ranks", ())):
                raise ConfigError(f"relation {name} ranks must be at most 2^n for every size n")
            grids = _kind(merged.get("grids") or {}, dict,
                          f"{name} grids as a map of family ids to lists", ConfigError)
            families = merged.get("families", ())
            if stray := [key for key in grids if key not in {*families, *map(str, families)}]:
                raise ConfigError(f"{name} grids name no listed family: {brief(stray)}")
            for fam in families:
                _custom_grid(grids, fam)
            normalized[name] = merged
        object.__setattr__(self, "relations", normalized)

    @classmethod
    def default(cls, seed: int = 7) -> "SuiteConfig":
        return cls(seed=seed)

    @classmethod
    def from_json(cls, text: str) -> "SuiteConfig":
        payload = _json_object(text, ConfigError)
        if bad := set(payload) - {"seed", "relations"}:
            raise ConfigError(f"unknown top-level keys {sorted(bad)}")
        return cls(**payload)


@dataclass(frozen=True)
class SuiteReport:
    """The rows of a suite run; built directly, InputError unless results
    is a tuple of RelationCheckResult."""

    results: tuple[RelationCheckResult, ...]

    def __post_init__(self):
        for r in _kind(self.results, tuple, "a tuple of RelationCheckResult", InputError):
            _kind(r, RelationCheckResult, "a RelationCheckResult", InputError)

    @property
    def failures(self) -> tuple[RelationCheckResult, ...]:
        return tuple(r for r in self.results if r.verdict == VERDICT_FAIL)

    @property
    def exit_code(self) -> int:
        return 1 if self.failures else 0

    def counts(self) -> dict[str, dict[str, int]]:
        out: dict[str, dict[str, int]] = {}
        for r in self.results:
            bucket = out.setdefault(
                r.relation.value, {"checks": 0, "pass": 0, "fail": 0, "skip": 0}
            )
            bucket["checks"] += 1
            if r.verdict == VERDICT_FAIL:
                bucket["fail"] += 1
            elif r.verdict == VERDICT_SKIP:
                bucket["skip"] += 1
            else:
                bucket["pass"] += 1
        return out

    def worst_residuals(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for r in self.results:
            if r.verdict == VERDICT_SKIP:
                continue
            out[r.relation.value] = max(out.get(r.relation.value, 0.0), r.residual)
        return out

    def to_text(self) -> str:
        lines = ["relation  checks  pass  fail  skip  worst_residual"]
        counts = self.counts()
        worst = self.worst_residuals()
        for rel in sorted(counts):
            c = counts[rel]
            lines.append(
                f"{rel:<8}  {c['checks']:>6}  {c['pass']:>4}  {c['fail']:>4}"
                f"  {c['skip']:>4}  {worst.get(rel, 0.0):.3e}"
            )
        total = sum(c["checks"] for c in counts.values())
        nfail = len(self.failures)
        lines.append(f"total: {total} checks, {nfail} failures")
        if nfail:
            lines.append("failures:")
            for r in self.failures:
                lines.append(
                    f"  {r.relation.value} {r.state_descriptor}: "
                    f"lhs={r.lhs:.12g} rhs={r.rhs:.12g} residual={r.residual:.3e} "
                    f"tol={r.tolerance:.3e}"
                )
        return "\n".join(lines) + "\n"

    def to_csv(self) -> str:
        return _csv_text(
            [
                r.relation.value,
                r.state_descriptor,
                *(format(x, CSV_PRECISION) for x in (r.lhs, r.rhs, r.residual, r.tolerance)),
                r.verdict,
                r.condition_note,
            ]
            for r in self.results
        )


def run_suite(config: SuiteConfig) -> SuiteReport:
    """Run every configured relation check and aggregate a sorted report.

    Each checker call takes at most SUITE_GROUP_CASES consecutive cases of
    one relation, generated only when asked for; case i of relation Rj
    under suite seed s has seed s * 1_000_003 + j * 4099 + i.  Results
    are sorted by (relation, state descriptor), so reports are
    byte-identical for identical configs.  Anything but a SuiteConfig
    raises ConfigError.
    """
    results = []
    for name in sorted(_kind(config, SuiteConfig, "a SuiteConfig", ConfigError).relations):
        rel, spec = RelationId(name), config.relations[name]
        base = config.seed * 1_000_003 + int(name[1:]) * 4099
        cases = _RELATIONS[name].cases(spec, lambda i: base + i)
        while group := list(itertools.islice(cases, SUITE_GROUP_CASES)):
            results += _run_group(rel, group, spec["tolerance"], spec.get("tangle_tolerance"))
    results.sort(key=lambda r: (r.relation.value, r.state_descriptor))
    return _trusted(SuiteReport, tuple(results))
