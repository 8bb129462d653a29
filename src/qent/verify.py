"""Relation-verification harness.

Each RelationId names one quantitative relation among the measures and
maps to one checker in _CHECKERS; _run_case() is the only dispatch.
check() evaluates one relation on one input and returns one result row
per sub-relation.  run_suite() drives a configurable batch over fixed
anchor states plus seeded random families through the same dispatch,
serially, and aggregates a deterministic report.

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
"""
from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Optional, Union

import numpy as np

from .errors import ConfigError, IncompatibleInput, OutOfRange
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
    kme_concurrence_pure,
    negativity,
    negativity_profile,
    nme_lower_bound,
    three_tangle,
)
from .qstate import (
    DensityMatrix,
    PureState,
    clamped_sqrt,
    density_of,
    hermitian_eigenvalues,
    partial_transpose_sites,
    purity,
    reduced_density_pure,
    schmidt_weights,
)

TOL_EQUALITY = 1e-9
TOL_TANGLE = 1e-8
TOL_FAMILY = 1e-8

# most qubits of a random suite state, an R3 size or an R9 cut (na + nb)
SUITE_MAX_SITES = 8

VERDICT_PASS = "pass"
VERDICT_FAIL = "fail"
VERDICT_INEQ = "inequality-satisfied"
VERDICT_SKIP = "skip"

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


class RelationId(str, Enum):
    R1 = "R1"
    R2 = "R2"
    R3 = "R3"
    R4 = "R4"
    R5 = "R5"
    R6 = "R6"
    R7 = "R7"
    R8 = "R8"
    R9 = "R9"


@dataclass(frozen=True)
class RelationCheckResult:
    relation: RelationId
    state_descriptor: str
    lhs: float
    rhs: float
    residual: float
    tolerance: float
    verdict: str
    condition_note: str = ""


@dataclass(frozen=True)
class Ensemble:
    """Explicit convex mixture of pure states with its weights retained."""

    weights: tuple[float, ...]
    states: tuple[PureState, ...]

    def __post_init__(self):
        if len(self.weights) != len(self.states) or not self.states:
            raise ValueError("ensemble needs matching, non-empty weights and states")
        if any(p < -1e-12 for p in self.weights):
            raise ValueError("ensemble weights must be non-negative")
        if abs(sum(self.weights) - 1.0) > 1e-9:
            raise ValueError(f"ensemble weights sum to {sum(self.weights)}")

    @property
    def num_sites(self) -> int:
        return self.states[0].num_sites

    def density(self) -> DensityMatrix:
        n = self.num_sites
        m = np.zeros((2**n, 2**n), dtype=complex)
        for p, psi in zip(self.weights, self.states):
            m += p * np.outer(psi.amplitudes, psi.amplitudes.conj())
        return DensityMatrix(m, n)


def random_pure(n: int, seed: int) -> PureState:
    """Haar-like random pure state from a seeded complex-normal vector."""
    if not 1 <= n <= SUITE_MAX_SITES:
        raise OutOfRange(f"random_pure supports 1 <= n <= {SUITE_MAX_SITES}, got {n}")
    rng = np.random.default_rng(seed)
    v = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
    return PureState(v / np.linalg.norm(v), n)


def random_ensemble(n: int, rank: int, seed: int) -> Ensemble:
    """Random convex mixture of `rank` random pure states with Dirichlet
    weights, fully reproducible from `seed`."""
    if not 1 <= n <= SUITE_MAX_SITES:
        raise OutOfRange(f"random_ensemble supports 1 <= n <= {SUITE_MAX_SITES}, got {n}")
    if not 1 <= rank <= 2**n:
        raise OutOfRange(f"rank must be in [1, 2^n], got {rank}")
    rng = np.random.default_rng(seed)
    states = []
    for _ in range(rank):
        v = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
        states.append(PureState(v / np.linalg.norm(v), n))
    weights = rng.dirichlet(np.ones(rank))
    return Ensemble(tuple(float(p) for p in weights), tuple(states))


def random_mixed(n: int, rank: int, seed: int) -> DensityMatrix:
    """Density matrix of random_ensemble(n, rank, seed)."""
    return random_ensemble(n, rank, seed).density()


def random_local_unitary(seed: int) -> np.ndarray:
    """Haar-random 2x2 unitary (QR of a complex-normal matrix)."""
    rng = np.random.default_rng(seed)
    z = (rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))) / np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _row(
    relation: RelationId,
    desc: str,
    lhs: float,
    rhs: float,
    tol: float,
    inequality: bool = False,
    note: str = "",
    skip: bool = False,
) -> RelationCheckResult:
    residual = max(0.0, rhs - lhs) if inequality else abs(lhs - rhs)
    if skip:
        verdict = VERDICT_SKIP
    elif inequality:
        verdict = VERDICT_INEQ if lhs >= rhs - tol else VERDICT_FAIL
    else:
        verdict = VERDICT_PASS if residual <= tol else VERDICT_FAIL
    return RelationCheckResult(
        relation=relation,
        state_descriptor=desc,
        lhs=float(lhs),
        rhs=float(rhs),
        residual=float(residual),
        tolerance=float(tol),
        verdict=verdict,
        condition_note=note,
    )


def _expect_pure(payload, n: Optional[int]):
    if not isinstance(payload, PureState):
        raise IncompatibleInput(f"expected a PureState, got {type(payload).__name__}")
    if n is not None and payload.num_sites != n:
        raise IncompatibleInput(f"expected {n} sites, got {payload.num_sites}")


# Every checker takes (payload, tol, desc, tangle_tol) with both tolerances
# already resolved by _run_case, validates its own payload and raises
# IncompatibleInput on a mismatch.


def _check_r1(psi: PureState, tol: float, desc: str, tangle_tol: float):
    _expect_pure(psi, None)
    lhs = kme_concurrence_pure(psi, psi.num_sites).value
    rhs = nme_lower_bound(density_of(psi))
    return [_row(RelationId.R1, desc, lhs, rhs, tol)]


def _check_r2(ens: Ensemble, tol: float, desc: str, tangle_tol: float):
    if not isinstance(ens, Ensemble):
        raise IncompatibleInput("R2 expects an Ensemble")
    n = ens.num_sites
    lhs = sum(
        p * kme_concurrence_pure(psi, n).value for p, psi in zip(ens.weights, ens.states)
    )
    rhs = nme_lower_bound(ens.density())
    return [_row(RelationId.R2, desc, lhs, rhs, tol, inequality=True)]


def _check_r3(payload: tuple[int, float], tol: float, desc: str, tangle_tol: float):
    if not (isinstance(payload, tuple) and len(payload) == 2):
        raise IncompatibleInput("R3 expects (n, t)")
    n, tvis = int(payload[0]), float(payload[1])
    rho = ghz_noise(n, tvis)
    rows = [
        _row(
            RelationId.R3,
            f"{desc} | exact n-ME value",
            ghz_noise_nme_exact(n, tvis),
            nme_lower_bound(rho),
            tol,
        )
    ]
    pred = ghz_noise_negativity(n, tvis)
    for p in range(n):
        rows.append(
            _row(
                RelationId.R3,
                f"{desc} | negativity site {p}",
                pred,
                negativity(rho, p),
                tol,
            )
        )
    return rows


def _check_r4(psi: PureState, tol: float, desc: str, tangle_tol: float):
    _expect_pure(psi, 3)
    prof = negativity_profile(density_of(psi)).per_site
    rows = [
        _row(
            RelationId.R4,
            f"{desc} | C2 = min N",
            kme_concurrence_pure(psi, 2).value,
            min(prof),
            tol,
        ),
        _row(
            RelationId.R4,
            f"{desc} | C3 = rms N",
            kme_concurrence_pure(psi, 3).value,
            float(np.sqrt(sum(v * v for v in prof) / 3.0)),
            tol,
        ),
    ]
    return rows


def _check_r5(psi: PureState, tol: float, desc: str, tangle_tol: float):
    _expect_pure(psi, 3)
    inv = invariants3(psi)
    c2i, c3i = kme_from_invariants3(inv)
    c2d = kme_concurrence_pure(psi, 2).value
    c3d = kme_concurrence_pure(psi, 3).value
    tau3 = three_tangle(psi)
    pred = tangles_from_invariants3(inv, tau3)
    pairs = ((0, 1), (0, 2), (1, 2))
    names = ("tau_AB", "tau_AC", "tau_BC")
    rows = [
        _row(RelationId.R5, f"{desc} | C2 via invariants", c2i, c2d, tol),
        _row(RelationId.R5, f"{desc} | C3 via invariants", c3i, c3d, tol),
    ]
    direct_tangles = []
    for (i, j), name, lhs in zip(pairs, names, pred):
        rhs = _pair_tangle(psi, (i, j))
        direct_tangles.append(rhs)
        rows.append(
            _row(RelationId.R5, f"{desc} | {name} via invariants", lhs, rhs, tangle_tol)
        )
    c3_tangle = clamped_sqrt(2.0 / 3.0 * sum(direct_tangles) + tau3)
    rows.append(_row(RelationId.R5, f"{desc} | C3 via tangles", c3_tangle, c3d, tangle_tol))
    return rows


def _check_r6(psi: PureState, tol: float, desc: str, tangle_tol: float):
    _expect_pure(psi, 4)
    c2i, c3i, c4i = kme_from_invariants4(invariants4(psi))
    rows = []
    for k, inv_val in ((2, c2i), (3, c3i), (4, c4i)):
        rows.append(
            _row(
                RelationId.R6,
                f"{desc} | C{k} via invariants",
                inv_val,
                kme_concurrence_pure(psi, k).value,
                tol,
            )
        )
    return rows


def _check_r7(params: FamilyParams, tol: float, desc: str, tangle_tol: float):
    if not isinstance(params, FamilyParams):
        raise IncompatibleInput("R7 expects FamilyParams")
    psi = slocc_family(params)
    pred = family_closed_forms(params)
    rho = density_of(psi)
    direct_neg = tuple(negativity(rho, p) for p in range(4))
    direct_kme = {k: kme_concurrence_pure(psi, k).value for k in (2, 3, 4)}
    rows = []
    for k, closed in ((2, pred.c2), (3, pred.c3), (4, pred.c4)):
        rows.append(
            _row(RelationId.R7, f"{desc} | C{k} closed form", closed, direct_kme[k], tol)
        )
    for p in range(4):
        rows.append(
            _row(
                RelationId.R7,
                f"{desc} | N site {p} closed form",
                pred.negativities[p],
                direct_neg[p],
                tol,
            )
        )
    c2_direct = direct_kme[2]
    min_n = min(direct_neg)
    desc_min = f"{desc} | C2 = min N"
    skip = pred.c2_min_negativity == "fails"
    if skip:
        note = f"condition violated (margin={pred.condition_margin:.6g}); equality not predicted"
        if abs(c2_direct - min_n) <= tol:
            note += "; equality holds anyway"
    elif pred.c2_min_negativity == "holds":
        note = "unconditional"
    else:
        note = f"condition satisfied (margin={pred.condition_margin:.6g})"
    rows.append(_row(RelationId.R7, desc_min, c2_direct, min_n, tol, note=note, skip=skip))
    return rows


def _check_r8(payload, tol: float, desc: str, tangle_tol: float):
    if not isinstance(payload, tuple) or len(payload) != 2:
        raise IncompatibleInput("R8 payload must be ('w_kme', n) or ('w_two_tangle', coeffs)")
    kind, arg = payload
    rows = []
    if kind == "w_kme":
        n = int(arg)
        psi = w(n)
        for k in range(2, n + 1):
            rows.append(
                _row(
                    RelationId.R8,
                    f"{desc} | k={k}",
                    w_kme_closed_form(n, k),
                    kme_concurrence_pure(psi, k).value,
                    tol,
                )
            )
        return rows
    if kind == "w_two_tangle":
        coeffs = np.asarray(arg, dtype=complex).ravel()
        n = coeffs.size
        psi = w_class(coeffs)
        for i in range(1, n + 1):
            for j in range(i + 1, n + 1):
                rows.append(
                    _row(
                        RelationId.R8,
                        f"{desc} | pair ({i},{j})",
                        w_two_tangle(coeffs, i, j),
                        _pair_tangle(psi, (i - 1, j - 1)),
                        tangle_tol,
                    )
                )
        return rows
    raise IncompatibleInput(f"unknown R8 payload kind {kind!r}")


def _check_r9(payload, tol: float, desc: str, tangle_tol: float):
    if not isinstance(payload, tuple) or len(payload) != 2:
        raise IncompatibleInput("R9 payload must be (PureState, side_a)")
    psi, side = payload
    if not isinstance(psi, PureState):
        raise IncompatibleInput("R9 payload must contain a PureState")
    side = tuple(int(s) for s in side)
    lam = schmidt_weights(psi, side)
    rank = int(np.sum(lam > 1e-10))
    if rank > 2:
        raise IncompatibleInput(f"R9 needs Schmidt rank <= 2, got {rank}")
    rho = np.outer(psi.amplitudes, psi.amplitudes.conj())
    ev = hermitian_eigenvalues(partial_transpose_sites(rho, side, psi.num_sites))
    lhs = float(np.abs(ev).sum() - 1.0)
    rhs = clamped_sqrt(2.0 * (1.0 - purity(reduced_density_pure(psi, side))))
    return [_row(RelationId.R9, desc, lhs, rhs, tol, note=f"schmidt rank {rank}")]


# relation -> (checker, default tolerance of its non-tangle rows)
_CHECKERS: dict[RelationId, tuple[Callable, float]] = {
    RelationId.R1: (_check_r1, TOL_EQUALITY),
    RelationId.R2: (_check_r2, TOL_EQUALITY),
    RelationId.R3: (_check_r3, TOL_EQUALITY),
    RelationId.R4: (_check_r4, TOL_EQUALITY),
    RelationId.R5: (_check_r5, TOL_EQUALITY),
    RelationId.R6: (_check_r6, TOL_EQUALITY),
    RelationId.R7: (_check_r7, TOL_FAMILY),
    RelationId.R8: (_check_r8, TOL_EQUALITY),
    RelationId.R9: (_check_r9, TOL_EQUALITY),
}


def _run_case(case) -> list[RelationCheckResult]:
    """Run one (relation, payload, descriptor, tol, tangle_tol) case.

    Tangle rows (R5 two-tangles and C3 via tangles, R8 pair tangles) use
    tangle_tol if given, else tol, else TOL_TANGLE.  Every other row uses
    tol if given, else the relation's default.
    """
    rel, payload, desc, tol, tangle_tol = case
    checker, default_tol = _CHECKERS[rel]
    if tangle_tol is None:
        tangle_tol = TOL_TANGLE if tol is None else tol
    return checker(payload, default_tol if tol is None else tol, desc, tangle_tol)


def check(
    relation: Union[RelationId, str], payload, tol: Optional[float] = None
) -> list[RelationCheckResult]:
    """Evaluate one relation on one input; returns one row per sub-relation."""
    rel = RelationId(relation)
    return _run_case((rel, payload, _describe_payload(rel, payload), tol, None))


def _describe_payload(rel: RelationId, payload) -> str:
    if isinstance(payload, PureState):
        return f"pure n={payload.num_sites}"
    if isinstance(payload, Ensemble):
        return f"ensemble n={payload.num_sites} rank={len(payload.states)}"
    if isinstance(payload, FamilyParams):
        return payload.describe()
    if isinstance(payload, tuple) and rel is RelationId.R3:
        return f"ghz_noise n={payload[0]} t={float(payload[1]):.6g}"
    return rel.value


# ---------------------------------------------------------------------------
# suite configuration and execution

_DEFAULT_RELATIONS: dict[str, dict] = {
    "R1": {"sizes": [2, 3, 4, 5], "samples": 15},
    "R2": {"sizes": [2, 3], "ranks": [2, 3], "samples": 8},
    "R3": {"sizes": [2, 3, 4, 5], "t_points": 21, "random_t": 5},
    "R4": {"samples": 60},
    "R5": {"samples": 60},
    "R6": {"samples": 60},
    "R7": {"families": [1, 2, 3, 4, 5, 6, 7, 8, 9], "random_points": 4},
    "R8": {"sizes": [3, 4, 5, 6], "samples": 8},
    "R9": {"samples": 25, "cuts": [[1, 1], [1, 2], [2, 2], [1, 3]]},
}

_ALLOWED_KEYS: dict[str, set[str]] = {
    "R1": {"sizes", "samples", "tolerance"},
    "R2": {"sizes", "ranks", "samples", "tolerance"},
    "R3": {"sizes", "t_points", "random_t", "tolerance"},
    "R4": {"samples", "tolerance"},
    "R5": {"samples", "tolerance", "tangle_tolerance"},
    "R6": {"samples", "tolerance"},
    "R7": {"families", "random_points", "tolerance", "grids"},
    "R8": {"sizes", "samples", "tolerance", "tangle_tolerance"},
    "R9": {"samples", "cuts", "tolerance"},
}


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _check_spec_value(name: str, key: str, value) -> None:
    """Raise ConfigError unless a relation spec value has the type its key
    needs (grids are checked when the suite cases are built)."""
    if key in ("samples", "t_points", "random_t", "random_points"):
        ok, need = _is_int(value) and value >= 0, "a non-negative integer"
    elif key in ("sizes", "ranks", "families"):
        ok = isinstance(value, (list, tuple)) and all(_is_int(v) for v in value)
        need = "a list of integers"
        if (name, key) == ("R3", "sizes"):  # R3 builds a 4^n density matrix per size
            ok = ok and all(v <= SUITE_MAX_SITES for v in value)
            need = f"a list of integers <= {SUITE_MAX_SITES}"
    elif key == "cuts":
        ok = isinstance(value, (list, tuple)) and all(
            isinstance(c, (list, tuple)) and len(c) == 2 and all(_is_int(v) and v >= 1 for v in c)
            and sum(c) <= SUITE_MAX_SITES  # R9 builds the projector of each cut
            for c in value
        )
        need = f"a list of [na, nb] pairs with na, nb >= 1 and na + nb <= {SUITE_MAX_SITES}"
    elif key in ("tolerance", "tangle_tolerance"):
        ok = value is None or (
            isinstance(value, (int, float))
            and not isinstance(value, bool)
            and math.isfinite(value)
            and value > 0
        )
        need = "a positive finite number"
    else:
        return
    if not ok:
        raise ConfigError(f"relation {name} {key} must be {need}, got {value!r}")


def _complex_from_config(value) -> complex:
    if isinstance(value, (int, float)):
        return complex(value)
    if isinstance(value, (list, tuple)) and len(value) == 2:
        return complex(float(value[0]), float(value[1]))
    raise ConfigError(f"grid value {value!r} must be a number or an [re, im] pair")


def _family_grid_points(fam: int, per_parameter: list) -> list[FamilyParams]:
    """Cartesian product of per-parameter value lists into FamilyParams."""
    nparams = FAMILY_PARAM_COUNTS[fam]
    if not isinstance(per_parameter, list) or not per_parameter:
        raise ConfigError(f"family {fam} grid must be a non-empty list per parameter")
    if len(per_parameter) > max(nparams, 1):
        raise ConfigError(
            f"family {fam} takes {nparams} parameters, grid lists {len(per_parameter)}"
        )
    axes = []
    for values in per_parameter:
        if not isinstance(values, list) or not values:
            raise ConfigError(f"family {fam} grid axis must be a non-empty list")
        axes.append([_complex_from_config(v) for v in values])
    points = [()]
    for axis in axes:
        points = [combo + (v,) for combo in points for v in axis]
    return [FamilyParams(fam, *combo) for combo in points]


@dataclass(frozen=True)
class SuiteConfig:
    seed: int = 7
    relations: dict = field(default_factory=lambda: dict(_DEFAULT_RELATIONS))

    def __post_init__(self):
        if not isinstance(self.seed, int):
            raise ConfigError(f"seed must be an integer, got {self.seed!r}")
        normalized: dict[str, dict] = {}
        rels = self.relations
        if isinstance(rels, (list, tuple)):
            rels = {name: {} for name in rels}
        if not isinstance(rels, dict):
            raise ConfigError("relations must be a list or an object")
        for name, spec in rels.items():
            if name not in _ALLOWED_KEYS:
                raise ConfigError(f"unknown relation {name!r}")
            if spec is None:
                spec = {}
            if not isinstance(spec, dict):
                raise ConfigError(f"relation {name} spec must be an object")
            bad = set(spec) - _ALLOWED_KEYS[name]
            if bad:
                raise ConfigError(f"relation {name} has unknown keys {sorted(bad)}")
            for key, value in spec.items():
                _check_spec_value(name, key, value)
            merged = dict(_DEFAULT_RELATIONS[name])
            merged.update(spec)
            normalized[name] = merged
        object.__setattr__(self, "relations", normalized)

    @classmethod
    def default(cls, seed: int = 7) -> "SuiteConfig":
        return cls(seed=seed)

    @classmethod
    def from_json(cls, text: str) -> "SuiteConfig":
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"invalid JSON: {exc}") from exc
        if not isinstance(payload, dict):
            raise ConfigError("suite config must be a JSON object")
        bad = set(payload) - {"seed", "relations"}
        if bad:
            raise ConfigError(f"unknown top-level keys {sorted(bad)}")
        kwargs = {}
        if "seed" in payload:
            kwargs["seed"] = payload["seed"]
        if "relations" in payload:
            kwargs["relations"] = payload["relations"]
        return cls(**kwargs)


def _suite_cases(config: SuiteConfig):
    """Ordered (relation, payload, descriptor, tol, tangle_tol) tuples."""
    base = config.seed
    cases = []

    def seed_for(rel_no: int, i: int) -> int:
        return base * 1_000_003 + rel_no * 4099 + i

    for name, spec in sorted(config.relations.items()):
        rel = RelationId(name)
        tol = spec.get("tolerance")
        ttol = spec.get("tangle_tolerance")

        def add(payload, desc: str):
            cases.append((rel, payload, desc, tol, ttol))

        if rel is RelationId.R1:
            add(slocc_family(FamilyParams(9)), "family L_0(3+1)0(3+1)")
            add(ghz(4), "ghz n=4")
            for n in spec["sizes"]:
                for i in range(spec["samples"]):
                    add(random_pure(n, seed_for(1, n * 1000 + i)), f"random n={n} #{i:03d}")
        elif rel is RelationId.R2:
            gn, gt = 3, 0.6
            basis = np.eye(2**gn, dtype=complex)
            states = [ghz(gn)] + [PureState(basis[z], gn) for z in range(2**gn)]
            weights = [gt] + [(1 - gt) / 2**gn] * 2**gn
            add(Ensemble(tuple(weights), tuple(states)), f"ghz_noise ensemble n={gn} t={gt}")
            for n in spec["sizes"]:
                for rank in spec["ranks"]:
                    for i in range(spec["samples"]):
                        s = seed_for(2, n * 10000 + rank * 100 + i)
                        add(random_ensemble(n, rank, s), f"random n={n} rank={rank} #{i:03d}")
        elif rel is RelationId.R3:
            for n in spec["sizes"]:
                lo = ghz_noise_threshold(n)
                for i, tvis in enumerate(np.linspace(lo, 1.0, spec["t_points"])):
                    add((n, float(tvis)), f"grid n={n} #{i:02d}")
                rng = np.random.default_rng(seed_for(3, n))
                for i in range(spec["random_t"]):
                    add((n, float(rng.uniform(lo, 1.0))), f"random-t n={n} #{i:02d}")
        elif rel in (RelationId.R4, RelationId.R5):
            rel_no = 4 if rel is RelationId.R4 else 5
            add(ghz(3), "ghz n=3")
            add(w(3), "w n=3")
            for i in range(spec["samples"]):
                add(random_pure(3, seed_for(rel_no, i)), f"random n=3 #{i:03d}")
        elif rel is RelationId.R6:
            add(slocc_family(FamilyParams(9)), "family L_0(3+1)0(3+1)")
            add(slocc_family(FamilyParams(7)), "family L_0(5+3)")
            for i in range(spec["samples"]):
                add(random_pure(4, seed_for(6, i)), f"random n=4 #{i:03d}")
        elif rel is RelationId.R7:
            grids = spec.get("grids") or {}
            if not isinstance(grids, dict):
                raise ConfigError("R7 grids must map family id to per-parameter lists")
            for fam in spec["families"]:
                if fam not in FAMILY_LABELS:
                    raise ConfigError(f"unknown family id {fam}")
                custom = grids.get(str(fam), grids.get(fam))
                points = (
                    _family_grid_points(fam, custom)
                    if custom is not None
                    else default_parameter_grid(fam)
                )
                for i, params in enumerate(points):
                    add(params, f"family {fam} grid #{i:02d}")
                rng = np.random.default_rng(seed_for(7, fam))
                nparams = FAMILY_PARAM_COUNTS[fam]
                for i in range(spec["random_points"] if nparams else 0):
                    vals = rng.uniform(-1.2, 1.2, size=(4, 2))
                    args = [complex(re, im) for re, im in vals][:nparams]
                    add(FamilyParams(fam, *args), f"family {fam} random #{i:02d}")
        elif rel is RelationId.R8:
            for n in spec["sizes"]:
                add(("w_kme", n), f"w n={n}")
            add(("w_two_tangle", np.ones(3) / np.sqrt(3)), "uniform w n=3")
            for i in range(spec["samples"]):
                n = [3, 4, 5, 6][i % 4]
                rng = np.random.default_rng(seed_for(8, i))
                coeffs = rng.normal(size=n) + 1j * rng.normal(size=n)
                coeffs /= np.linalg.norm(coeffs)
                add(("w_two_tangle", coeffs), f"random coeffs n={n} #{i:03d}")
        elif rel is RelationId.R9:
            bell = PureState(np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2), 2)
            add((bell, (0,)), "bell cut 1|1")
            for ci, (na, nb) in enumerate(spec["cuts"]):
                for i in range(spec["samples"]):
                    psi = _random_rank2(int(na), int(nb), seed_for(9, ci * 1000 + i))
                    add((psi, tuple(range(int(na)))), f"rank2 cut {na}|{nb} #{i:03d}")
    return cases


def _random_rank2(na: int, nb: int, seed: int) -> PureState:
    """Random pure state with Schmidt rank exactly 2 across the first na sites."""
    rng = np.random.default_rng(seed)
    da, db = 2**na, 2**nb
    qa = np.linalg.qr(rng.normal(size=(da, 2)) + 1j * rng.normal(size=(da, 2)))[0]
    qb = np.linalg.qr(rng.normal(size=(db, 2)) + 1j * rng.normal(size=(db, 2)))[0]
    lam = rng.uniform(0.05, 0.95)
    v = np.sqrt(lam) * np.kron(qa[:, 0], qb[:, 0]) + np.sqrt(1 - lam) * np.kron(
        qa[:, 1], qb[:, 1]
    )
    return PureState(v / np.linalg.norm(v), na + nb)


@dataclass(frozen=True)
class SuiteReport:
    results: tuple[RelationCheckResult, ...]

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
                format(r.lhs, ".17g"),
                format(r.rhs, ".17g"),
                format(r.residual, ".17g"),
                format(r.tolerance, ".17g"),
                r.verdict,
                r.condition_note,
            ]
            for r in self.results
        )


def run_suite(config: SuiteConfig) -> SuiteReport:
    """Run every configured relation check and aggregate a sorted report.

    Results are sorted by (relation, state descriptor), so reports are
    byte-identical for identical configs.
    """
    results = [r for case in _suite_cases(config) for r in _run_case(case)]
    results.sort(key=lambda r: (r.relation.value, r.state_descriptor))
    return SuiteReport(tuple(results))
