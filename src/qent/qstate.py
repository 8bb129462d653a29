"""Pure states and density matrices over n qubit tensor factors.

Site 0 is the leftmost tensor factor and the most significant bit of a
computational-basis index: |q0 q1 ... q_{n-1}> lives at index
sum_i q_i * 2^(n-1-i).  Letter labels map as A=0, B=1, C=2, D=3.

A subsystem set is any iterable of distinct site indices; it is
canonicalized to a sorted tuple.  All types are immutable after
construction and every operation is a pure function, so concurrent use
is safe.

States are validated once, where they enter qent: the PureState and
DensityMatrix constructors, and so state_from_json, check what they are
given.  What qent builds out of values it has checked comes from
_trusted, unchecked, and a public function checks its arguments before
it calls a private kernel, which qent's own callers call.  A site index
and a constructor's num_sites pass errors._integer: an int or numpy
integer, never a bool or a float, kept as a Python int.  Amplitudes,
matrix entries, local unitaries, Schmidt weights and the raw matrices of
purity and hermitian_eigenvalues pass errors._complex_array: finite
numbers, kept as a read-only complex copy.

Functions of a pure state take it through the private gate _pure, and
functions of a density matrix through _density, which builds
density_of(psi) for a PureState.  Both refuse anything else with
IncompatibleInput, _pure through errors._kind, which gates every
argument of a qent type.

PureState and DensityMatrix memoize quantities derived from their
entries in a `_memo` dict that is not part of their identity: the
cut-entropy table of measures.kme_concurrence_pure and the profile of
measures.negativity_profile, and here a density matrix's ascending
spectrum and, for a density_of projector, its factor psi
(rho = psi psi^dag).  Only density_factor reads them: validation
leaves the spectrum behind, density_factor computes it for a trusted
matrix on first use, and a recorded factor spares the eigh.  Filling a
memo twice writes the same values, so it needs no lock.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence, Union

import numpy as np

from .errors import (
    DimensionMismatch,
    IncompatibleInput,
    IndexOutOfRange,
    InputError,
    NotHermitian,
    NotUnitary,
    OutOfDomain,
    ZeroVector,
    _complex_array,
    _integer,
    _kind,
    brief,
)

NORM_TOL = 1e-9
HERMITICITY_TOL = 1e-9
PSD_EIGENVALUE_FLOOR = -1e-9
SPECTRAL_TOL = 1e-8
SQRT_CLAMP_FLOOR = -1e-12


def clamped_sqrt(x: float) -> float:
    """sqrt with tiny negative rounding dust (>= -1e-12) clamped to 0."""
    if x < 0.0:
        if x < SQRT_CLAMP_FLOOR:
            raise OutOfDomain(f"sqrt argument {x:.6g} below clamp floor {SQRT_CLAMP_FLOOR}")
        return 0.0
    return float(np.sqrt(x))


def sites_tuple(sites: Union[int, Iterable[int]], num_sites: int) -> tuple[int, ...]:
    """Canonicalize a site index or a subsystem set to a sorted tuple of
    distinct site indices in [0, num_sites); IndexOutOfRange otherwise."""
    try:
        items = tuple(sites)
    except TypeError:  # a single site, or no sites at all
        items = (sites,)
    out = tuple(sorted(_integer(s, "site", 0, num_sites - 1, IndexOutOfRange) for s in items))
    if not out:
        raise IndexOutOfRange("subsystem set must be non-empty")
    if len(set(out)) != len(out):
        raise IndexOutOfRange(f"duplicate site indices in {out}")
    return out


def _check_qubit_shape(what: str, shape: tuple, ndim: int, n) -> int:
    """n as an int; DimensionMismatch unless n is an integer >= 1 and
    shape is ndim axes of 2**n each.  2**n is never formed for an n that
    no axis could match, and the message cuts a huge n short."""
    n = _integer(n, "num_sites", 1, error=DimensionMismatch)
    if len(shape) != ndim or any(d.bit_length() != n + 1 or d != 2**n for d in shape):
        raise DimensionMismatch(f"{what} of shape {shape} does not match {brief(n)} qubits")
    return n


@dataclass(frozen=True)
class PureState:
    """Normalized complex amplitude vector over num_sites qubit factors."""

    amplitudes: np.ndarray
    num_sites: int
    # derived quantities keyed by name; not part of the state's identity
    _memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        amps = _complex_array(self.amplitudes, "amplitudes", InputError)
        object.__setattr__(self, "amplitudes", amps)
        n = _check_qubit_shape("amplitude vector", amps.shape, 1, self.num_sites)
        object.__setattr__(self, "num_sites", n)
        norm = float(np.linalg.norm(amps))
        if abs(norm - 1.0) > NORM_TOL:
            raise InputError(f"state not normalized: |norm - 1| = {abs(norm - 1.0):.3e}")

    def tensor(self) -> np.ndarray:
        """Amplitudes reshaped to one axis of size 2 per site."""
        return self.amplitudes.reshape((2,) * self.num_sites)


@dataclass(frozen=True)
class DensityMatrix:
    """Hermitian, unit-trace, positive-semidefinite matrix with qubit factors."""

    entries: np.ndarray
    num_sites: int
    # derived quantities keyed by name; not part of the state's identity
    _memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        m = _complex_array(self.entries, "matrix", InputError)
        object.__setattr__(self, "entries", m)
        n = _check_qubit_shape("matrix", m.shape, 2, self.num_sites)
        object.__setattr__(self, "num_sites", n)
        herm = float(np.max(np.abs(m - m.conj().T)))
        if herm > HERMITICITY_TOL:
            raise NotHermitian(f"Hermiticity residual {herm:.3e} exceeds {HERMITICITY_TOL}")
        tr = complex(np.trace(m))
        if abs(tr - 1.0) > NORM_TOL:
            raise InputError(f"trace {tr} not 1 within {NORM_TOL}")
        spectrum = np.linalg.eigvalsh(m)
        low = float(spectrum[0])
        if low < PSD_EIGENVALUE_FLOOR:
            raise InputError(f"eigenvalue {low:.3e} below PSD floor {PSD_EIGENVALUE_FLOOR}")
        self._memo["spectrum"] = spectrum


@dataclass(frozen=True)
class SchmidtSpectrum:
    """Squared Schmidt coefficients of a bipartite cut, descending."""

    coefficients: tuple[float, ...]

    def __post_init__(self):
        weights = _complex_array(self.coefficients, "Schmidt weights", InputError)
        if weights.ndim != 1 or weights.imag.any():
            raise InputError(f"need a real Schmidt weight list, got {brief(self.coefficients)}")
        coeffs = tuple(weights.real.tolist())
        object.__setattr__(self, "coefficients", coeffs)
        if any(c < -NORM_TOL for c in coeffs):
            raise InputError(f"negative Schmidt weight in {coeffs}")
        if abs(sum(coeffs) - 1.0) > NORM_TOL:
            raise InputError(f"Schmidt weights sum to {sum(coeffs)}, expected 1")

    @property
    def rank(self) -> int:
        return sum(1 for c in self.coefficients if c > 1e-10)


def make_pure(amplitudes: Sequence[complex], num_sites: int) -> PureState:
    """Build a PureState, rescaling the input vector to unit norm.

    Raises InputError unless they are finite numbers, DimensionMismatch
    if their count is not 2**num_sites and ZeroVector if their norm is
    below 1e-12.
    """
    amps = _complex_array(amplitudes, "amplitudes", InputError).ravel()
    n = _check_qubit_shape("vector", amps.shape, 1, num_sites)
    return _trusted(PureState, _normalized(amps, "vector"), n)


def _normalized(v: np.ndarray, what: str) -> np.ndarray:
    """v / ||v|| for a finite complex vector v, scaled by its largest
    modulus first if the squares overflow; ZeroVector naming `what` if
    the norm is below 1e-12."""
    with np.errstate(over="ignore"):
        norm = float(np.linalg.norm(v))
    if norm == np.inf:
        v = v / np.max(np.abs(v))
        norm = float(np.linalg.norm(v))
    if norm < 1e-12:
        raise ZeroVector(f"cannot normalize a (near-)zero {what}")
    return v / norm


def _trusted(cls, *values, **memo):
    """A cls (a state, Partition, Invariants or result dataclass) of field
    values qent built out of checked ones, without __post_init__'s checks.  Its
    arrays become read-only, and the keyword arguments fill a state's memo."""
    obj = object.__new__(cls)
    for name, value in zip(cls.__dataclass_fields__, (*values, memo)):  # memo fills _memo, if any
        if isinstance(value, np.ndarray):
            value.setflags(write=False)
        object.__setattr__(obj, name, value)
    return obj


def _pure(state) -> PureState:
    """state itself; IncompatibleInput unless it is a PureState."""
    return _kind(state, PureState, "a pure state")


def _density(state) -> DensityMatrix:
    """The density matrix of a state: a DensityMatrix itself, or
    density_of(psi) for a PureState; IncompatibleInput for anything else."""
    if isinstance(state, DensityMatrix):
        return state
    if isinstance(state, PureState):
        return density_of(state)
    raise IncompatibleInput(f"need a pure state or a density matrix, got {type(state).__name__}")


def density_of(psi: PureState) -> DensityMatrix:
    """Rank-1 projector |psi><psi| as a DensityMatrix, with psi (one
    column) memoized as its factor."""
    amps = _pure(psi).amplitudes
    return _trusted(DensityMatrix, np.outer(amps, amps.conj()), psi.num_sites, factor=amps[:, None])


def _first_kept(d: np.ndarray) -> int:
    """Index of the first of the ascending eigenvalues d above the floor
    8 eps * max(largest, 1)."""
    floor = 8.0 * np.finfo(float).eps * max(float(d[-1]), 1.0)
    return int(np.searchsorted(d, floor, side="right"))


def density_factor(
    state: Union[PureState, DensityMatrix], max_rank: int
) -> Optional[np.ndarray]:
    """W with rho = W W^dag for the state's density matrix rho, one
    column per eigenvalue above 8 eps * max(largest, 1), or None when
    there are more than max_rank such columns.

    The eigenvalues at or below that floor are rounding dust or the PSD
    slack >= PSD_EIGENVALUE_FLOOR that validation lets through; W drops
    them.  W is psi (one column) for a pure state and for density_of(psi),
    which records psi.  Any other density matrix counts its rank in its
    spectrum (the one validation computed, or one eigvalsh memoized on
    first use for a trusted matrix), so refusing a state of too high a
    rank costs no eigh, and otherwise takes W from one eigh.  W is not
    memoized.  Anything that is not a state raises IncompatibleInput.
    """
    if isinstance(state, PureState):
        w = state.amplitudes[:, None]
    else:
        w = _kind(state, DensityMatrix, "a state")._memo.get("factor")
    if w is None:
        d = state._memo.get("spectrum")
        if d is None:
            d = state._memo.setdefault("spectrum", np.linalg.eigvalsh(state.entries))
        if d.size - _first_kept(d) > max_rank:
            return None
        d, u = np.linalg.eigh(state.entries)
        kept = _first_kept(d)
        w = u[:, kept:] * np.sqrt(d[kept:])
    return w if w.shape[1] <= max_rank else None


def partial_trace(
    rho: Union[PureState, DensityMatrix], keep: Union[int, Iterable[int]]
) -> DensityMatrix:
    """Trace out every site not in `keep`; result has num_sites = len(keep).
    A pure state is traced from its projector."""
    rho = _density(rho)
    n = rho.num_sites
    keep_t = sites_tuple(keep, n)
    drop = [s for s in range(n) if s not in keep_t]
    t = rho.entries.reshape((2,) * (2 * n))
    remaining = n
    for site in sorted(drop, reverse=True):
        t = np.trace(t, axis1=site, axis2=site + remaining)
        remaining -= 1
    dim = 2 ** len(keep_t)
    return _trusted(DensityMatrix, t.reshape(dim, dim), len(keep_t))


def reduced_density_pure(psi: PureState, keep: Union[int, Iterable[int]]) -> np.ndarray:
    """Reduced density matrix of a pure state, materialized from the
    amplitude tensor (fast path; agrees with partial_trace of the full
    projector to better than 1e-12)."""
    return _reduced_density_pure(psi, sites_tuple(keep, _pure(psi).num_sites))


def _reduced_density_pure(psi: PureState, keep: tuple[int, ...]) -> np.ndarray:
    m = _amplitude_matrix(psi, keep)
    return m @ m.conj().T


def _amplitude_matrix(psi: PureState, side_a: tuple[int, ...]) -> np.ndarray:
    """Amplitudes as a (2^|A|, 2^|Abar|) matrix, rows indexed by side A."""
    other = [s for s in range(psi.num_sites) if s not in side_a]
    return psi.tensor().transpose(list(side_a) + other).reshape(2 ** len(side_a), -1)


def schmidt_weights(psi: PureState, side_a: Union[int, Iterable[int]]) -> np.ndarray:
    """Squared Schmidt coefficients across the cut side_a | rest, descending.

    Computed as squared singular values of the amplitude matrix, which
    keeps structurally-zero coefficients at exactly zero.
    """
    n = _pure(psi).num_sites
    side = sites_tuple(side_a, n)
    if len(side) >= n:
        raise IndexOutOfRange("side A must be a proper subset of the sites")
    sing = np.linalg.svd(_amplitude_matrix(psi, side), compute_uv=False)
    return np.clip(sing, 0.0, None) ** 2


def schmidt_spectrum(psi: PureState, side_a: Union[int, Iterable[int]]) -> SchmidtSpectrum:
    """Schmidt spectrum of the cut side_a | rest (eigenvalues of the
    reduced matrix on side A, descending)."""
    return SchmidtSpectrum(tuple(schmidt_weights(psi, side_a)))


def partial_transpose(rho: Union[PureState, DensityMatrix], site: int) -> np.ndarray:
    """Transpose of one tensor factor of rho.

    Returns a plain Hermitian unit-trace matrix that may fail positive
    semidefiniteness; applying the same transpose twice restores rho.  A
    pure state is transposed from its projector.
    """
    rho = _density(rho)
    return partial_transpose_sites(rho.entries, (site,), rho.num_sites)


def partial_transpose_sites(
    matrix: np.ndarray, sites: Union[int, Iterable[int]], num_sites: int
) -> np.ndarray:
    """Transpose the tensor factors listed in `sites` of a 2^n x 2^n matrix."""
    sites_t = sites_tuple(sites, num_sites)
    t = matrix.reshape((2,) * (2 * num_sites))
    for s in sites_t:
        t = t.swapaxes(s, s + num_sites)
    return np.ascontiguousarray(t).reshape(2**num_sites, 2**num_sites)


def _square(m: Union[DensityMatrix, np.ndarray]) -> np.ndarray:
    """The entries of a DensityMatrix, or of a raw square matrix of finite
    numbers as a complex copy; InputError or DimensionMismatch otherwise."""
    if isinstance(m, DensityMatrix):
        return m.entries
    a = _complex_array(m, "matrix", InputError)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionMismatch(f"need a square matrix, got shape {brief(a.shape)}")
    return a


def purity(rho: Union[DensityMatrix, np.ndarray]) -> float:
    """Tr(rho^2), real, of a DensityMatrix or a square matrix of numbers."""
    return _purity(_square(rho))


def _purity(m: np.ndarray) -> float:
    return float(np.real(np.einsum("ij,ji->", m, m)))


def hermitian_eigenvalues(m: Union[DensityMatrix, np.ndarray]) -> np.ndarray:
    """Real spectrum of a Hermitian matrix, ascending.

    Raises InputError or DimensionMismatch unless m is a DensityMatrix or
    a square matrix of finite numbers, and NotHermitian if the
    Hermiticity residual exceeds 1e-8.
    """
    a = _square(m)
    resid = float(np.max(np.abs(a - a.conj().T))) if a.size else 0.0
    if resid > SPECTRAL_TOL:
        raise NotHermitian(f"Hermiticity residual {resid:.3e} exceeds {SPECTRAL_TOL}")
    return np.linalg.eigvalsh(a)


def apply_local_unitary(psi: PureState, site: int, u: np.ndarray) -> PureState:
    """Apply a 2x2 unitary to one site of a pure state."""
    n = _pure(psi).num_sites
    site = _integer(site, "site", 0, n - 1, IndexOutOfRange)
    u = _complex_array(u, "local unitary", InputError)
    if u.shape != (2, 2):
        raise DimensionMismatch(f"local unitary must be 2x2, got {u.shape}")
    resid = float(np.max(np.abs(u.conj().T @ u - np.eye(2))))
    if resid > NORM_TOL:
        raise NotUnitary(f"unitarity residual {resid:.3e} exceeds {NORM_TOL}")
    t = np.tensordot(u, psi.tensor(), axes=([1], [site]))
    t = np.moveaxis(t, 0, site)
    return PureState(t.reshape(-1), n)


def state_to_json(state: Union[PureState, DensityMatrix]) -> str:
    """Serialize a state to the interchange JSON format."""
    if isinstance(state, PureState):
        payload = {
            "kind": "pure",
            "num_sites": state.num_sites,
            "amplitudes": [[float(a.real), float(a.imag)] for a in state.amplitudes],
        }
    elif isinstance(state, DensityMatrix):
        payload = {
            "kind": "density",
            "num_sites": state.num_sites,
            "matrix": [
                [[float(e.real), float(e.imag)] for e in row] for row in state.entries
            ],
        }
    else:
        raise InputError(f"cannot serialize {type(state).__name__}")
    return json.dumps(payload)


def _holds_bool(value) -> bool:
    """True if value, or any item of its nested lists, is a bool."""
    if isinstance(value, list):
        return any(_holds_bool(v) for v in value)
    return isinstance(value, bool)


def state_from_json(text: str) -> Union[PureState, DensityMatrix]:
    """Parse the interchange JSON format, rejecting out-of-tolerance input."""
    try:
        payload = json.loads(text)
    except (TypeError, ValueError) as exc:  # not text, bad JSON, or an int of over 4300 digits
        raise InputError(f"invalid JSON: {exc}") from exc
    if not isinstance(payload, dict) or "kind" not in payload:
        raise InputError("state JSON must be an object with a 'kind' field")
    kind = payload.get("kind")
    n = payload.get("num_sites")
    try:  # 3, 3.0 and "3" are 3; 3.7, "3.0" and true are refused
        if isinstance(n, bool) or not float(n).is_integer():
            raise ValueError(n)
        n = int(n)
    except (TypeError, ValueError, OverflowError) as exc:
        raise InputError("missing or non-integer 'num_sites'") from exc
    # JSON true and false would pass complex() as 1 and 0; the walk is paid
    # only by files that hold such a token
    entries = payload.get("amplitudes" if kind == "pure" else "matrix")
    if ("true" in text or "false" in text) and _holds_bool(entries):
        raise InputError("state entries must be numbers, not true or false")
    try:
        if kind == "pure":
            return PureState([complex(re, im) for re, im in payload["amplitudes"]], n)
        if kind == "density":
            m = [[complex(re, im) for re, im in row] for row in payload["matrix"]]
            return DensityMatrix(m, n)
    except InputError:
        raise
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise InputError(f"malformed state payload: {exc}") from exc
    raise InputError(f"unknown state kind {kind!r}")


def load_state(path) -> Union[PureState, DensityMatrix]:
    with open(path, "r", encoding="utf-8") as fh:
        return state_from_json(fh.read())


def save_state(state: Union[PureState, DensityMatrix], path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(state_to_json(state))
