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
given.  Density matrices that qent builds from states it already holds
(density_of, partial_trace, families.ghz_noise, verify.Ensemble.density)
come from _trusted_density and skip the checks.

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
import math
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence, Union

import numpy as np

from .errors import (
    DimensionMismatch,
    IndexOutOfRange,
    InputError,
    NotHermitian,
    NotUnitary,
    ZeroVector,
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
            raise ValueError(f"sqrt argument {x} below clamp floor {SQRT_CLAMP_FLOOR}")
        return 0.0
    return float(np.sqrt(x))


def sites_tuple(sites: Union[int, Iterable[int]], num_sites: int) -> tuple[int, ...]:
    """Canonicalize a subsystem set to a sorted tuple of distinct site indices."""
    if isinstance(sites, (int, np.integer)):
        sites = (int(sites),)
    out = tuple(sorted(int(s) for s in sites))
    if not out:
        raise IndexOutOfRange("subsystem set must be non-empty")
    if len(set(out)) != len(out):
        raise IndexOutOfRange(f"duplicate site indices in {out}")
    if out[0] < 0 or out[-1] >= num_sites:
        raise IndexOutOfRange(f"sites {out} outside [0, {num_sites})")
    return out


def _check_qubit_shape(what: str, shape: tuple, ndim: int, n: int) -> None:
    """DimensionMismatch unless shape is ndim axes of 2**n each, n >= 1.
    2**n is never formed for an n that no axis could match, and the
    message cuts a huge n short."""
    if n < 1 or len(shape) != ndim or any(d.bit_length() != n + 1 or d != 2**n for d in shape):
        raise DimensionMismatch(f"{what} of shape {shape} does not match {brief(n)} qubits")


def _frozen_array(a: np.ndarray) -> np.ndarray:
    a = np.array(a, dtype=complex)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class PureState:
    """Normalized complex amplitude vector over num_sites qubit factors."""

    amplitudes: np.ndarray
    num_sites: int
    # derived quantities keyed by name; not part of the state's identity
    _memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        amps = _frozen_array(self.amplitudes)
        object.__setattr__(self, "amplitudes", amps)
        _check_qubit_shape("amplitude vector", amps.shape, 1, self.num_sites)
        if not np.isfinite(amps).all():
            raise InputError("amplitudes contain non-finite values (NaN or Inf)")
        norm = float(np.linalg.norm(amps))
        if abs(norm - 1.0) > NORM_TOL:
            raise InputError(f"state not normalized: |norm - 1| = {abs(norm - 1.0):.3e}")

    @property
    def dim(self) -> int:
        return 2**self.num_sites

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
        m = _frozen_array(self.entries)
        object.__setattr__(self, "entries", m)
        _check_qubit_shape("matrix", m.shape, 2, self.num_sites)
        if not np.isfinite(m).all():
            raise InputError("matrix contains non-finite values (NaN or Inf)")
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

    @property
    def dim(self) -> int:
        return 2**self.num_sites


@dataclass(frozen=True)
class SchmidtSpectrum:
    """Squared Schmidt coefficients of a bipartite cut, descending."""

    coefficients: tuple[float, ...]

    def __post_init__(self):
        coeffs = tuple(float(c) for c in self.coefficients)
        object.__setattr__(self, "coefficients", coeffs)
        if not all(math.isfinite(c) for c in coeffs):
            raise InputError(f"non-finite Schmidt weight in {coeffs}")
        if any(c < -NORM_TOL for c in coeffs):
            raise InputError(f"negative Schmidt weight in {coeffs}")
        if abs(sum(coeffs) - 1.0) > NORM_TOL:
            raise InputError(f"Schmidt weights sum to {sum(coeffs)}, expected 1")

    @property
    def rank(self) -> int:
        return sum(1 for c in self.coefficients if c > 1e-10)


def make_pure(amplitudes: Sequence[complex], num_sites: int) -> PureState:
    """Build a PureState, rescaling the input vector to unit norm.

    Raises DimensionMismatch if the length is not 2**num_sites and
    ZeroVector if the norm is below 1e-12.
    """
    amps = np.asarray(amplitudes, dtype=complex).ravel()
    _check_qubit_shape("vector", amps.shape, 1, num_sites)
    with np.errstate(over="ignore"):
        norm = float(np.linalg.norm(amps))
    if norm == np.inf:  # the squares overflowed: scale by the largest modulus first
        amps = amps / np.max(np.abs(amps))
        norm = float(np.linalg.norm(amps))
    if norm < 1e-12:
        raise ZeroVector("cannot normalize a (near-)zero vector")
    return PureState(amps / norm, num_sites)


def _trusted_density(entries: np.ndarray, num_sites: int, **memo) -> DensityMatrix:
    """A DensityMatrix of a 2^n x 2^n complex matrix that qent built as
    one from states it holds, without validation's checks; `entries`
    must not be written afterwards.  The keyword arguments seed its memo."""
    rho = object.__new__(DensityMatrix)
    entries.setflags(write=False)
    object.__setattr__(rho, "entries", entries)
    object.__setattr__(rho, "num_sites", num_sites)
    object.__setattr__(rho, "_memo", memo)
    return rho


def density_of(psi: PureState) -> DensityMatrix:
    """Rank-1 projector |psi><psi| as a DensityMatrix, with psi (one
    column) memoized as its factor."""
    amps = psi.amplitudes
    return _trusted_density(np.outer(amps, amps.conj()), psi.num_sites, factor=amps[:, None])


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
    memoized.
    """
    if isinstance(state, PureState):
        w = state.amplitudes[:, None]
    else:
        w = state._memo.get("factor")
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


def partial_trace(rho: DensityMatrix, keep: Union[int, Iterable[int]]) -> DensityMatrix:
    """Trace out every site not in `keep`; result has num_sites = len(keep)."""
    n = rho.num_sites
    keep_t = sites_tuple(keep, n)
    drop = [s for s in range(n) if s not in keep_t]
    t = rho.entries.reshape((2,) * (2 * n))
    remaining = n
    for site in sorted(drop, reverse=True):
        t = np.trace(t, axis1=site, axis2=site + remaining)
        remaining -= 1
    dim = 2 ** len(keep_t)
    return _trusted_density(t.reshape(dim, dim), len(keep_t))


def reduced_density_pure(psi: PureState, keep: Union[int, Iterable[int]]) -> np.ndarray:
    """Reduced density matrix of a pure state, materialized from the
    amplitude tensor (fast path; agrees with partial_trace of the full
    projector to better than 1e-12)."""
    m = _amplitude_matrix(psi, sites_tuple(keep, psi.num_sites))
    return m @ m.conj().T


def _amplitude_matrix(psi: PureState, side_a: tuple[int, ...]) -> np.ndarray:
    """Amplitudes as a (2^|A|, 2^|Abar|) matrix, rows indexed by side A."""
    n = psi.num_sites
    other = [s for s in range(n) if s not in side_a]
    return psi.tensor().transpose(list(side_a) + other).reshape(2 ** len(side_a), -1)


def schmidt_weights(psi: PureState, side_a: Union[int, Iterable[int]]) -> np.ndarray:
    """Squared Schmidt coefficients across the cut side_a | rest, descending.

    Computed as squared singular values of the amplitude matrix, which
    keeps structurally-zero coefficients at exactly zero.
    """
    n = psi.num_sites
    side = sites_tuple(side_a, n)
    if len(side) >= n:
        raise IndexOutOfRange("side A must be a proper subset of the sites")
    sing = np.linalg.svd(_amplitude_matrix(psi, side), compute_uv=False)
    return np.clip(sing, 0.0, None) ** 2


def schmidt_spectrum(psi: PureState, side_a: Union[int, Iterable[int]]) -> SchmidtSpectrum:
    """Schmidt spectrum of the cut side_a | rest (eigenvalues of the
    reduced matrix on side A, descending)."""
    return SchmidtSpectrum(tuple(schmidt_weights(psi, side_a)))


def partial_transpose(rho: DensityMatrix, site: int) -> np.ndarray:
    """Transpose of one tensor factor of rho.

    Returns a plain Hermitian unit-trace matrix that may fail positive
    semidefiniteness; applying the same transpose twice restores rho.
    """
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


def purity(rho: Union[DensityMatrix, np.ndarray]) -> float:
    """Tr(rho^2), real."""
    m = rho.entries if isinstance(rho, DensityMatrix) else np.asarray(rho)
    return float(np.real(np.einsum("ij,ji->", m, m)))


def hermitian_eigenvalues(m: Union[DensityMatrix, np.ndarray]) -> np.ndarray:
    """Real spectrum of a Hermitian matrix, ascending.

    Raises NotHermitian if the Hermiticity residual exceeds 1e-8.
    """
    a = m.entries if isinstance(m, DensityMatrix) else np.asarray(m, dtype=complex)
    resid = float(np.max(np.abs(a - a.conj().T))) if a.size else 0.0
    if resid > SPECTRAL_TOL:
        raise NotHermitian(f"Hermiticity residual {resid:.3e} exceeds {SPECTRAL_TOL}")
    return np.linalg.eigvalsh(a)


def apply_local_unitary(psi: PureState, site: int, u: np.ndarray) -> PureState:
    """Apply a 2x2 unitary to one site of a pure state."""
    n = psi.num_sites
    if not 0 <= site < n:
        raise IndexOutOfRange(f"site {site} outside [0, {n})")
    u = np.asarray(u, dtype=complex)
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
    except ValueError as exc:  # JSONDecodeError, or an integer of over 4300 digits
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
            amps = np.array(
                [complex(re, im) for re, im in payload["amplitudes"]], dtype=complex
            )
            return PureState(amps, n)
        if kind == "density":
            m = np.array(
                [[complex(re, im) for re, im in row] for row in payload["matrix"]],
                dtype=complex,
            )
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
