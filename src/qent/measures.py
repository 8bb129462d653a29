"""Entanglement measures: negativity, concurrences, and the tangle hierarchy.

For a pure state and a k-partition A_1|...|A_k the k-ME concurrence
candidate value is sqrt(2/k * sum_t (1 - Tr rho_{A_t}^2)); the measure
is the minimum over all k-partitions.  Negativity of qubit p is the
trace norm of the partial transpose minus one (identically minus twice
the sum of negative transposed eigenvalues).
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Union

import numpy as np

from .errors import DimensionMismatch, IndexOutOfRange, OutOfRange
from .partitions import Partition, k_partitions
from .qstate import (
    DensityMatrix,
    PureState,
    clamped_sqrt,
    hermitian_eigenvalues,
    partial_transpose,
    reduced_density_pure,
    schmidt_weights,
)

# eigenvalues of a partial transpose above this are treated as non-negative
NEGATIVE_EIGENVALUE_FLOOR = -1e-12

_SY = np.array([[0.0, -1.0j], [1.0j, 0.0]])
_SYY = np.kron(_SY, _SY)


@dataclass(frozen=True)
class MeasureReport:
    """A measure's value plus the minimizing partition and the full scan."""

    measure_name: str
    value: float
    optimal_partition: Optional[Partition]
    per_partition: tuple[tuple[Partition, float], ...]

    def __post_init__(self):
        if self.value < 0.0:
            raise ValueError(f"measure value {self.value} negative")
        if self.per_partition:
            low = min(v for _, v in self.per_partition)
            if abs(self.value - low) > 1e-12:
                raise ValueError(
                    f"value {self.value} is not the per-partition minimum {low}"
                )


@dataclass(frozen=True)
class NegativityProfile:
    """Per-site negativities N^0..N^{n-1} of one qubit state."""

    per_site: tuple[float, ...]

    def __post_init__(self):
        for v in self.per_site:
            if not -1e-9 <= v <= 1.0 + 1e-9:
                raise ValueError(f"qubit negativity {v} outside [0, 1]")


def linear_entropy_pure(psi: PureState, block: Union[int, Iterable[int]]) -> float:
    """1 - Tr(rho_block^2) for a pure state.

    Evaluated as 2 * sum_{i<j} lambda_i lambda_j over the squared
    Schmidt coefficients of the cut, which keeps structural zeros exact
    instead of cancelling 1 against a purity.
    """
    lam = schmidt_weights(psi, block)
    if lam.size < 2:
        return 0.0
    tail = np.cumsum(lam[::-1])[::-1]
    return float(2.0 * np.dot(lam[:-1], tail[1:]))


def negativity(rho: DensityMatrix, site: int) -> float:
    """Negativity of one qubit against the rest.

    Equals ||rho^{T_site}||_1 - 1; computed from the negative eigenvalues
    of the partial transpose, with eigenvalues above -1e-12 treated as
    zero.
    """
    ev = hermitian_eigenvalues(partial_transpose(rho, site))
    neg = ev[ev <= NEGATIVE_EIGENVALUE_FLOOR]
    return float(-2.0 * neg.sum()) + 0.0


def negativity_profile(rho: DensityMatrix) -> NegativityProfile:
    """Negativity of every site of rho (qubit normalization)."""
    return NegativityProfile(tuple(negativity(rho, p) for p in range(rho.num_sites)))


def bipartite_concurrence_pure(psi: PureState, side_a: Union[int, Iterable[int]]) -> float:
    """Concurrence sqrt(2 * (1 - Tr rho_A^2)) of a pure state across one cut."""
    return clamped_sqrt(2.0 * linear_entropy_pure(psi, side_a))


def kme_concurrence_pure(psi: PureState, k: int) -> MeasureReport:
    """k-ME concurrence of a pure state: minimum over all k-partitions of
    sqrt(2/k * sum_t (1 - Tr rho_{A_t}^2)).

    Exact ties are broken toward the lexicographically smallest
    canonical partition (blocks compared as tuples).
    """
    n = psi.num_sites
    if not 2 <= k <= n:
        raise OutOfRange(f"need 2 <= k <= num_sites, got k={k}, n={n}")
    scan = []
    for part in k_partitions(n, k):
        s = sum(linear_entropy_pure(psi, block) for block in part.blocks)
        scan.append((part, clamped_sqrt(2.0 * s / k)))
    value = min(v for _, v in scan)
    best = min((p for p, v in scan if v == value), key=lambda p: p.blocks)
    return MeasureReport(
        measure_name=f"C_{k}-ME",
        value=value,
        optimal_partition=best,
        per_partition=tuple(scan),
    )


def nme_lower_bound(rho: DensityMatrix) -> float:
    """Quadratic mean of the per-site negativities, sqrt(sum_p (N^p)^2 / n).

    Lower-bounds the n-ME concurrence of any n-qubit state; equals it
    exactly on pure states.
    """
    prof = negativity_profile(rho)
    return float(np.sqrt(sum(v * v for v in prof.per_site) / rho.num_sites))


def one_tangle(psi: PureState, site: int) -> float:
    """4 det(rho_site): squared concurrence of one site against the rest."""
    n = psi.num_sites
    if not 0 <= int(site) < n:
        raise IndexOutOfRange(f"site {site} outside [0, {n})")
    red = reduced_density_pure(psi, (int(site),))
    return float(np.real(np.linalg.det(red)) * 4.0)


def _spin_flip_singular_values(rho: DensityMatrix) -> np.ndarray:
    """Descending square roots of the eigenvalues of rho * rho_tilde.

    rho_tilde is (sigma_y x sigma_y) rho* (sigma_y x sigma_y).  With the
    eigendecomposition rho = U D U^dag and W = U sqrt(D), the nonzero
    eigenvalues of rho * rho_tilde equal the squared singular values of
    the symmetric matrix W^T (sigma_y x sigma_y) W, so the square roots
    come straight out of an SVD with no precision loss near zero.
    """
    d, u = np.linalg.eigh(rho.entries)
    floor = 8.0 * np.finfo(float).eps * max(float(d[-1]), 1.0)
    d = np.where(d > floor, d, 0.0)
    w = u * np.sqrt(d)
    s = w.T @ _SYY @ w
    sig = np.linalg.svd(s, compute_uv=False)
    return np.sort(np.concatenate([sig, np.zeros(4 - sig.size)]))[::-1]


def wootters_concurrence(rho: DensityMatrix) -> float:
    """Two-qubit mixed-state concurrence, max(0, mu1 - mu2 - mu3 - mu4)
    over the descending square roots mu_i of the spectrum of
    rho * (sy x sy) rho* (sy x sy)."""
    if rho.num_sites != 2:
        raise DimensionMismatch(f"need a two-qubit state, got {rho.num_sites} sites")
    mu = _spin_flip_singular_values(rho)
    return float(max(0.0, mu[0] - mu[1] - mu[2] - mu[3]))


def two_tangle(rho: DensityMatrix) -> float:
    """Squared Wootters concurrence of a two-qubit state."""
    return wootters_concurrence(rho) ** 2


def _pair_tangle(psi: PureState, pair: tuple[int, int]) -> float:
    red = DensityMatrix(reduced_density_pure(psi, pair), 2)
    return two_tangle(red)


def three_tangle_raw(psi: PureState) -> float:
    """Residual tripartite tangle before clamping:
    4 det(rho_A) - tau(rho_AB) - tau(rho_AC) with A = site 0."""
    if psi.num_sites != 3:
        raise DimensionMismatch(f"need a three-qubit state, got {psi.num_sites} sites")
    return one_tangle(psi, 0) - _pair_tangle(psi, (0, 1)) - _pair_tangle(psi, (0, 2))


def three_tangle(psi: PureState) -> float:
    """Residual tripartite tangle, clamped to [0, 1].

    Pivot-independent: evaluating with site 1 or 2 as the pivot agrees
    to better than 1e-8.
    """
    return float(min(1.0, max(0.0, three_tangle_raw(psi))))
