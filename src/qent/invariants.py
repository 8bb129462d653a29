"""Degree-2 and degree-4 polynomial local-unitary invariants.

For pure states the degree-2 invariant is the norm <psi|psi> and the
degree-4 invariants are subsystem purities.  Three qubits carry four
independent degree-4 invariants (norm^2 plus the three single-site
purities); four qubits carry seven (four single-site plus the three
pair purities that include site D).  Site letters map as A=0, B=1,
C=2, D=3.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, InputError, _kind, _real, brief
from .qstate import PureState, _pure, _purity, _reduced_density_pure, _trusted, clamped_sqrt

# 3-partitions of A,B,C,D as (site, site, complement-pair purity index into i4)
_C3_COMBOS_4Q = ((3, 2, 6), (3, 1, 5), (3, 0, 4), (2, 1, 4), (2, 0, 5), (1, 0, 6))


@dataclass(frozen=True)
class Invariants3:
    """Three-qubit invariants: i2 = <psi|psi>, i4 = (i2^2, Tr rho_A^2,
    Tr rho_B^2, Tr rho_C^2)."""

    i2: float
    i4: tuple[float, float, float, float]

    def __post_init__(self):
        _check_fields(self, 4)


@dataclass(frozen=True)
class Invariants4:
    """Four-qubit invariants: i2 = <psi|psi>, i4 = (Tr rho_D^2, Tr rho_C^2,
    Tr rho_B^2, Tr rho_A^2, Tr rho_AD^2, Tr rho_BD^2, Tr rho_CD^2)."""

    i2: float
    i4: tuple[float, float, float, float, float, float, float]

    def __post_init__(self):
        _check_fields(self, 7)


def _check_fields(inv, count: int) -> None:
    """Keep inv.i2 and inv.i4 as Python floats; InputError unless i2 is a
    finite real number > 0 and i4 a list or tuple of `count` of them."""
    if not (isinstance(inv.i4, (list, tuple)) and len(inv.i4) == count):
        raise InputError(f"{type(inv).__name__}.i4 must be {count} numbers, got {brief(inv.i4)}")
    if (i2 := _real(inv.i2, "i2", error=InputError)) <= 0:
        raise InputError(f"i2 must be positive, got {i2:.6g}")
    object.__setattr__(inv, "i2", i2)
    object.__setattr__(inv, "i4", tuple(_real(v, "i4 entry", error=InputError) for v in inv.i4))


def _site_purity(psi: PureState, sites: tuple[int, ...]) -> float:
    return _purity(_reduced_density_pure(psi, sites))


def invariants3(psi: PureState) -> Invariants3:
    """Degree-2 and degree-4 invariants of a three-qubit pure state."""
    if _pure(psi).num_sites != 3:
        raise DimensionMismatch(f"need a three-qubit state, got {psi.num_sites} sites")
    i2 = float(np.real(np.vdot(psi.amplitudes, psi.amplitudes)))
    return _trusted(Invariants3, i2, (i2 * i2, *(_site_purity(psi, (p,)) for p in range(3))))


def tangles_from_invariants3(
    inv: Invariants3, tau_abc: float
) -> tuple[float, float, float]:
    """Two-tangles (tau_AB, tau_AC, tau_BC) from the invariants and the
    three-tangle of the same state:

        tau_AB = 1 - I4_2 - I4_3 + I4_4 - tau_ABC / 2

    and cyclic sign patterns for tau_AC, tau_BC.
    """
    _, pa, pb, pc = _kind(inv, Invariants3, "Invariants3").i4
    half = _real(tau_abc, "tau_abc", error=InputError) / 2.0
    return (
        1.0 - pa - pb + pc - half,
        1.0 - pa + pb - pc - half,
        1.0 + pa - pb - pc - half,
    )


def kme_from_invariants3(inv: Invariants3) -> tuple[float, float]:
    """(C_2-ME, C_3-ME) of a three-qubit pure state from its invariants:

        C_2-ME = sqrt(2 (I2 - max single-site purity))
        C_3-ME = sqrt(2/3 (3 I2 - sum of single-site purities))

    Degree-4 invariants enter divided by I2 (a no-op at I2 = 1) so that
    the norm's rounding dust cancels instead of leaking through the
    square root, and unnormalized diagnostics stay degree-consistent.
    """
    purities = _kind(inv, Invariants3, "Invariants3").i4[1:]
    c2 = clamped_sqrt(2.0 * (inv.i2 - max(purities) / inv.i2))
    c3 = clamped_sqrt(2.0 / 3.0 * (3.0 * inv.i2 - sum(purities) / inv.i2))
    return (c2, c3)


def invariants4(psi: PureState) -> Invariants4:
    """Degree-2 and degree-4 invariants of a four-qubit pure state, in the
    fixed order (D, C, B, A, AD, BD, CD)."""
    if _pure(psi).num_sites != 4:
        raise DimensionMismatch(f"need a four-qubit state, got {psi.num_sites} sites")
    i2 = float(np.real(np.vdot(psi.amplitudes, psi.amplitudes)))
    sites = ((3,), (2,), (1,), (0,), (0, 3), (1, 3), (2, 3))
    return _trusted(Invariants4, i2, tuple(_site_purity(psi, s) for s in sites))


def kme_from_invariants4(inv: Invariants4) -> tuple[float, float, float]:
    """(C_2-ME, C_3-ME, C_4-ME) of a four-qubit pure state from its
    invariants.

    C_2-ME minimizes over all seven degree-4 purities; C_3-ME minimizes
    the six site-site-pair combinations (pair purity standing in for
    its complement); C_4-ME uses the four single-site purities.

    As in kme_from_invariants3, degree-4 invariants enter divided by I2
    to keep the norm's rounding dust out of the square roots.
    """
    i2, i4 = _kind(inv, Invariants4, "Invariants4").i2, inv.i4
    c2 = clamped_sqrt(2.0 * (i2 - max(i4) / i2))
    c3 = min(
        clamped_sqrt(2.0 / 3.0 * (3.0 * i2 - (i4[p] + i4[q] + i4[pair]) / i2))
        for p, q, pair in _C3_COMBOS_4Q
    )
    c4 = clamped_sqrt((4.0 * i2 - (i4[0] + i4[1] + i4[2] + i4[3]) / i2) / 2.0)
    return (c2, c3, c4)
