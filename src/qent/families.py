"""Named state constructors and their closed-form measure predictions.

Covers GHZ and W states, W-class states with arbitrary coefficients,
GHZ states mixed with white noise, and the nine four-qubit SLOCC
normal forms G_abcd, L_abc2, L_a2b2, L_ab3, L_a4, L_a2_0(3+1),
L_0(5+3), L_0(7+1), and L_0(3+1)0(3+1), numbered 1..9.

Closed forms are evaluated exactly as printed, with one correction:
the first C_3-ME candidate for family 1 uses the squared norm of
G_abcd in its denominator (the printed denominator belongs to family
2's normalization and fails numerical validation).
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import (InputError, OutOfDomain, OutOfRange, ZeroVector, _complex, _complex_array,
                     _integer, _kind, _real)
from .measures import MAX_SITES
from .qstate import DensityMatrix, PureState, _normalized, _trusted, clamped_sqrt, make_pure

FAMILY_LABELS = {
    1: "G_abcd",
    2: "L_abc2",
    3: "L_a2b2",
    4: "L_ab3",
    5: "L_a4",
    6: "L_a2_0(3+1)",
    7: "L_0(5+3)",
    8: "L_0(7+1)",
    9: "L_0(3+1)0(3+1)",
}

# number of free complex parameters per family
FAMILY_PARAM_COUNTS = {1: 4, 2: 3, 3: 2, 4: 2, 5: 1, 6: 1, 7: 0, 8: 0, 9: 0}


@dataclass(frozen=True)
class FamilyParams:
    """Finite complex parameters (a, b, c, d) for SLOCC family family_id in 1..9."""

    family_id: int
    a: complex = 0j
    b: complex = 0j
    c: complex = 0j
    d: complex = 0j

    def __post_init__(self):
        object.__setattr__(self, "family_id", _integer(self.family_id, "family_id", 1, 9))
        for name in ("a", "b", "c", "d"):
            object.__setattr__(self, name, _complex(getattr(self, name), f"parameter {name}"))

    @property
    def label(self) -> str:
        return FAMILY_LABELS[self.family_id]

    def describe(self) -> str:
        used = FAMILY_PARAM_COUNTS[self.family_id]
        vals = [self.a, self.b, self.c, self.d][:used]
        if not vals:
            return self.label
        inner = ",".join(f"{v.real:g}{v.imag:+g}j" for v in vals)
        return f"{self.label}({inner})"


@dataclass(frozen=True)
class ClosedFormPrediction:
    """Closed-form values of C_2-ME, C_3-ME, C_4-ME and the per-site
    negativities for one family member.

    c2_min_negativity records whether C_2-ME = min_p N^p is predicted:
    "holds" for the unconditional families 6..9, "conditional" when a
    parameter condition is required and satisfied (margin >= 0), and
    "fails" when the condition is violated (margin < 0).
    """

    c2: float
    c3: float
    c4: float
    negativities: tuple[float, float, float, float]
    c2_min_negativity: str
    condition_margin: Optional[float]

    def __post_init__(self):
        top = np.sqrt(2.0) + 1e-9
        for name in ("c2", "c3", "c4"):
            value = _real(getattr(self, name), f"closed-form {name}", -1e-12, top, OutOfDomain)
            object.__setattr__(self, name, value)
        values = _kind(self.negativities, (list, tuple), "four negativities", OutOfDomain)
        if len(values) != 4:
            raise OutOfDomain(f"need four closed-form negativities, got {len(values)}")
        object.__setattr__(self, "negativities", tuple(
            _real(v, "closed-form negativity", -1e-12, 1.0 + 1e-9, OutOfDomain) for v in values))
        if self.condition_margin is not None:
            margin = _real(self.condition_margin, "condition margin", error=OutOfDomain)
            object.__setattr__(self, "condition_margin", margin)
        if self.c2_min_negativity not in ("holds", "conditional", "fails"):
            raise OutOfDomain(f"bad c2_min_negativity {self.c2_min_negativity!r}")


def ghz(n: int) -> PureState:
    """(|0...0> + |1...1>) / sqrt(2) on n qubits; OutOfRange unless n is an
    integer in [2, MAX_SITES]."""
    n = _integer(n, "GHZ n", 2, MAX_SITES)
    v = np.zeros(2**n, dtype=complex)
    v[0] = v[-1] = 1.0
    return make_pure(v, n)


def w_class(coeffs: Sequence[complex]) -> PureState:
    """Single-excitation state a_1|0...01> + a_2|0...10> + ... + a_n|10...0>.

    Coefficient a_i multiplies the basis ket whose single 1 sits at
    site n - i (0-based), i.e. basis index 2^(i-1).  InputError unless
    the coefficients are finite numbers, OutOfRange unless there are 2 to
    MAX_SITES of them.
    """
    coeffs = _complex_array(coeffs, "W-class coefficients", InputError).ravel()
    n = _integer(coeffs.size, "W-class coefficient count", 2, MAX_SITES)
    v = np.zeros(2**n, dtype=complex)
    for i in range(n):
        v[2**i] = coeffs[i]
    return make_pure(v, n)


def w(n: int) -> PureState:
    """Uniform W state on n qubits; OutOfRange unless n is an integer in
    [2, MAX_SITES]."""
    n = _integer(n, "W n", 2, MAX_SITES)
    return w_class(np.ones(n) / np.sqrt(n))


def ghz_noise(n: int, t: float) -> DensityMatrix:
    """GHZ state mixed with white noise:
    (1 - t)/2^n * identity + t |GHZ_n><GHZ_n|; OutOfRange unless n is an
    integer in [2, MAX_SITES] and t a real number in [0, 1]."""
    n = _integer(n, "ghz_noise n", 2, MAX_SITES)
    t = _real(t, "ghz_noise t", 0, 1)
    g = ghz(n).amplitudes
    m = (1.0 - t) / 2**n * np.eye(2**n) + t * np.outer(g, g.conj())
    return _trusted(DensityMatrix, m, n)


def ghz_noise_threshold(n: int) -> float:
    """Visibility below which the GHZ + white-noise mixture is fully separable."""
    return 1.0 / (2 ** (_integer(n, "ghz_noise n", 2, MAX_SITES) - 1) + 1)


def ghz_noise_negativity(n: int, t: float) -> float:
    """Per-site negativity of the GHZ + white-noise mixture,
    ((2^(n-1) + 1) t - 1) / 2^(n-1), clamped at 0 below the separability
    threshold."""
    n = _integer(n, "ghz_noise n", 2, MAX_SITES)
    t = _real(t, "ghz_noise t", 0, 1)
    half = 2 ** (n - 1)
    return max(0.0, ((half + 1) * t - 1.0) / half)


def ghz_noise_nme_exact(n: int, t: float) -> float:
    """Exact n-ME concurrence of the GHZ + white-noise mixture,
    ((2^(n-1) + 1) t - 1) / 2^(n-1), valid for t between the
    separability threshold and 1 (OutOfDomain otherwise)."""
    n = _integer(n, "ghz_noise n", 2, MAX_SITES)
    t = _real(t, "exactness t", ghz_noise_threshold(n) - 1e-12, 1 + 1e-12, OutOfDomain)
    half = 2 ** (n - 1)
    return max(0.0, ((half + 1) * t - 1.0) / half)


def _idx(bits: str) -> int:
    return int(bits, 2)


def slocc_family(params: FamilyParams) -> PureState:
    """The normalized four-qubit SLOCC normal-form state for `params`."""
    fam = _kind(params, FamilyParams, "FamilyParams").family_id
    a, b, c, d = params.a, params.b, params.c, params.d
    v = np.zeros(16, dtype=complex)
    if fam == 1:
        v[_idx("0000")] = v[_idx("1111")] = (a + d) / 2
        v[_idx("0011")] = v[_idx("1100")] = (a - d) / 2
        v[_idx("0101")] = v[_idx("1010")] = (b + c) / 2
        v[_idx("0110")] = v[_idx("1001")] = (b - c) / 2
    elif fam == 2:
        v[_idx("0000")] = v[_idx("1111")] = (a + b) / 2
        v[_idx("0011")] = v[_idx("1100")] = (a - b) / 2
        v[_idx("0101")] = v[_idx("1010")] = c
        v[_idx("0110")] = 1.0
    elif fam == 3:
        v[_idx("0000")] = v[_idx("1111")] = a
        v[_idx("0101")] = v[_idx("1010")] = b
        v[_idx("0110")] = v[_idx("0011")] = 1.0
    elif fam == 4:
        v[_idx("0000")] = v[_idx("1111")] = a
        v[_idx("0101")] = v[_idx("1010")] = (a + b) / 2
        v[_idx("0110")] = v[_idx("1001")] = (a - b) / 2
        amp = 1j / np.sqrt(2.0)
        for bits in ("0001", "0010", "0111", "1011"):
            v[_idx(bits)] = amp
    elif fam == 5:
        for bits in ("0000", "0101", "1010", "1111"):
            v[_idx(bits)] = a
        v[_idx("0001")] = 1j
        v[_idx("0110")] = 1.0
        v[_idx("1011")] = -1j
    elif fam == 6:
        v[_idx("0000")] = v[_idx("1111")] = a
        for bits in ("0011", "0101", "0110"):
            v[_idx(bits)] = 1.0
    elif fam == 7:
        for bits in ("0000", "0101", "1000", "1110"):
            v[_idx(bits)] = 1.0
    elif fam == 8:
        for bits in ("0000", "1011", "1101", "1110"):
            v[_idx(bits)] = 1.0
    else:
        v[_idx("0000")] = v[_idx("0111")] = 1.0
    return make_pure(v, 4)


def _sq(z: complex) -> float:
    return float(abs(z) ** 2)


def _re(z: complex) -> float:
    return float(np.real(z))


def _family4_m(a: complex, b: complex) -> float:
    """Maximum of the three pair-purity polynomials for L_ab3."""
    first = 6 * _sq(a) ** 2 + 2 * _sq(b) ** 2 + 8 * _sq(a) + 3
    out = [first]
    for sign in (1.0, -1.0):
        p = a + sign * b
        q = a - sign * b
        out.append(
            abs(a + b) ** 4 / 4
            + abs(a - b) ** 4 / 4
            + abs(3 * a + sign * b) ** 2
            + abs(q) ** 2
            + 4 * _sq(a) ** 2
            - 2 * _sq(a)
            + 2 * _sq(b)
            + 2
            + 2 * _sq(a) * abs(p) ** 2
            + _re(p * np.conj(a) + a * np.conj(p) + 1) ** 2
        )
    return max(out)


def _family1_xy(a, b, c, d) -> tuple[float, float]:
    def cross(u, v):
        return _re(u * np.conj(v) + v * np.conj(u)) ** 2

    x = (
        (_sq(a + d) + _sq(b + c)) ** 2
        + (_sq(a - d) + _sq(b - c)) ** 2
        + cross(a + d, b + c)
        + cross(a - d, b - c)
    )
    y = (
        (_sq(a + d) + _sq(b - c)) ** 2
        + (_sq(a - d) + _sq(b + c)) ** 2
        + cross(a + d, b - c)
        + cross(a - d, b + c)
    )
    return x, y


def _family2_pieces(a, b, c):
    ab = _re(a * np.conj(b) + np.conj(a) * b)
    aux_t = _sq(a) ** 2 + _sq(b) ** 2 + 2 * _sq(a) * _sq(b) + 8 * _sq(c)
    cross_p = _re(2 * (a + b) ** 2 * np.conj(c) ** 2 + 2 * np.conj(a + b) ** 2 * c**2)
    cross_m = _re(2 * (a - b) ** 2 * np.conj(c) ** 2 + 2 * np.conj(a - b) ** 2 * c**2)
    quartic = 4 * (
        _sq(c) ** 2
        + _sq(a) * _sq(b)
        + 2 * _sq(a) * _sq(c)
        + 2 * _sq(b) * _sq(c)
        + _sq(a)
        + _sq(b)
    )
    return ab, aux_t, cross_p, cross_m, quartic


def family_closed_forms(params: FamilyParams) -> ClosedFormPrediction:
    """Evaluate every closed-form measure the family admits, including the
    piecewise branches, plus the applicability status of
    C_2-ME = min_p N^p (unconditional for families 6..9).  OutOfRange for
    parameters so large that the formulas overflow."""
    try:
        with np.errstate(over="raise", invalid="raise"):
            return _closed_forms(_kind(params, FamilyParams, "FamilyParams"))
    except ArithmeticError as exc:  # OverflowError, or numpy's FloatingPointError
        raise OutOfRange(f"closed forms of {params.describe()} overflow") from exc


def _closed_forms(params: FamilyParams) -> ClosedFormPrediction:
    a, b, c, d = params.a, params.b, params.c, params.d
    fam = params.family_id
    rule = "holds"
    margin: Optional[float] = None

    if fam == 9:
        c2v, c3v, c4v = 0.0, np.sqrt(2 / 3), np.sqrt(3) / 2
        neg = (0.0, 1.0, 1.0, 1.0)
    elif fam == 8:
        c2v, c3v, c4v = np.sqrt(3) / 2, 1.0, np.sqrt(15) / 4
        neg = (np.sqrt(3) / 2, 1.0, 1.0, 1.0)
    elif fam == 7:
        r3 = np.sqrt(3) / 2
        c2v, c3v, c4v = r3, np.sqrt(5 / 6), np.sqrt(13) / 4
        neg = (r3, 1.0, r3, r3)
    elif fam == 6:
        s = 2 * _sq(a) + 3
        c2v = clamped_sqrt(1 - 9 / s**2)
        c3v = clamped_sqrt(1 - (11 - 4 * _sq(a)) / (3 * s**2))
        c4v = clamped_sqrt(1 - 3 / s**2)
        n_rest = clamped_sqrt(1 - 1 / s**2)
        neg = (c2v, n_rest, n_rest, n_rest)
    elif fam == 5:
        s = 4 * _sq(a) + 3
        # branch boundary |a|^2 = 3/2
        c2v = min(
            2 * np.sqrt(4 * _sq(a) ** 2 + 6 * _sq(a) + 2) / s,
            2 * np.sqrt(12 * _sq(a) + 2) / s,
        )
        # branch boundaries |a|^2 = (3 -+ sqrt(3)) / 6
        c3v = min(
            clamped_sqrt(7 / 6 - (7 + 24 * _sq(a)) / (6 * s**2)),
            clamped_sqrt(4 / 3 - 2 * (16 * _sq(a) ** 2 + 6) / (3 * s**2)),
        )
        c4v = clamped_sqrt(1 - 1 / s**2)
        neg = (c4v,) * 4
        margin = 1.5 - _sq(a)
        rule = "conditional" if margin >= 0 else "fails"
    elif fam == 4:
        s = 3 * _sq(a) + _sq(b) + 2
        m = _family4_m(a, b)
        c2v = min(
            clamped_sqrt(1 - (1 + 8 * _sq(a)) / s**2),
            clamped_sqrt(max(0.0, 2 - (m + 1 + 8 * _sq(a)) / s**2)),
        )
        c3v = clamped_sqrt(4 / 3 - (m + 3 + 24 * _sq(a)) / (3 * s**2))
        c4v = clamped_sqrt(1 - (1 + 8 * _sq(a)) / s**2)
        neg = (c4v,) * 4
        margin = s**2 - m
        rule = "conditional" if margin >= 0 else "fails"
    elif fam == 3:
        r = _sq(a) + _sq(b) + 1
        ab = _re(a * np.conj(b) + np.conj(a) * b)
        extra = 2 * _sq(a) + 2 * _sq(b) - ab**2
        c2v = min(
            clamped_sqrt(1 - 1 / r**2),
            clamped_sqrt(1 - 1 / r**2 + extra / r**2),
        )
        c3v = min(
            clamped_sqrt(1 - 1 / (3 * r**2) + 2 * _sq(a) * _sq(b) / (3 * r**2)),
            clamped_sqrt(1 - 1 / r**2 + extra / (3 * r**2)),
        )
        c4v = clamped_sqrt(1 - 1 / (2 * r**2))
        n13 = clamped_sqrt(1 - 1 / r**2)
        neg = (n13, 1.0, n13, 1.0)
        margin = extra
        rule = "conditional" if margin >= 0 else "fails"
    elif fam == 2:
        q = _sq(a) + _sq(b) + 2 * _sq(c) + 1
        ab, aux_t, cross_p, cross_m, quartic = _family2_pieces(a, b, c)
        c2v = min(
            clamped_sqrt(1 - 1 / q**2),
            clamped_sqrt(quartic / q**2),
            clamped_sqrt(1 - (2 - aux_t + ab**2 + ab * (8 * _sq(c) - 4) + cross_p) / (2 * q**2)),
            clamped_sqrt(1 - (2 - aux_t + ab**2 - ab * (8 * _sq(c) - 4) + cross_m) / (2 * q**2)),
        )
        c3v = min(
            clamped_sqrt(2 / 3 + (quartic - 2) / (3 * q**2)),
            clamped_sqrt(1 - (6 - aux_t + ab**2 + ab * (8 * _sq(c) - 4) + cross_p) / (6 * q**2)),
            clamped_sqrt(1 - (6 - aux_t + ab**2 - ab * (8 * _sq(c) - 4) + cross_m) / (6 * q**2)),
        )
        c4v = clamped_sqrt(1 - 1 / q**2)
        neg = (c4v,) * 4
        margin = min(
            aux_t - ab**2 - ((8 * _sq(c) - 4) * ab + cross_p),
            aux_t - ab**2 - ((4 - 8 * _sq(c)) * ab + cross_m),
            2 * _sq(a) * _sq(b)
            + 4 * _sq(a) * _sq(c)
            + 4 * _sq(c) * _sq(b)
            + 2 * _sq(a)
            + 2 * _sq(b)
            - _sq(a) ** 2
            - _sq(b) ** 2
            - 4 * _sq(c),
        )
        rule = "conditional" if margin >= 0 else "fails"
    else:  # fam == 1
        p = _sq(a) + _sq(b) + _sq(c) + _sq(d)
        if p < 1e-12:
            raise ZeroVector("family 1 requires a nonzero parameter vector")
        quart = _sq(a) ** 2 + _sq(b) ** 2 + _sq(c) ** 2 + _sq(d) ** 2
        x, y = _family1_xy(a, b, c, d)
        c2v = min(
            clamped_sqrt(max(0.0, 2 - 2 * quart / p**2)),
            clamped_sqrt(max(0.0, 2 - x / (4 * p**2))),
            clamped_sqrt(max(0.0, 2 - y / (4 * p**2))),
            1.0,
        )
        c3v = min(
            clamped_sqrt(4 / 3 - 2 * quart / (3 * p**2)),
            clamped_sqrt(4 / 3 - x / (12 * p**2)),
            clamped_sqrt(4 / 3 - y / (12 * p**2)),
        )
        c4v = 1.0
        neg = (1.0, 1.0, 1.0, 1.0)
        m = max(2 * quart, x / 4, y / 4)
        margin = p**2 - m
        rule = "conditional" if margin >= 0 else "fails"

    if not np.isfinite([c2v, c3v, c4v, *neg, 0.0 if margin is None else margin]).all():
        raise OverflowError("a closed form is not finite")  # float products overflowed
    return ClosedFormPrediction(c2v, c3v, c4v, neg, rule, margin)


def w_two_tangle(coeffs: Sequence[complex], i: int, j: int) -> float:
    """Two-tangle of subsystems i < j (1-based labels) of a W-class state:
    4 |a_{n+1-i}|^2 |a_{n+1-j}|^2 with normalized coefficients."""
    coeffs = _complex_array(coeffs, "W-class coefficients", InputError).ravel()
    n = coeffs.size
    i = _integer(i, "i", 1, n - 1)
    j = _integer(j, "j", i + 1, n)
    coeffs = _normalized(coeffs, "W-class coefficient list")
    return float(4.0 * abs(coeffs[n - i]) ** 2 * abs(coeffs[n - j]) ** 2)


def w_kme_closed_form(n: int, k: int) -> float:
    """k-ME concurrence of the uniform W state:
    sqrt(2/k * ((k-1) n - k (k-1)/2) * tau) with pair tangle tau = 4/n^2,
    for n in [3, MAX_SITES] and k in [2, n]."""
    n = _integer(n, "W n", 3, MAX_SITES)
    k = _integer(k, "k", 2, n)
    tau = 4.0 / n**2
    return float(np.sqrt(2.0 / k * ((k - 1) * n - k * (k - 1) / 2.0) * tau))


def default_parameter_grid(family_id: int) -> tuple[FamilyParams, ...]:
    """Deterministic parameter points for one family, mixing real values,
    complex phases, zeros, condition-true and condition-false regions,
    and the exact piecewise-branch boundaries of family 5."""
    family_id = _integer(family_id, "family_id", 1, 9)
    reals = (0.0, 0.5, 1.0, 1.5)
    cplx = (0.5 + 0.5j, 0.8 - 0.3j, 1.2j, 0.3 - 0.4j, 1.1 + 0.7j, 0.25j)
    if family_id in (7, 8, 9):
        return (FamilyParams(family_id),)
    pts: list[tuple[complex, complex, complex, complex]] = []
    if family_id == 1:
        for aa in (1.0, 0.8, 1j, 1 + 1j):
            for bb in (0.0, 0.5, 1.0, 1 - 1j, 0.2 + 0.5j):
                pts.append((aa, bb, 0.3, 0.2))
        pts += [
            (1, 1, 0, 0),
            (1, 0, 0, 1),
            (0.3, 0.9, 1.2, 0.1j),
            (1j, 0.5, 0.25 - 0.25j, 0.75),
            (0.5, 0.5, 0.5, 0.5),
            (2, 0.1, 0.1, 0.1),
        ]
    elif family_id == 2:
        for aa in reals:
            for bb in (0.0, 0.5, 0.9j):
                pts.append((aa, bb, 0.25, 0))
        pts += [
            (0, 0, 0, 0),
            (1, 0.5, 0.25, 0),
            (0.6 + 0.3j, 0.2, 0.8, 0),
            (1j, 0.4 - 0.2j, 0.7, 0),
            (1.5, 1.2, 0.3j, 0),
            (0.5 + 0.5j, 0.8 - 0.3j, 1.2j, 0),
            (2, 0, 0.5, 0),
            (0.75, 0.75, 0.1, 0),
            (0.3, 1.7, 0.6j, 0),
        ]
    elif family_id in (3, 4):
        for aa in reals:
            for bb in (0.0, 0.5, 1.0):
                pts.append((aa, bb, 0, 0))
        pts += [(z, wz, 0, 0) for z, wz in zip(cplx, cplx[::-1])]
        pts += [(1.7, 0.4j, 0, 0), (0.2, 1.9, 0, 0), (1 + 1j, 1 - 1j, 0, 0)]
    elif family_id == 5:
        boundary = (
            np.sqrt(1.5),
            np.sqrt(1.5) * 1j,
            np.sqrt((3 - np.sqrt(3)) / 6),
            np.sqrt((3 + np.sqrt(3)) / 6),
        )
        singles = reals + cplx + boundary + (2.0, 1.8j, 0.1, 1 + 1j, 0.7 - 0.7j, 1.9)
        pts += [(z, 0, 0, 0) for z in singles]
    else:  # family 6
        singles = reals + cplx + (
            2.0, 0.5 - 1.2j, 1.6, 0.9j, 1 + 0.5j, 0.05, 1.9, 0.6 + 0.8j, 1.3, 0.35j,
        )
        pts += [(z, 0, 0, 0) for z in singles]
    return tuple(FamilyParams(family_id, *pt) for pt in pts)
