"""Entanglement measures: negativity, concurrences, and the tangle hierarchy.

For a pure state and a k-partition A_1|...|A_k the k-ME concurrence
candidate value is sqrt(2/k * sum_t S_L(A_t)) with the linear entropy
S_L(A) = 1 - Tr rho_A^2; the measure is the minimum over all
k-partitions.  It is computed without enumerating the S(n, k)
partitions: a cut-entropy table holds S_L(B) for every block B of at
most n - k + 1 sites (per unordered cut B | rest, (Tr G)^2 - ||G||_F^2
of the Gram matrix G of the smaller side's amplitudes, no eigensolve, or
an SVD for a cut near product; cached on the state and filled one block
size at a time), and a backward subset DP over canonical
prefixes (each step adds the block holding the lowest unused site)
finds the least right-nested block sum S(B_1) + (S(B_2) + (... + S(B_k)))
exactly.  The reported partition is the lexicographically smallest
canonical one that attains the rounded minimum, found by a greedy walk
over the same DP.  kme_concurrence_stack does this for a stack of
states at once, with stacked Gram products and a leading state axis,
and kme_concurrence_pure is its stack of one.  k-ME refuses states of
more than MAX_SITES = 14 qubits (n = 14, k = 7 takes about 1.5 seconds
on two cores).

Negativity of qubit p is the trace norm of the partial transpose minus
one (identically minus twice the sum of negative transposed
eigenvalues).  negativity(rho, p) and transposed_profile(rho) take the
transposing route: one dense 2^n x 2^n eigvalsh of rho^{T_p} per site,
of the projector for a pure state (qstate._density).
negativity_profile and nme_lower_bound take the factored route:
rho = W W^dag is factored once per state by qstate.density_factor (W is
psi for a pure state or for density_of(psi); otherwise one eigh that
keeps the eigenvalues above 8 eps * max(largest, 1)), and each site's
nonzero transposed spectrum comes from a 4r x 4r matrix built from the
QR factor of W's rows split by the site, so a site costs O(2^n r^2)
instead of O(8^n).  States of rank r with 8r >= 2^n, where the
factored route was measured slower, fall back to transposed_profile.
The profile is memoized on the state.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, NamedTuple, Optional, Union

import numpy as np

from .errors import (DimensionMismatch, IncompatibleInput, IndexOutOfRange, InputError, OutOfRange,
                     _integer, _kind, _real, brief)
from .partitions import Partition
from .qstate import (
    DensityMatrix,
    PureState,
    _amplitude_matrix,
    _density,
    _first_kept,
    _pure,
    _reduced_density_pure,
    _trusted,
    density_factor,
    partial_transpose,
    sites_tuple,
)

# largest n that k-ME accepts (n = 14, k = 7 takes about 1.5 seconds); the
# GHZ, W and GHZ + noise constructors and closed forms share it
MAX_SITES = 14
# eigenvalues of a partial transpose above this are treated as non-negative
NEGATIVE_EIGENVALUE_FLOOR = -1e-12

# negativity_profile factors a state of rank r when FACTORED_RANK_RATIO * r
# < 2^n.  Timed on 2 vCPUs at n = 6..8 for mixed states, the factored route
# (eigh included) overtook the transposing one between r = 2^n/8 and
# r = 2^n/5 and took ~1.8x as long at r = 2^n/4; for pure input (no eigh)
# the two routes break even at n = 4.
FACTORED_RANK_RATIO = 8

_SY = np.array([[0.0, -1.0j], [1.0j, 0.0]])
_SYY = np.kron(_SY, _SY)

# most amplitudes one stacked Gram product holds when filling cut-entropy
# tables: 16 cuts of a 10-qubit state
CUT_AMPLITUDES = 16 * 2**10

# _cut_entropies takes S_L of a cut as (Tr G)^2 - ||G||_F^2 of its d x d
# Gram matrix G = M M^dag, d = 2^s <= 2^7, which is 2 sum_{i<j} lam_i lam_j
# over G's eigenvalues lam.  G is formed with a backward error of a few
# u ||G||, u = 2^-53 and ||G|| <= Tr G = 1, which moves each lam_i by about
# u, and S_L, whose derivative in lam_i is 2 (Tr G - lam_i) <= 2, by 2 d u.
# numpy sums N <= 128 values in 8 interleaved partial sums joined pairwise,
# a relative error of at most (N / 8 + 3) u, and halves a longer run: so
# Tr G (d values: 19 u) squared (39 u) and ||G||_F^2 (squares of the 2d
# reals of a row, 1 u, summed, 20 u, then the d row sums, 19 u: 40 u), each
# at most 1, add at most 80 u.  S_L is off by at most delta ~ 2 d u + 80 u
# <= 336 u = 3.7e-14 from the SVD route's value (measured: at most 11 u
# over random and near-product cuts of d = 2..128).  A k-partition whose
# block sum T holds m >= 1 Gram values has T >= m (GRAM_FLOOR - delta) on
# either route and moves by at most m delta, so sqrt(2 T / k) moves by at
# most delta / sqrt(2 (GRAM_FLOOR - delta)) <= 1e-12 for GRAM_FLOOR >=
# delta^2 / 2e-24 + delta = 7.0e-4, and so does the k-ME minimum.  The
# floor also bounds the cancellation: a Gram value below it, where the
# difference of two numbers near 1 has lost digits, is taken again from
# the SVD, which keeps small values accurate to about u sigma and product
# cuts at exactly 0.0.
GRAM_FLOOR = 1e-3


@dataclass(frozen=True)
class MeasureReport:
    """A measure's value, a finite real >= 0, plus the minimizing Partition
    or None; built directly, InputError for anything else."""

    measure_name: str
    value: float
    optimal_partition: Optional[Partition]

    def __post_init__(self):
        _kind(self.measure_name, str, "a measure name", InputError)
        object.__setattr__(self, "value", _real(self.value, "value", 0.0, error=InputError))
        _kind(self.optimal_partition, (Partition, type(None)), "a Partition or None", InputError)


@dataclass(frozen=True)
class NegativityProfile:
    """Per-site negativities N^0..N^{n-1} of one qubit state, finite reals
    in [0, 1] up to 1e-9; built directly, InputError for anything else."""

    per_site: tuple[float, ...]

    def __post_init__(self):
        values = _kind(self.per_site, (list, tuple), "a list of negativities", InputError)
        object.__setattr__(self, "per_site", tuple(
            _real(v, "qubit negativity", -1e-9, 1.0 + 1e-9, InputError) for v in values))


def _linear_entropy_rows(lam: np.ndarray) -> np.ndarray:
    """2 * sum_{i<j} lam_i lam_j over the last axis of an array of weights
    in descending order; a row's value does not depend on the other rows."""
    tail = np.cumsum(lam[..., ::-1], axis=-1)[..., ::-1]
    return 2.0 * (lam[..., :-1] * tail[..., 1:]).sum(axis=-1)


def _cut_entropies(stack: np.ndarray) -> np.ndarray:
    """S_L of each amplitude matrix M of a stack (..., 2^s, 2^(n - s)),
    s <= n - s, as (Tr G)^2 - ||G||_F^2 of its Gram matrix G = M M^dag:
    2 * sum_{i<j} lam_i lam_j over G's eigenvalues, without finding them.
    A value below GRAM_FLOOR, where that difference of two numbers near 1
    has cancelled, is taken again as 2 * sum_{i<j} lam_i lam_j over M's
    squared singular values.  Each matrix is reduced over its own two
    axes, so its value does not depend on the others in the stack."""
    gram = stack @ stack.conj().swapaxes(-1, -2)
    trace = gram.diagonal(axis1=-2, axis2=-1).real.sum(-1)
    parts = gram.view(float)  # (re, im) pairs along each row
    ent = trace * trace - (parts * parts).sum(-1).sum(-1)
    low = ent < GRAM_FLOOR
    if low.any():
        ent[low] = _linear_entropy_rows(np.linalg.svd(stack[low], compute_uv=False) ** 2)
    return ent


def linear_entropy_pure(psi: PureState, block: Union[int, Iterable[int]]) -> float:
    """1 - Tr(rho_block^2) for a pure state.

    Evaluated as 2 * sum_{i<j} lambda_i lambda_j over the Schmidt
    weights lambda of the cut, not as 1 minus a purity: as (Tr G)^2 -
    ||G||_F^2 of the Gram matrix G of the side of fewer than n / 2 sites
    (of n / 2 with site 0), which equals that sum and keeps the state's
    norm in it, or, for a value below GRAM_FLOOR, where the difference
    has cancelled, from the squared singular values of the side's
    amplitudes, which keep a product cut at exactly 0.0.  The cut-entropy
    tables use the same side and kernel.
    """
    n = _pure(psi).num_sites
    side = sites_tuple(block, n)
    if len(side) >= n:
        raise IndexOutOfRange("side A must be a proper subset of the sites")
    if 2 * len(side) > n or 2 * len(side) == n and side[0] != 0:
        side = tuple(s for s in range(n) if s not in side)
    return float(_cut_entropies(_amplitude_matrix(psi, side)[None])[0])


def _negativity_of_spectrum(ev: np.ndarray) -> float:
    """-2 * the sum of the eigenvalues at or below -1e-12."""
    return float(-2.0 * ev[ev <= NEGATIVE_EIGENVALUE_FLOOR].sum()) + 0.0


def negativity(rho: Union[PureState, DensityMatrix], site: int) -> float:
    """Negativity of one qubit against the rest.

    Equals ||rho^{T_site}||_1 - 1; computed from the negative eigenvalues
    of the partial transpose, with eigenvalues above -1e-12 treated as
    zero.  The transpose moves entries (i, j) and (j, i) together, so it
    is as Hermitian as rho and needs no check of its own.
    """
    return _negativity_of_spectrum(np.linalg.eigvalsh(partial_transpose(rho, site)))


def _factored_negativity(w: np.ndarray, n: int, site: int) -> float:
    """Negativity of one site of rho = W W^dag without forming rho.

    With W's rows split by the site's bit into W0 and W1,
    rho^{T_site} = X J X^dag for X = [e0 x W0, e0 x W1, e1 x W0, e1 x W1]
    and J the swap of the two middle column blocks.  Its nonzero
    eigenvalues are those of R J R^dag, 4r x 4r, for any R with
    R^dag R = G = X^dag X = diag(H, H), where H = [W0 W1]^dag [W0 W1]
    holds the Grams W0^dag W0, W0^dag W1 and W1^dag W1.  R is
    diag(T, T) with T the triangular QR factor of [W0 W1] (T^dag T = H):
    unlike G^{1/2}, which takes square roots of H's rounding-level
    eigenvalues, it does not split the zero eigenvalues of R J R^dag
    by ~1e-8 when H is singular.  Eigenvalues above -1e-12 count as
    zero, as in negativity().
    """
    r = w.shape[1]
    halves = w.reshape(2**site, 2, 2 ** (n - 1 - site), r).transpose(0, 2, 1, 3)
    tri = np.linalg.qr(halves.reshape(2 ** (n - 1), 2 * r), mode="r")
    r_full = np.kron(np.eye(2), tri)
    swap = np.arange(4 * r).reshape(2, 2, r).transpose(1, 0, 2).ravel()
    return _negativity_of_spectrum(np.linalg.eigvalsh(r_full[:, swap] @ r_full.conj().T))


def transposed_profile(rho: Union[PureState, DensityMatrix]) -> NegativityProfile:
    """Negativity of every site of rho by the transposing route,
    negativity(rho, p) for each p; a pure state's projector is built once."""
    rho = _density(rho)
    return _trusted(NegativityProfile, tuple(negativity(rho, p) for p in range(rho.num_sites)))


def negativity_profile(state: Union[PureState, DensityMatrix]) -> NegativityProfile:
    """Negativity of every site of a pure or mixed state (qubit
    normalization), by the factored route.

    The state is factored once, rho = W W^dag with r columns, and each
    site costs a few r x r and 4r x 4r products and eigensolves.  States
    with 8r >= 2^n, r counted in the density matrix's spectrum, take
    transposed_profile of the density matrix instead and are never
    factored.  The profile is memoized on the state.  Anything that is
    not a state raises IncompatibleInput.

    Dropping the factor's small eigenvalues moves each value away from
    negativity()'s by at most 3 * sum |dropped|: a Hermitian change D
    moves N by at most ||D^{T_p}||_1 + |Tr D|, and the dropped part has
    ||D^{T_p}||_1 <= 2 sum |dropped| and |Tr D| <= sum |dropped|.
    """
    prof = _kind(state, (PureState, DensityMatrix), "a state")._memo.get("negativity")
    if prof is None:
        n = state.num_sites
        w = density_factor(state, (2**n - 1) // FACTORED_RANK_RATIO)
        if w is not None:
            prof = tuple(_factored_negativity(w, n, p) for p in range(n))
            prof = _trusted(NegativityProfile, prof)
        else:
            prof = transposed_profile(state)
        prof = state._memo.setdefault("negativity", prof)
    return prof


@functools.lru_cache(maxsize=32)
def _cuts(n: int, size: int) -> tuple[tuple[tuple[int, ...], ...], np.ndarray]:
    """For each block of `size` <= n / 2 of n sites (at n / 2 only those
    holding site 0) in combinations() order, the axes that move a stack of
    state tensors (stack axis first) to its sites then the rest; and the
    bitmasks of the blocks (row 0) and of their complements (row 1)."""
    blocks = [b for b in combinations(range(n), size) if 2 * size < n or b[0] == 0]
    axes = tuple((0, *(1 + s for s in b), *(1 + s for s in range(n) if s not in b)) for b in blocks)
    masks = np.array([sum(1 << s for s in b) for b in blocks])
    masks = np.array([masks, ((1 << n) - 1) ^ masks])
    masks.setflags(write=False)
    return axes, masks


def _cut_entropy_tables(states: list[PureState], max_size: int) -> np.ndarray:
    """S_L(B) for every block bitmask B (bit i = site i) of up to max_size
    sites, one row per state; the states share one site count.

    One value per unordered cut, from _cut_entropies of the side
    linear_entropy_pure takes (blocks of 1 .. min(max_size, n // 2)
    sites), fills B and its complement, so every entry equals
    linear_entropy_pure(psi, block) bit for bit; entries not filled hold
    inf.  Each state's memo keeps its table and the block size it is
    filled to.  The cuts of one size go into stacked calls of at most
    CUT_AMPLITUDES amplitudes: one Gram product, its traces and Frobenius
    norms, and an SVD only of the cuts whose value reads below GRAM_FLOOR.
    """
    n = states[0].num_sites
    filled, tables = zip(*(psi._memo.get("cut_entropy") or (0, np.full(1 << n, np.inf))
                           for psi in states))
    cuts = max(1, CUT_AMPLITUDES >> n)  # cuts one call may hold
    for size in range(1, min(max_size, n // 2) + 1):
        cold = [i for i, size_filled in enumerate(filled) if size_filled < size]
        if not cold:
            continue
        axes, masks = _cuts(n, size)
        per_call = max(1, cuts // len(cold))  # blocks of each state in one call
        states_per_call = max(1, cuts // per_call)
        for lo in range(0, len(cold), states_per_call):
            group = cold[lo : lo + states_per_call]
            tensors = np.array([states[i].tensor() for i in group])
            for start in range(0, len(axes), per_call):
                chunk = axes[start : start + per_call]
                stack = np.empty((len(chunk), len(group), 2**size, 2 ** (n - size)), dtype=complex)
                for mats, order in zip(stack, chunk):
                    mats.reshape((len(group),) + (2,) * n)[...] = tensors.transpose(order)
                for i, column in zip(group, _cut_entropies(stack).T):
                    tables[i][masks[:, start : start + per_call]] = column
        for i in cold:
            states[i]._memo["cut_entropy"] = (size, tables[i])
    return np.array(tables)


class _Plan(NamedTuple):
    """The steps of the k-ME DP, grouped by prefix, the groups ordered by
    the prefix's site count and then its mask, the steps of a group in
    the lexicographic order of their blocks' site tuples.  Group 0 is the
    empty prefix's: its blocks hold site 0."""

    block: np.ndarray  # the block of each step
    rest: np.ndarray  # the sites each step leaves: full ^ prefix ^ block
    nxt: np.ndarray  # the group whose prefix is each step's prefix | block, else the group count
    starts: np.ndarray  # the first step of each group, then the step count
    last: np.ndarray  # the last step of each group
    # for j = 0 .. k - 2, the groups a prefix of j blocks can reach, lo:hi:
    # (lo, hi, their first step, their segments from it, 0 .. widest - 1)
    layers: tuple[tuple[int, int, int, np.ndarray, np.ndarray], ...]


@functools.lru_cache(maxsize=16)
def _kme_plan(n: int, k: int) -> _Plan:
    """Every step of the k-ME DP, as (prefix, block) masks.

    The first step's prefix is empty and its block holds site 0.  A later
    prefix holds site 0 and every site below m, the lowest site it lacks;
    its block holds m and avoids the prefix.  Every block has at most
    n - k + 1 sites and leaves at least one site for the blocks after it.
    A prefix of j >= 1 blocks has j to n - k + j sites.
    """
    full = (1 << n) - 1
    count = np.zeros(1 << n, dtype=np.intp)  # sites in each bitmask
    rank = np.zeros(1 << n, dtype=np.int64)  # orders bitmasks as ascending site tuples
    for i in range(n):
        # site i follows every site of the masks below 1 << i: it is
        # digit count + 1 of a base-(n + 1) number, 0 marking no site
        rank[1 << i : 2 << i] = rank[: 1 << i] + (i + 1) * (n + 1) ** (n - 1 - count[: 1 << i])
        count[1 << i : 2 << i] = count[: 1 << i] + 1
    prefixes, blocks = [np.zeros(1 << (n - 1), dtype=np.intp)], [np.arange(1, 1 << n, 2)]
    for m in range(1, n):
        # each site above m is in the prefix, in the block, or in neither
        digits = np.arange(3 ** (n - 1 - m))
        above_p = np.zeros_like(digits)
        above_b = np.zeros_like(digits)
        for i in range(m + 1, n):
            digits, d = np.divmod(digits, 3)
            above_p |= (d == 1) << i
            above_b |= (d == 2) << i
        prefixes.append(((1 << m) - 1) | above_p)
        blocks.append((1 << m) | above_b)
    prefix, block = np.concatenate(prefixes), np.concatenate(blocks)
    keep = (count[block] <= n - k + 1) & ((prefix | block) != full)
    prefix, block = prefix[keep], block[keep]
    order = np.lexsort((rank[block], prefix, count[prefix]))
    prefix, block = prefix[order], block[order]
    starts = np.flatnonzero(np.diff(prefix, prepend=-1))
    heads = prefix[starts]
    group = np.full(1 << n, len(heads))
    group[heads] = np.arange(len(heads))
    starts = np.append(starts, len(block))
    by_size = np.searchsorted(count[heads], np.arange(n + 2))  # first group of c sites
    layers = []
    for j in range(k - 1):
        lo, hi = (0, 1) if j == 0 else (by_size[j], by_size[n - k + j + 1])
        widest = np.diff(starts[lo : hi + 1]).max()
        layers.append((lo, hi, starts[lo], starts[lo:hi] - starts[lo], np.arange(widest)))
    small = np.int32  # halves the cached plan; masks and group ids stay below 2^14
    plan = _Plan(block.astype(small), (full ^ prefix ^ block).astype(small),
                 group[prefix | block].astype(small), starts, starts[1:] - 1, tuple(layers))
    for a in plan[:5]:
        a.setflags(write=False)
    return plan


def _kme_minima(tables: np.ndarray, n: int, k: int) -> list[tuple[float, Partition]]:
    """The k-ME value and the lexicographically smallest canonical
    k-partition attaining it, for each row of a stack of cut-entropy
    tables.

    A partition's block sum is right-nested in canonical block order,
    S(B_1) + (S(B_2) + (... + S(B_k))).  A backward DP keeps least[j],
    the least sum for each layer-j group (a prefix of j blocks) of the
    k - j blocks its steps and the steps after them add: a step's sum is
    its block's entropy plus least[j + 1] of the group it leads to, or
    on the last layer the entropy of the sites it leaves.  Float addition
    is monotone, so a prefix nested around its least completion gives
    the least sum of every partition that starts with it: the minimum is
    exact, and a greedy walk keeps, block by block, the first candidate
    in lexicographic order whose sum still rounds to the k-ME value.
    """
    block, rest, nxt, starts, last, layers = _kme_plan(n, k)
    count = len(tables)
    entropy = tables.take(block, 1)
    least = [None] * (k - 1)
    for j in range(k - 2, -1, -1):
        lo, hi, first, segments, _ = layers[j]
        steps = slice(first, starts[hi])
        after = tables.take(rest[steps], 1) if j == k - 2 else least[j + 1].take(nxt[steps], 1)
        least[j] = np.full((count, len(starts)), np.inf)  # the last column: no group
        np.minimum.reduceat(entropy[:, steps] + after, segments, axis=1, out=least[j][:, lo:hi])

    rows = np.arange(count)[:, None]
    value = np.sqrt(2.0 * least[0][:, 0] / k)
    target = value[:, None]
    group, nested, chosen = np.zeros(count, dtype=np.intp), [], []
    for j in range(k - 1):
        _, _, first, _, span = layers[j]
        lo = starts[group]
        # a state with a smaller group repeats its last step to fill the row
        steps = np.minimum(lo[:, None] + span, last[group][:, None])
        after = tables[rows, rest[steps]] if j == k - 2 else least[j + 1][rows, nxt[steps]]
        total = entropy[rows, steps] + after
        for s in reversed(nested):
            total = s + total
        step = lo + (np.sqrt(2.0 * total / k) == target).argmax(1)
        chosen.append(block[step])
        nested.append(entropy[rows, step[:, None]])
        group = nxt[step]
    masks = np.array(chosen + [rest[step]]).T.tolist()
    blocks = [tuple(tuple(i for i in range(n) if b >> i & 1) for b in row) for row in masks]
    return [(float(v), _trusted(Partition, b)) for v, b in zip(value, blocks)]


def kme_concurrence_stack(states, k: int) -> tuple[MeasureReport, ...]:
    """kme_concurrence_pure(psi, k) for each pure state of a sequence, bit
    for bit; the states of each site count share stacked Gram products
    for their tables and one DP with a leading state axis.  Raises
    IncompatibleInput for anything but a sequence of pure states, and
    OutOfRange as kme_concurrence_pure does for any of them."""
    try:
        states = [_pure(psi) for psi in states]
    except TypeError as exc:
        raise IncompatibleInput(f"need a sequence of pure states, got {brief(states)}") from exc
    by_size: dict[int, list[int]] = {}
    for i, psi in enumerate(states):
        n = psi.num_sites
        k = _integer(k, "k", 2, n)
        if n > MAX_SITES:
            raise OutOfRange(f"n={n} exceeds the k-ME cap of {MAX_SITES} sites")
        by_size.setdefault(n, []).append(i)
    reports = [None] * len(states)
    for n, at in by_size.items():
        tables = _cut_entropy_tables([states[i] for i in at], n - k + 1)
        for i, (value, partition) in zip(at, _kme_minima(tables, n, k)):
            reports[i] = _trusted(MeasureReport, f"C_{k}-ME", value, partition)
    return tuple(reports)


def kme_concurrence_pure(psi: PureState, k: int) -> MeasureReport:
    """k-ME concurrence of a pure state: minimum over all k-partitions of
    sqrt(2/k * sum_t (1 - Tr rho_{A_t}^2)).

    Uses the state's cut-entropy table (blocks of up to n - k + 1 sites,
    built on first use and shared by later calls on the same state) and
    a subset DP instead of a scan over the S(n, k) partitions, so n = 12,
    k = 6 takes well under a second.  Each partition's block entropies are summed
    right-nested, S(B_1) + (S(B_2) + (... + S(B_k))), with blocks ordered
    by their smallest site, and the value is bit for bit the least
    rounded sqrt(2/k * sum) a scan over those sums would find.  Among
    partitions of exactly that value the lexicographically smallest
    canonical one (blocks compared as tuples) is reported.  Raises
    OutOfRange unless k is an integer in [2, n] and n <= MAX_SITES (14).
    This is kme_concurrence_stack on a stack of one state.
    """
    return kme_concurrence_stack((psi,), k)[0]


def quadratic_mean(values: tuple[float, ...]) -> float:
    """sqrt(sum_p v_p^2 / len(values)), summed in order."""
    return float(np.sqrt(sum(v * v for v in values) / len(values)))


def nme_lower_bound(state: Union[PureState, DensityMatrix]) -> float:
    """Quadratic mean of the per-site negativities, sqrt(sum_p (N^p)^2 / n).

    Lower-bounds the n-ME concurrence of any n-qubit state; equals it
    exactly on pure states.  Uses (and memoizes) negativity_profile.
    """
    return quadratic_mean(negativity_profile(state).per_site)


def one_tangle(psi: PureState, site: int) -> float:
    """4 det(rho_site): squared concurrence of one site against the rest."""
    return _one_tangle(psi, _integer(site, "site", 0, _pure(psi).num_sites - 1, IndexOutOfRange))


def _one_tangle(psi: PureState, site: int) -> float:
    return float(np.real(np.linalg.det(_reduced_density_pure(psi, (site,)))) * 4.0)


def _wootters(m: np.ndarray) -> float:
    """max(0, mu1 - mu2 - mu3 - mu4) over the descending square roots
    mu_i of the eigenvalues of m * (sigma_y x sigma_y) m* (sigma_y x
    sigma_y) for a 4 x 4 density matrix m.

    With the eigendecomposition m = U D U^dag and W = U sqrt(D), the
    nonzero eigenvalues of that product equal the squared singular
    values of the symmetric matrix W^T (sigma_y x sigma_y) W, so the
    square roots come straight out of an SVD with no precision loss
    near zero.  Eigenvalues at or below the floor of
    qstate.density_factor count as zero.
    """
    d, u = np.linalg.eigh(m)
    d[: _first_kept(d)] = 0.0
    w = u * np.sqrt(d)
    mu = np.linalg.svd(w.T @ _SYY @ w, compute_uv=False)  # descending
    return float(max(0.0, mu[0] - mu[1] - mu[2] - mu[3]))


def _two_qubit_density(state) -> DensityMatrix:
    """The density matrix of a two-qubit state; DimensionMismatch for a
    state of another qubit count, before any projector is built."""
    if isinstance(state, (PureState, DensityMatrix)) and state.num_sites != 2:
        raise DimensionMismatch(f"need a two-qubit state, got {state.num_sites} sites")
    return _density(state)


def wootters_concurrence(rho: Union[PureState, DensityMatrix]) -> float:
    """Two-qubit mixed-state concurrence, max(0, mu1 - mu2 - mu3 - mu4)
    over the descending square roots mu_i of the spectrum of
    rho * (sy x sy) rho* (sy x sy), of the projector for a pure state."""
    return _wootters(_two_qubit_density(rho).entries)


def two_tangle(rho: Union[PureState, DensityMatrix]) -> float:
    """Squared Wootters concurrence of a two-qubit state."""
    return wootters_concurrence(rho) ** 2


def _pair_tangle(psi: PureState, pair: tuple[int, int]) -> float:
    """Two-tangle of the reduction of psi to a pair of sites."""
    return _wootters(_reduced_density_pure(psi, pair)) ** 2


def three_tangle_raw(psi: PureState) -> float:
    """Residual tripartite tangle before clamping:
    4 det(rho_A) - tau(rho_AB) - tau(rho_AC) with A = site 0."""
    if _pure(psi).num_sites != 3:
        raise DimensionMismatch(f"need a three-qubit state, got {psi.num_sites} sites")
    return _one_tangle(psi, 0) - _pair_tangle(psi, (0, 1)) - _pair_tangle(psi, (0, 2))


def three_tangle(psi: PureState) -> float:
    """Residual tripartite tangle, clamped to [0, 1].

    Pivot-independent: evaluating with site 1 or 2 as the pivot agrees
    to better than 1e-8.
    """
    return float(min(1.0, max(0.0, three_tangle_raw(psi))))
