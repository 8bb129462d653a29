"""Property tests, run only where hypothesis is installed."""
import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st

from qent import (
    Partition,
    PureState,
    apply_local_unitary,
    check,
    kme_concurrence_pure,
    random_local_unitary,
    random_pure,
    verify,
)


@st.composite
def kme_cases(draw):
    n = draw(st.integers(2, 5))
    return (
        n,
        draw(st.integers(2, n)),
        tuple(draw(st.permutations(range(n)))),
        draw(st.integers(0, 2**32 - 1)),
    )


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(kme_cases())
def test_kme_symmetries(case):
    """C_k is invariant under site permutations and local unitaries, and
    the minimizing partition moves with the sites."""
    n, k, perm, seed = case
    rng = np.random.default_rng(seed)
    v = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
    psi = PureState(v / np.linalg.norm(v), n)
    base = kme_concurrence_pure(psi, k)

    # site i of the permuted state is site perm[i] of psi
    permuted = kme_concurrence_pure(PureState(psi.tensor().transpose(perm).reshape(-1), n), k)
    assert abs(permuted.value - base.value) <= 1e-12
    new_site = {old: new for new, old in enumerate(perm)}
    moved = Partition.from_blocks(
        [new_site[s] for s in block] for block in base.optimal_partition.blocks
    )
    assert permuted.optimal_partition == moved

    rotated = psi
    for site in range(n):
        rotated = apply_local_unitary(rotated, site, random_local_unitary(seed + site))
    assert abs(kme_concurrence_pure(rotated, k).value - base.value) <= 1e-12


@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(st.integers(2, 5), st.integers(0, 2**32 - 1))
def test_r1_identity_at_any_seed(n, seed):
    """C_n-ME of a random pure state equals the negativity quadratic mean."""
    (row,) = check("R1", random_pure(n, seed))
    assert row.verdict == "pass"


@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(st.integers(0, 2**32 - 1))
def test_r4_three_qubit_relations_at_any_seed(seed):
    """C_2-ME = min N^p and C_3-ME = rms N^p on random three-qubit states."""
    rows = check("R4", random_pure(3, seed))
    assert [r.verdict for r in rows] == ["pass", "pass"]


@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(st.integers(1, 3), st.integers(1, 3), st.integers(0, 2**32 - 1))
def test_r9_rank_two_cuts_at_any_seed(na, nb, seed):
    """Negativity equals concurrence across a Schmidt-rank-2 cut."""
    psi = verify._random_rank2(na, nb, seed)
    (row,) = check("R9", (psi, tuple(range(na))))
    assert row.verdict == "pass"
