"""Property tests, run only where hypothesis is installed."""
import json

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st

from qent import (
    DensityMatrix,
    InputError,
    Partition,
    PureState,
    apply_local_unitary,
    check,
    kme_concurrence_pure,
    random_local_unitary,
    random_pure,
    state_from_json,
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


# JSON numbers: those a state may hold, and those of every size, NaN and
# Infinity included
SMALL = st.one_of(st.integers(-1, 1), st.floats(-1, 1))
NUMBERS = st.one_of(SMALL, st.floats(), st.sampled_from([2**63, -2**63 - 1, 2**64, 10**400]))
# what a JSON state file may hold where a number belongs
LEAVES = st.one_of(NUMBERS, st.booleans(), st.text(max_size=2), st.none())
RARELY = st.sampled_from([False] * 7 + [True])  # True one draw in eight


@st.composite
def state_files(draw):
    """The JSON text of an object with a kind, a num_sites and entries:
    mostly [re, im] pairs in the shape of a state of num_sites qubits, of
    small numbers, of any numbers or of anything, now and then of another
    shape, with pairs of length 1 or 3 or rows cut short, or else nested
    lists of anything."""
    kind, key = draw(st.sampled_from([("pure", "amplitudes"), ("density", "matrix")]))
    n = draw(st.integers(1, 2))
    side = 2**n
    dims = (side,) if kind == "pure" else (side, side)
    if draw(RARELY):
        dims = draw(st.sampled_from([(side,), (side, side), (side, side, 2), (1,), ()]))
    leaves = draw(st.sampled_from([SMALL, NUMBERS, LEAVES]))
    pair_sizes = st.integers(1, 3) if draw(RARELY) else st.just(2)
    cut_short = draw(RARELY)

    def pairs(dims):
        if not dims:
            return [draw(leaves) for _ in range(draw(pair_sizes))]
        rows = [pairs(dims[1:]) for _ in range(dims[0])]
        return rows[:-1] if cut_short and draw(RARELY) else rows

    if draw(RARELY):
        entries = draw(st.recursive(LEAVES, lambda inner: st.lists(inner, max_size=3), max_leaves=8))
    else:
        entries = pairs(dims)
    if draw(RARELY):
        kind = draw(st.one_of(st.just("mixed"), LEAVES))
    if draw(RARELY):
        key = {"amplitudes": "matrix", "matrix": "amplitudes"}[key]
    if draw(RARELY):
        n = draw(st.one_of(st.integers(0, 3), st.sampled_from([1.0, "1", [1]]), LEAVES))
    return json.dumps({"kind": kind, "num_sites": n, key: entries})


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(state_files())
def test_state_file_gives_a_state_or_input_error(text):
    """state_from_json returns a state or raises InputError: no other
    exception and no numpy warning, whatever the file holds."""
    try:
        state = state_from_json(text)
    except InputError:
        return
    assert isinstance(state, (PureState, DensityMatrix))
