"""Each public state-taking function takes the state kinds its measure is
defined on and refuses the others with a QentError.

Functions of a pure state refuse a density matrix, and anything that is
not a state, with IncompatibleInput before they read any of its fields.
Functions of a density matrix also take a pure state and return, bit for
bit, their value for its projector density_of(psi); anything that is not
a state is refused with IncompatibleInput.
"""
import numpy as np
import pytest

from qent import (
    IncompatibleInput,
    IndexOutOfRange,
    OutOfRange,
    QentError,
    apply_local_unitary,
    density_of,
    invariants3,
    invariants4,
    kme_concurrence_pure,
    linear_entropy_pure,
    negativity,
    negativity_profile,
    nme_lower_bound,
    one_tangle,
    partial_trace,
    partial_transpose,
    random_mixed,
    random_pure,
    reduced_density_pure,
    schmidt_spectrum,
    three_tangle,
    three_tangle_raw,
    two_tangle,
    wootters_concurrence,
)
from qent.measures import transposed_profile
from qent.qstate import schmidt_weights

# name -> a call of a function of a pure state on a state of n qubits
PURE_ONLY = {
    "kme_concurrence_pure": (3, lambda s: kme_concurrence_pure(s, 2)),
    "invariants3": (3, invariants3),
    "invariants4": (4, invariants4),
    "apply_local_unitary": (3, lambda s: apply_local_unitary(s, 0, np.eye(2))),
    "density_of": (3, density_of),
    "schmidt_weights": (3, lambda s: schmidt_weights(s, 0)),
    "schmidt_spectrum": (3, lambda s: schmidt_spectrum(s, 0)),
    "linear_entropy_pure": (3, lambda s: linear_entropy_pure(s, 0)),
    "reduced_density_pure": (3, lambda s: reduced_density_pure(s, 0)),
    "one_tangle": (3, lambda s: one_tangle(s, 0)),
    "three_tangle": (3, three_tangle),
    "three_tangle_raw": (3, three_tangle_raw),
}

# name -> a call of a function of a density matrix on a state of n qubits,
# and the value as a comparable tuple
DENSITY = {
    "negativity": (3, lambda s: negativity(s, 1)),
    "transposed_profile": (3, lambda s: transposed_profile(s).per_site),
    "partial_transpose": (3, lambda s: tuple(partial_transpose(s, 2).ravel())),
    "partial_trace": (3, lambda s: tuple(partial_trace(s, (0, 2)).entries.ravel())),
    "wootters_concurrence": (2, wootters_concurrence),
    "two_tangle": (2, two_tangle),
    "negativity_profile": (5, lambda s: negativity_profile(s).per_site),
    "nme_lower_bound": (5, nme_lower_bound),
}


@pytest.mark.parametrize("name", sorted(PURE_ONLY))
def test_pure_state_function_refuses_a_density_matrix(name):
    n, call = PURE_ONLY[name]
    with pytest.raises(IncompatibleInput):
        call(random_mixed(n, 2, 5))
    call(random_pure(n, 5))


@pytest.mark.parametrize("name", sorted(PURE_ONLY))
@pytest.mark.parametrize("other", [None, 3, "x"], ids=["None", "int", "str"])
def test_pure_state_function_refuses_what_is_not_a_state(name, other):
    """The state's kind is checked before any of its fields is read."""
    with pytest.raises(IncompatibleInput):
        PURE_ONLY[name][1](other)


@pytest.mark.parametrize("name", sorted(DENSITY))
def test_density_function_takes_a_pure_state_as_its_projector(name):
    n, call = DENSITY[name]
    psi = random_pure(n, 6)
    assert call(psi) == call(density_of(psi))


@pytest.mark.parametrize("name", sorted(DENSITY))
@pytest.mark.parametrize("other", [None, "rho", np.eye(4) / 4], ids=["None", "str", "array"])
def test_density_function_refuses_what_is_not_a_state(name, other):
    with pytest.raises(IncompatibleInput):
        DENSITY[name][1](other)


def test_two_qubit_measures_refuse_other_sizes_of_either_kind():
    for state in (random_pure(3, 7), random_mixed(3, 2, 7)):
        for fn in (wootters_concurrence, two_tangle):
            with pytest.raises(QentError, match="need a two-qubit state, got 3 sites"):
                fn(state)


@pytest.mark.parametrize("k", [2.5, "2", None, [2], 10**35])
def test_kme_k_must_be_an_integer_in_range(k):
    with pytest.raises(OutOfRange) as info:
        kme_concurrence_pure(random_pure(3, 8), k)
    assert len(str(info.value)) < 80


@pytest.mark.parametrize("site", ["a", 0.5, None, 10**35])
@pytest.mark.parametrize("fn", [one_tangle, lambda psi, p: apply_local_unitary(psi, p, np.eye(2))],
                         ids=["one_tangle", "apply_local_unitary"])
def test_site_must_be_an_index(fn, site):
    with pytest.raises(IndexOutOfRange) as info:
        fn(random_pure(3, 9), site)
    assert len(str(info.value)) < 80


@pytest.mark.parametrize("sites", ["a", [None], [0.5j]])
def test_site_set_must_hold_indices(sites):
    with pytest.raises(IndexOutOfRange):
        reduced_density_pure(random_pure(3, 10), sites)
