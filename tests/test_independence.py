"""Every relation of the suite compares two independent computations.

SIDES names, for each kind of result row, the `verify` module bindings
its lhs and its rhs go through.  Each binding in turn is wrapped so that
its result is scaled by 1 + 1e-6, and one small payload per relation is
checked again.  A row whose lhs (rhs) goes through the binding must move
its gap lhs - rhs by more than 1e-8 and keep its rhs (lhs) bit for bit;
every other row keeps both bit for bit.  The gap is used rather than the
verdict or the residual so that R2's inequality rows and R7's skip rows
count too.  A fast path that routed both sides through one binding would
move both together and leave the gap where it was.
"""
import dataclasses
import re
import sys

import numpy as np
import pytest

from qent import invariants, measures, qstate, verify
from qent.families import FamilyParams

SCALE = 1.0 + 1e-6
MOVED = 1e-8

_KME = "kme_concurrence_stack"
_NEG = "transposed_profile"
_NME = {_NEG, "quadratic_mean"}
# (relation, row label with digits as #) -> (lhs bindings, rhs bindings)
SIDES = {
    ("R1", ""): ({_KME}, _NME),
    ("R2", ""): ({_KME}, _NME),
    ("R3", "exact n-ME value"): ({"ghz_noise_nme_exact"}, _NME),
    ("R3", "negativity site #"): ({"ghz_noise_negativity"}, {_NEG}),
    ("R4", "C# = min N"): ({_KME}, {_NEG}),
    ("R4", "C# = rms N"): ({_KME}, _NME),
    ("R5", "C# via invariants"): ({"invariants3", "kme_from_invariants3"}, {_KME}),
    **{
        ("R5", f"tau_{pair} via invariants"): (
            {"invariants3", "tangles_from_invariants3", "three_tangle"},
            {"_pair_tangle"},
        )
        for pair in ("AB", "AC", "BC")
    },
    ("R5", "C# via tangles"): ({"_pair_tangle", "three_tangle", "clamped_sqrt"}, {_KME}),
    ("R6", "C# via invariants"): ({"invariants4", "kme_from_invariants4"}, {_KME}),
    ("R7", "C# closed form"): ({"family_closed_forms"}, {_KME}),
    ("R7", "N site # closed form"): ({"family_closed_forms"}, {_NEG}),
    ("R7", "C# = min N"): ({_KME}, {_NEG}),
    ("R8", "k=#"): ({"w_kme_closed_form"}, {_KME}),
    ("R8", "pair (#,#)"): ({"w_two_tangle"}, {"_pair_tangle"}),
    ("R9", ""): (
        {"partial_transpose_sites", "hermitian_eigenvalues"},
        {"linear_entropy_pure", "clamped_sqrt"},
    ),
}
BINDINGS = sorted(set().union(*(lhs | rhs for lhs, rhs in SIDES.values())))

# one payload per relation (two for R7 and R8), every value inside (0, 1)
PAYLOADS = (
    ("R1", verify.random_pure(3, 11)),
    ("R2", verify.random_ensemble(2, 2, 12)),
    ("R3", (3, 0.9)),
    ("R4", verify.random_pure(3, 13)),
    ("R5", verify.random_pure(3, 14)),
    ("R6", verify.random_pure(4, 15)),
    ("R7", FamilyParams(6, 0.7 + 0.1j)),
    ("R7", FamilyParams(2, 0.5 + 0.2j, 0.8, 0.3)),  # C2 = min N is a skip row
    ("R8", ("w_kme", 4)),
    ("R8", ("w_two_tangle", (0.5, 0.6 + 0.2j, 0.59))),
    ("R9", (verify._random_rank2(2, 2, 16), (0, 1))),
)


def _key(row):
    desc = row.state_descriptor
    label = desc.rpartition(" | ")[2] if " | " in desc else ""
    return row.relation.value, re.sub(r"\d+", "#", label)


def _scaled(value):
    """value times SCALE: floats, arrays, and the float fields of tuples
    and result dataclasses; everything else unchanged."""
    if isinstance(value, (float, np.ndarray)):
        return value * SCALE
    if isinstance(value, tuple):
        return tuple(_scaled(v) for v in value)
    if dataclasses.is_dataclass(value):
        return dataclasses.replace(value, **{
            f.name: _scaled(getattr(value, f.name))
            for f in dataclasses.fields(value)
            if f.init and isinstance(getattr(value, f.name), (float, tuple))
        })
    return value


def _check_all():
    return [row for rel, payload in PAYLOADS for row in verify.check(rel, payload)]


@pytest.fixture(scope="module")
def baseline():
    return _check_all()


def test_table_covers_every_row_with_disjoint_sides(baseline):
    assert {_key(row) for row in baseline} == set(SIDES)
    for key, (lhs, rhs) in SIDES.items():
        assert not lhs & rhs, key
    for name in BINDINGS:
        assert callable(getattr(verify, name))


@pytest.mark.parametrize("name", BINDINGS)
def test_scaling_a_binding_moves_only_its_side(name, baseline, monkeypatch):
    original = getattr(verify, name)
    monkeypatch.setattr(verify, name, lambda *a, **k: _scaled(original(*a, **k)))
    rows = _check_all()
    assert [r.state_descriptor for r in rows] == [r.state_descriptor for r in baseline]
    for before, after in zip(baseline, rows):
        lhs, rhs = SIDES[_key(before)]
        where = (name, before.relation.value, before.state_descriptor)
        if name in lhs or name in rhs:
            assert abs((after.lhs - after.rhs) - (before.lhs - before.rhs)) > MOVED, where
            kept = "rhs" if name in lhs else "lhs"
            assert getattr(after, kept) == getattr(before, kept), where
        else:
            assert (after.lhs, after.rhs) == (before.lhs, before.rhs), where


def test_negativity_side_is_the_partial_transpose(baseline, monkeypatch):
    """R1-R4 and R7 take negativity from the partial transpose of the
    density matrix, never from the factored route of negativity_profile,
    which for a pure state works from the Schmidt data k-ME uses."""
    assert verify.transposed_profile is measures.transposed_profile
    negative_rows = {key for key, (lhs, rhs) in SIDES.items() if _NEG in rhs}
    assert {key[0] for key in negative_rows} == {"R1", "R2", "R3", "R4", "R7"}

    def factored(*args):
        raise AssertionError("the suite reached the factored negativity route")

    monkeypatch.setattr(measures, "_factored_negativity", factored)
    monkeypatch.setattr(measures, "density_factor", factored)
    original = measures.negativity
    monkeypatch.setattr(measures, "negativity", lambda *a: original(*a) * SCALE)
    for before, after in zip(baseline, _check_all()):
        moved = abs(after.rhs - before.rhs) > MOVED
        assert moved == (_key(before) in negative_rows), before.state_descriptor


def test_invariant_side_forms_no_reduced_density(baseline, monkeypatch):
    """R5 and R6 compare k-ME, whose one-site values come from the Gram
    matrix of one site's amplitudes (that site's reduced density matrix),
    with the degree-4 invariants.  While the invariants are computed,
    qstate._reduced_density_pure and qstate._purity raise wherever qent
    binds them; while k-ME is computed, invariants._site_purity raises.
    The rows are still built, bit for bit."""
    running = []  # the side whose computation is under way

    def side(name, fn):
        def wrapped(*args, **kwargs):
            running.append(name)
            try:
                return fn(*args, **kwargs)
            finally:
                running.pop()
        return wrapped

    def barred(name, fn):
        def guarded(*args, **kwargs):
            assert name not in running, f"the {name} side reached {fn.__module__}.{fn.__name__}"
            return fn(*args, **kwargs)
        return guarded

    for name in ("invariants3", "invariants4"):
        monkeypatch.setattr(verify, name, side("invariant", getattr(verify, name)))
    monkeypatch.setattr(verify, _KME, side("k-ME", getattr(verify, _KME)))
    modules = [m for name, m in sys.modules.items() if name == "qent" or name.startswith("qent.")]
    for name in ("_reduced_density_pure", "_purity"):
        original = getattr(qstate, name)
        for module in modules:
            if getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, barred("invariant", original))
    monkeypatch.setattr(invariants, "_site_purity", barred("k-ME", invariants._site_purity))
    rows = [row for rel, payload in PAYLOADS if rel in ("R5", "R6")
            for row in verify.check(rel, payload)]
    assert rows == [row for row in baseline if row.relation.value in ("R5", "R6")]
