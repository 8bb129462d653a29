import numpy as np
import pytest
from oracles import random_state_vector

from qent import (
    DensityMatrix,
    DimensionMismatch,
    FamilyParams,
    PureState,
    apply_local_unitary,
    ghz,
    invariants3,
    invariants4,
    kme_concurrence_pure,
    kme_from_invariants3,
    kme_from_invariants4,
    make_pure,
    random_local_unitary,
    reduced_density_pure,
    slocc_family,
    tangles_from_invariants3,
    three_tangle,
    two_tangle,
    w,
)

GHZ4 = ghz(4)
PSI9 = slocc_family(FamilyParams(9))
PSI7 = slocc_family(FamilyParams(7))


class TestInvariants3:
    def test_ghz3(self):
        inv = invariants3(ghz(3))
        assert inv.i2 == pytest.approx(1.0)
        assert np.allclose(inv.i4, (1.0, 0.5, 0.5, 0.5))

    def test_product(self):
        inv = invariants3(make_pure([1, 0, 0, 0, 0, 0, 0, 0], 3))
        assert np.allclose(inv.i4, (1.0, 1.0, 1.0, 1.0))

    def test_w3(self):
        inv = invariants3(w(3))
        assert np.allclose(inv.i4, (1.0, 5 / 9, 5 / 9, 5 / 9))

    def test_first_invariant_is_norm_squared(self, rng):
        psi = PureState(random_state_vector(3, rng), 3)
        inv = invariants3(psi)
        assert inv.i4[0] == pytest.approx(inv.i2**2)

    def test_dimension_check(self):
        with pytest.raises(DimensionMismatch):
            invariants3(GHZ4)


class TestTanglesFromInvariants3:
    def test_ghz3(self):
        taus = tangles_from_invariants3(invariants3(ghz(3)), 1.0)
        assert np.allclose(taus, (0.0, 0.0, 0.0), atol=1e-12)

    def test_w3(self):
        taus = tangles_from_invariants3(invariants3(w(3)), 0.0)
        assert np.allclose(taus, (4 / 9, 4 / 9, 4 / 9))

    def test_product(self):
        psi = make_pure([1, 0, 0, 0, 0, 0, 0, 0], 3)
        assert np.allclose(tangles_from_invariants3(invariants3(psi), 0.0), (0, 0, 0))

    def test_matches_wootters_on_random_states(self, rng):
        for _ in range(40):
            psi = PureState(random_state_vector(3, rng), 3)
            pred = tangles_from_invariants3(invariants3(psi), three_tangle(psi))
            for (i, j), want in zip(((0, 1), (0, 2), (1, 2)), pred):
                got = two_tangle(DensityMatrix(reduced_density_pure(psi, (i, j)), 2))
                assert abs(want - got) <= 1e-8


class TestKmeFromInvariants3:
    def test_ghz3(self):
        assert np.allclose(kme_from_invariants3(invariants3(ghz(3))), (1.0, 1.0))

    def test_product(self):
        psi = make_pure([1, 0, 0, 0, 0, 0, 0, 0], 3)
        assert kme_from_invariants3(invariants3(psi)) == (0.0, 0.0)

    def test_w3(self):
        val = 2 * np.sqrt(2) / 3
        assert np.allclose(kme_from_invariants3(invariants3(w(3))), (val, val))

    def test_consistency_with_direct(self, rng):
        for _ in range(60):
            psi = PureState(random_state_vector(3, rng), 3)
            c2i, c3i = kme_from_invariants3(invariants3(psi))
            assert abs(c2i - kme_concurrence_pure(psi, 2).value) <= 1e-9
            assert abs(c3i - kme_concurrence_pure(psi, 3).value) <= 1e-9

    def test_c3_tangle_identity(self, rng):
        for _ in range(40):
            psi = PureState(random_state_vector(3, rng), 3)
            taus = [
                two_tangle(DensityMatrix(reduced_density_pure(psi, pair), 2))
                for pair in ((0, 1), (0, 2), (1, 2))
            ]
            pred = np.sqrt(2 / 3 * sum(taus) + three_tangle(psi))
            assert abs(pred - kme_concurrence_pure(psi, 3).value) <= 1e-8


class TestInvariants4:
    def test_family9(self):
        inv = invariants4(PSI9)
        assert np.allclose(inv.i4, (0.5, 0.5, 0.5, 1.0, 0.5, 0.5, 0.5))

    def test_product(self):
        inv = invariants4(make_pure([1] + [0] * 15, 4))
        assert np.allclose(inv.i4, (1.0,) * 7)

    def test_ghz4_all_half(self):
        assert np.allclose(invariants4(GHZ4).i4, (0.5,) * 7)

    def test_derived_pair_purities(self, rng):
        from qent import purity

        psi = PureState(random_state_vector(4, rng), 4)
        inv = invariants4(psi)
        direct = tuple(
            purity(reduced_density_pure(psi, pair)) for pair in ((0, 1), (0, 2), (1, 2))
        )
        # for a pure state a pair shares its purity with the complementary
        # pair: AB with CD, AC with BD and BC with AD
        assert np.allclose((inv.i4[6], inv.i4[5], inv.i4[4]), direct, atol=1e-12)

    def test_dimension_check(self):
        with pytest.raises(DimensionMismatch):
            invariants4(ghz(3))


class TestKmeFromInvariants4:
    def test_family9(self):
        c2, c3, c4 = kme_from_invariants4(invariants4(PSI9))
        assert c2 == pytest.approx(0.0, abs=1e-9)
        assert c3 == pytest.approx(np.sqrt(2 / 3))
        assert c4 == pytest.approx(np.sqrt(3) / 2)

    def test_family7_c3(self):
        _, c3, _ = kme_from_invariants4(invariants4(PSI7))
        assert c3 == pytest.approx(np.sqrt(5 / 6))

    def test_product(self):
        vals = kme_from_invariants4(invariants4(make_pure([1] + [0] * 15, 4)))
        assert vals == (0.0, 0.0, 0.0)

    def test_consistency_with_direct(self, rng):
        for _ in range(60):
            psi = PureState(random_state_vector(4, rng), 4)
            c2i, c3i, c4i = kme_from_invariants4(invariants4(psi))
            assert abs(c2i - kme_concurrence_pure(psi, 2).value) <= 1e-9
            assert abs(c3i - kme_concurrence_pure(psi, 3).value) <= 1e-9
            assert abs(c4i - kme_concurrence_pure(psi, 4).value) <= 1e-9


class TestLocalUnitaryInvariance:
    def test_invariants_do_not_move(self, rng):
        psi = PureState(random_state_vector(4, rng), 4)
        base = invariants4(psi)
        rotated = psi
        for site in range(4):
            rotated = apply_local_unitary(rotated, site, random_local_unitary(500 + site))
        after = invariants4(rotated)
        assert abs(base.i2 - after.i2) <= 1e-8
        assert np.allclose(base.i4, after.i4, atol=1e-8)
