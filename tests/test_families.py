import os
import resource
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from qent import (
    DensityMatrix,
    FamilyParams,
    OutOfDomain,
    OutOfRange,
    ZeroVector,
    default_parameter_grid,
    density_of,
    family_closed_forms,
    ghz,
    ghz_noise,
    ghz_noise_negativity,
    ghz_noise_nme_exact,
    ghz_noise_threshold,
    kme_concurrence_pure,
    linear_entropy_pure,
    negativity,
    nme_lower_bound,
    purity,
    reduced_density_pure,
    slocc_family,
    two_tangle,
    w,
    w_class,
    w_kme_closed_form,
    w_two_tangle,
)


class TestBasicConstructors:
    def test_ghz3_amplitudes(self):
        psi = ghz(3)
        assert psi.amplitudes[0] == pytest.approx(1 / np.sqrt(2))
        assert psi.amplitudes[7] == pytest.approx(1 / np.sqrt(2))
        assert np.count_nonzero(psi.amplitudes) == 2

    def test_w3_amplitudes(self):
        psi = w(3)
        for idx in (1, 2, 4):
            assert psi.amplitudes[idx] == pytest.approx(1 / np.sqrt(3))
        assert np.count_nonzero(psi.amplitudes) == 3

    def test_w_class_placement(self):
        coeffs = np.array([0.8, 0.6j, 0.0])
        psi = w_class(coeffs)
        assert psi.amplitudes[1] == pytest.approx(0.8)
        assert psi.amplitudes[2] == pytest.approx(0.6j)

    def test_w_class_purity_formula(self, rng):
        # 1 - Tr rho_n^2 = 2 |a_1|^2 sum_{i>=2} |a_i|^2 for the last site
        for n in range(3, 8):
            coeffs = rng.normal(size=n) + 1j * rng.normal(size=n)
            coeffs /= np.linalg.norm(coeffs)
            psi = w_class(coeffs)
            lhs = linear_entropy_pure(psi, (n - 1,))
            rhs = 2 * abs(coeffs[0]) ** 2 * sum(abs(c) ** 2 for c in coeffs[1:])
            assert abs(lhs - rhs) <= 1e-10

    def test_errors(self):
        with pytest.raises(OutOfRange):
            ghz(1)
        with pytest.raises(OutOfRange):
            w(1)
        with pytest.raises(ZeroVector):
            w_class([0, 0, 0])
        with pytest.raises(OutOfRange):  # 2^15 amplitudes: over the 14-qubit cap
            w_class(np.ones(15))


class TestGhzNoise:
    def test_t1_is_pure_projector(self):
        rho = ghz_noise(3, 1.0)
        assert purity(rho) == pytest.approx(1.0)
        assert np.allclose(rho.entries, density_of(ghz(3)).entries)

    def test_t0_is_maximally_mixed(self):
        rho = ghz_noise(3, 0.0)
        assert purity(rho) == pytest.approx(1 / 8)

    def test_negativity_closed_form_example(self):
        rho = ghz_noise(3, 0.5)
        expected = (5 * 0.5 - 1) / 4
        assert ghz_noise_negativity(3, 0.5) == pytest.approx(expected)
        for p in range(3):
            assert negativity(rho, p) == pytest.approx(expected, abs=1e-9)

    def test_negativity_closed_form_grid(self):
        for n in range(2, 7):
            lo = ghz_noise_threshold(n)
            for t in np.linspace(lo, 1.0, 21):
                rho = ghz_noise(n, float(t))
                pred = ghz_noise_negativity(n, float(t))
                for p in range(n):
                    assert abs(negativity(rho, p) - pred) <= 1e-9

    def test_zero_below_threshold(self):
        for n in (2, 3, 4):
            t = ghz_noise_threshold(n) * 0.5
            assert ghz_noise_negativity(n, t) == 0.0
            rho = ghz_noise(n, t)
            assert all(negativity(rho, p) <= 1e-10 for p in range(n))

    def test_range_errors(self):
        with pytest.raises(OutOfRange):
            ghz_noise(3, 1.5)
        with pytest.raises(OutOfRange):
            ghz_noise(1, 0.5)

    def test_oversized_n_refused_before_allocating(self):
        """n = 13 needs 1 GiB per dense 2^n x 2^n array.  ghz_noise runs in
        a child process with 1 GiB of address space, where an allocation
        would end in numpy's MemoryError, and refuses n = 13, 14 and a
        huge n with OutOfRange at once."""
        def limit():
            resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

        code = (
            "from qent import OutOfRange, ghz_noise\n"
            "for n in (13, 14, 10**35):\n"
            "    try:\n"
            "        ghz_noise(n, 0.5)\n"
            "    except OutOfRange as exc:\n"
            "        print(exc)\n"
        )
        src = str(Path(__file__).resolve().parents[1] / "src")
        done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              preexec_fn=limit, timeout=10, env={**os.environ, "PYTHONPATH": src})
        assert done.returncode == 0, done.stderr
        assert len(done.stdout.splitlines()) == 3, done.stdout


class TestGhzNoiseExactValue:
    def test_interval_boundary_zero(self):
        assert ghz_noise_nme_exact(3, 1 / 5) == pytest.approx(0.0, abs=1e-12)

    def test_pure_limit(self):
        assert ghz_noise_nme_exact(3, 1.0) == pytest.approx(1.0)

    def test_n4_half(self):
        assert ghz_noise_nme_exact(4, 0.5) == pytest.approx(7 / 16)

    def test_matches_lower_bound_on_grid(self):
        for n in range(2, 6):
            lo = ghz_noise_threshold(n)
            for t in np.linspace(lo, 1.0, 11):
                got = nme_lower_bound(ghz_noise(n, float(t)))
                assert abs(got - ghz_noise_nme_exact(n, float(t))) <= 1e-9

    def test_out_of_domain(self):
        with pytest.raises(OutOfDomain):
            ghz_noise_nme_exact(3, 0.1)


class TestSloccStates:
    def test_family9_vector(self):
        psi = slocc_family(FamilyParams(9))
        want = np.zeros(16)
        want[0b0000] = want[0b0111] = 1 / np.sqrt(2)
        assert np.allclose(psi.amplitudes, want)

    def test_family8_vector(self):
        psi = slocc_family(FamilyParams(8))
        want = np.zeros(16)
        for bits in (0b0000, 0b1011, 0b1101, 0b1110):
            want[bits] = 0.5
        assert np.allclose(psi.amplitudes, want)

    def test_family1_bell_product(self):
        psi = slocc_family(FamilyParams(1, a=1, d=0))
        want = np.zeros(16)
        for bits in (0b0000, 0b0011, 0b1100, 0b1111):
            want[bits] = 0.5
        assert np.allclose(psi.amplitudes, want)

    def test_family4_norm(self):
        # squared norm of the unnormalized vector must be 3|a|^2 + |b|^2 + 2
        for a, b in ((1.0, 0.5), (0.3 + 0.4j, 1.2j), (0.0, 0.0)):
            v = np.zeros(16, dtype=complex)
            v[0b0000] = v[0b1111] = a
            v[0b0101] = v[0b1010] = (a + b) / 2
            v[0b0110] = v[0b1001] = (a - b) / 2
            for bits in (0b0001, 0b0010, 0b0111, 0b1011):
                v[bits] = 1j / np.sqrt(2)
            assert np.linalg.norm(v) ** 2 == pytest.approx(
                3 * abs(a) ** 2 + abs(b) ** 2 + 2
            )
            got = slocc_family(FamilyParams(4, a=a, b=b))
            assert np.allclose(got.amplitudes, v / np.linalg.norm(v))

    def test_family5_norm(self):
        for a in (1.0, 0.7j, 0.0):
            v = np.zeros(16, dtype=complex)
            for bits in (0b0000, 0b0101, 0b1010, 0b1111):
                v[bits] = a
            v[0b0001] = 1j
            v[0b0110] = 1.0
            v[0b1011] = -1j
            assert np.linalg.norm(v) ** 2 == pytest.approx(4 * abs(a) ** 2 + 3)
            got = slocc_family(FamilyParams(5, a=a))
            assert np.allclose(got.amplitudes, v / np.linalg.norm(v))

    def test_family1_zero_params_rejected(self):
        with pytest.raises(ZeroVector):
            slocc_family(FamilyParams(1))

    def test_family1_zero_params_closed_forms_rejected(self):
        with pytest.raises(ZeroVector):
            family_closed_forms(FamilyParams(1))

    def test_bad_family_id(self):
        with pytest.raises(OutOfRange):
            FamilyParams(10)


class TestClosedForms:
    def test_family7_fixed_values(self):
        pred = family_closed_forms(FamilyParams(7))
        assert pred.c2 == pytest.approx(np.sqrt(3) / 2)
        assert pred.c3 == pytest.approx(np.sqrt(5 / 6))
        assert pred.c4 == pytest.approx(np.sqrt(13) / 4)
        assert np.allclose(
            pred.negativities, (np.sqrt(3) / 2, 1.0, np.sqrt(3) / 2, np.sqrt(3) / 2)
        )
        assert pred.c2_min_negativity == "holds"

    def test_family6_a1(self):
        pred = family_closed_forms(FamilyParams(6, a=1.0))
        assert pred.c2 == pytest.approx(4 / 5)
        assert pred.c4 == pytest.approx(np.sqrt(22) / 5)
        assert pred.negativities[1] == pytest.approx(np.sqrt(24) / 5)

    def test_family1_ghz_like(self):
        pred = family_closed_forms(FamilyParams(1, a=1.0))
        assert pred.c4 == pytest.approx(1.0)
        assert np.allclose(pred.negativities, (1.0, 1.0, 1.0, 1.0))

    @pytest.mark.parametrize("fam", range(1, 10))
    def test_grid_matches_direct_numerics(self, fam):
        for params in default_parameter_grid(fam):
            psi = slocc_family(params)
            pred = family_closed_forms(params)
            rho = density_of(psi)
            for k, closed in ((2, pred.c2), (3, pred.c3), (4, pred.c4)):
                direct = kme_concurrence_pure(psi, k).value
                assert abs(closed - direct) <= 1e-8, (params.describe(), k)
            for p in range(4):
                assert abs(pred.negativities[p] - negativity(rho, p)) <= 1e-8

    @pytest.mark.parametrize("fam", range(1, 10))
    def test_min_negativity_rule(self, fam):
        for params in default_parameter_grid(fam):
            pred = family_closed_forms(params)
            psi = slocc_family(params)
            rho = density_of(psi)
            c2 = kme_concurrence_pure(psi, 2).value
            min_n = min(negativity(rho, p) for p in range(4))
            if fam in (6, 7, 8, 9):
                assert pred.c2_min_negativity == "holds"
                assert pred.condition_margin is None
                assert abs(c2 - min_n) <= 1e-8
            elif pred.c2_min_negativity == "conditional":
                assert pred.condition_margin >= 0
                assert abs(c2 - min_n) <= 1e-8
            else:
                assert pred.c2_min_negativity == "fails"
                assert pred.condition_margin < 0

    def test_family5_branch_boundaries(self):
        # both C2 branch expressions agree at |a|^2 = 3/2
        a = np.sqrt(1.5)
        s = 4 * 1.5 + 3
        b1 = 2 * np.sqrt(4 * 1.5**2 + 6 * 1.5 + 2) / s
        b2 = 2 * np.sqrt(12 * 1.5 + 2) / s
        assert abs(b1 - b2) <= 1e-8
        assert family_closed_forms(FamilyParams(5, a=a)).c2 == pytest.approx(b1)
        # both C3 branch expressions agree at |a|^2 = (3 +- sqrt(3)) / 6
        for asq in ((3 - np.sqrt(3)) / 6, (3 + np.sqrt(3)) / 6):
            s = 4 * asq + 3
            c1 = np.sqrt(7 / 6 - (7 + 24 * asq) / (6 * s**2))
            c2 = np.sqrt(4 / 3 - 2 * (16 * asq**2 + 6) / (3 * s**2))
            assert abs(c1 - c2) <= 1e-8
            pred = family_closed_forms(FamilyParams(5, a=np.sqrt(asq)))
            assert pred.c3 == pytest.approx(c1)

    def test_grids_have_enough_points(self):
        for fam in range(1, 7):
            assert len(default_parameter_grid(fam)) >= 20
        for fam in (7, 8, 9):
            assert len(default_parameter_grid(fam)) == 1


class TestWClosedForms:
    def test_w_two_tangle_uniform(self):
        coeffs = np.ones(3) / np.sqrt(3)
        for i, j in ((1, 2), (1, 3), (2, 3)):
            assert w_two_tangle(coeffs, i, j) == pytest.approx(4 / 9)

    def test_w_two_tangle_zero_coefficient(self):
        assert w_two_tangle([1.0, 0, 0], 1, 2) == 0.0

    def test_w_two_tangle_weighted(self):
        coeffs = [np.sqrt(0.5), np.sqrt(0.3), np.sqrt(0.2)]
        assert w_two_tangle(coeffs, 1, 2) == pytest.approx(0.24)

    def test_w_two_tangle_matches_wootters(self, rng):
        for n in (3, 4, 5):
            coeffs = rng.normal(size=n) + 1j * rng.normal(size=n)
            coeffs /= np.linalg.norm(coeffs)
            psi = w_class(coeffs)
            for i in range(1, n + 1):
                for j in range(i + 1, n + 1):
                    red = DensityMatrix(reduced_density_pure(psi, (i - 1, j - 1)), 2)
                    assert abs(w_two_tangle(coeffs, i, j) - two_tangle(red)) <= 1e-8

    def test_w_two_tangle_index_errors(self):
        with pytest.raises(OutOfRange):
            w_two_tangle([1, 0, 0], 2, 2)
        with pytest.raises(OutOfRange):
            w_two_tangle([1, 0, 0], 1, 4)

    def test_w_kme_values(self):
        assert w_kme_closed_form(3, 3) == pytest.approx(2 * np.sqrt(2) / 3)
        assert w_kme_closed_form(4, 2) == pytest.approx(np.sqrt(3) / 2)
        assert w_kme_closed_form(5, 5) == pytest.approx(4 / 5)

    def test_w_kme_matches_direct(self):
        for n in range(3, 7):
            psi = w(n)
            for k in range(2, n + 1):
                direct = kme_concurrence_pure(psi, k).value
                assert abs(w_kme_closed_form(n, k) - direct) <= 1e-9

    def test_w_kme_range_errors(self):
        with pytest.raises(OutOfRange):
            w_kme_closed_form(2, 2)
        with pytest.raises(OutOfRange):
            w_kme_closed_form(4, 5)


class TestParameterRange:
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), complex(0, float("-inf"))])
    @pytest.mark.parametrize("slot", ["a", "b", "c", "d"])
    def test_non_finite_parameter_refused(self, slot, value):
        with pytest.raises(OutOfRange, match="finite"):
            FamilyParams(1, **{slot: value})

    @pytest.mark.parametrize("family", [1, 2, 3, 4, 5, 6])
    @pytest.mark.parametrize("magnitude", [1e77, 1e150, 1e200, 1e300])
    @pytest.mark.parametrize("phase", [1, 1j, 1 + 1j, -1])
    def test_huge_parameter_is_a_state_or_out_of_range(self, family, magnitude, phase):
        """A finite parameter of any size gives a normalized state, and its
        closed forms are numbers or OutOfRange; never a plain ValueError,
        an OverflowError or a numpy warning."""
        params = FamilyParams(family, magnitude * phase, 0.5, 0.3, 0.2)
        assert abs(np.linalg.norm(slocc_family(params).amplitudes) - 1.0) < 1e-12
        try:
            pred = family_closed_forms(params)
        except OutOfRange as exc:
            assert "overflow" in str(exc)
        else:
            assert np.isfinite([pred.c2, pred.c3, pred.c4, *pred.negativities]).all()

    def test_family6_overflow_is_out_of_range(self):
        with pytest.raises(OutOfRange, match="overflow"):
            family_closed_forms(FamilyParams(6, 1e150))
