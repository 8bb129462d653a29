import numpy as np
import pytest
from oracles import partial_trace_brute, random_state_vector

from qent import (
    DensityMatrix,
    DimensionMismatch,
    IndexOutOfRange,
    InputError,
    NotHermitian,
    NotUnitary,
    PureState,
    SchmidtSpectrum,
    ZeroVector,
    apply_local_unitary,
    density_of,
    ghz,
    hermitian_eigenvalues,
    make_pure,
    partial_trace,
    partial_transpose,
    purity,
    reduced_density_pure,
    schmidt_spectrum,
    state_from_json,
    state_to_json,
    w,
)
from qent import IncompatibleInput, negativity
from qent.qstate import density_factor, schmidt_weights, sites_tuple

BELL = make_pure([1, 0, 0, 1], 2)


class TestMakePure:
    def test_bell_normalized(self):
        assert np.isclose(np.linalg.norm(BELL.amplitudes), 1.0)
        assert BELL.amplitudes[0] == pytest.approx(1 / np.sqrt(2))

    def test_ghz3_rescale(self):
        psi = make_pure([1, 0, 0, 0, 0, 0, 0, 1], 3)
        assert psi.amplitudes[0] == pytest.approx(1 / np.sqrt(2))
        assert psi.amplitudes[7] == pytest.approx(1 / np.sqrt(2))

    def test_zero_vector(self):
        with pytest.raises(ZeroVector):
            make_pure([0, 0, 0, 0], 2)

    def test_wrong_length(self):
        with pytest.raises(DimensionMismatch):
            make_pure([1, 0, 0], 2)

    def test_unnormalized_direct_construction_rejected(self):
        with pytest.raises(InputError):
            PureState(np.array([1.0, 1.0, 0, 0]), 2)


class TestDensityOf:
    def test_bell_corners(self):
        rho = density_of(BELL)
        expected = np.zeros((4, 4))
        for i, j in ((0, 0), (0, 3), (3, 0), (3, 3)):
            expected[i, j] = 0.5
        assert np.allclose(rho.entries, expected)

    def test_product_state(self):
        rho = density_of(make_pure([1, 0, 0, 0], 2))
        assert np.allclose(rho.entries, np.diag([1, 0, 0, 0]))

    def test_projector_purity(self):
        assert purity(density_of(ghz(3))) == pytest.approx(1.0)


class TestDensityMatrixValidation:
    def test_rejects_non_hermitian(self):
        m = np.diag([0.5, 0.5, 0.0, 0.0]).astype(complex)
        m[0, 1] = 0.1j
        with pytest.raises(NotHermitian):
            DensityMatrix(m, 2)

    def test_rejects_bad_trace(self):
        with pytest.raises(InputError):
            DensityMatrix(np.eye(4) / 2.0, 2)

    def test_rejects_negative_eigenvalue(self):
        with pytest.raises(InputError):
            DensityMatrix(np.diag([1.5, -0.5, 0, 0]).astype(complex), 2)


class TestNonFiniteRejected:
    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_constructors(self, bad):
        with pytest.raises(InputError, match="non-finite"):
            PureState(np.array([bad, 0.0]), 1)
        with pytest.raises(InputError, match="non-finite"):
            DensityMatrix(np.array([[0.5, bad], [bad, 0.5]]), 1)
        with pytest.raises(InputError, match="non-finite"):
            SchmidtSpectrum((bad, 0.0))


class TestPartialTrace:
    def test_ghz3_single_site(self):
        red = partial_trace(density_of(ghz(3)), (0,))
        assert np.allclose(red.entries, np.diag([0.5, 0.5]))

    def test_product_keep_second(self):
        red = partial_trace(density_of(make_pure([1, 0, 0, 0], 2)), (1,))
        assert np.allclose(red.entries, np.diag([1.0, 0.0]))

    def test_w3_single_site(self):
        red = partial_trace(density_of(w(3)), (0,))
        assert np.allclose(red.entries, np.diag([2 / 3, 1 / 3]))

    def test_full_set_is_identity_op(self):
        rho = density_of(BELL)
        assert np.allclose(partial_trace(rho, (0, 1)).entries, rho.entries)

    def test_against_index_summation_oracle(self, rng):
        for n in (2, 3, 4):
            rho = density_of(PureState(random_state_vector(n, rng), n))
            for keep in ([0], [n - 1], [0, n - 1]):
                got = partial_trace(rho, keep).entries
                want = partial_trace_brute(rho.entries, keep, n)
                assert np.allclose(got, want, atol=1e-12)

    def test_out_of_range(self):
        with pytest.raises(IndexOutOfRange):
            partial_trace(density_of(BELL), (2,))

    def test_complement_purity_symmetry(self, rng):
        for n in (3, 4, 5):
            psi = PureState(random_state_vector(n, rng), n)
            rho = density_of(psi)
            for cut in range(1, n):
                keep = tuple(range(cut))
                rest = tuple(range(cut, n))
                pa = purity(partial_trace(rho, keep))
                pb = purity(partial_trace(rho, rest))
                assert abs(pa - pb) <= 1e-10

    def test_fast_path_agrees_with_explicit(self, rng):
        for n in (2, 3, 4, 5):
            psi = PureState(random_state_vector(n, rng), n)
            rho = density_of(psi)
            for keep in ([0], [n - 1], list(range(n - 1))):
                fast = reduced_density_pure(psi, keep)
                explicit = partial_trace(rho, keep).entries
                assert np.max(np.abs(fast - explicit)) <= 1e-12


class TestPartialTranspose:
    def test_bell_eigenvalues(self):
        ev = hermitian_eigenvalues(partial_transpose(density_of(BELL), 0))
        assert np.allclose(ev, [-0.5, 0.5, 0.5, 0.5])

    def test_diagonal_state_unchanged(self):
        rho = DensityMatrix(np.diag([1.0, 0, 0, 0]).astype(complex), 2)
        pt = partial_transpose(rho, 0)
        assert np.allclose(pt, rho.entries)
        assert np.min(np.linalg.eigvalsh(pt)) >= -1e-12

    def test_involution_and_invariants(self, rng):
        from qent.qstate import partial_transpose_sites

        for n in (2, 3, 4):
            rho = density_of(PureState(random_state_vector(n, rng), n))
            for site in range(n):
                pt = partial_transpose(rho, site)
                assert np.allclose(pt, pt.conj().T)
                assert np.trace(pt) == pytest.approx(1.0)
                again = partial_transpose_sites(pt, (site,), n)
                assert np.array_equal(again, rho.entries)

    def test_out_of_range(self):
        with pytest.raises(IndexOutOfRange):
            partial_transpose(density_of(BELL), 5)


class TestPurity:
    def test_maximally_mixed_qubit(self):
        assert purity(DensityMatrix(np.eye(2, dtype=complex) / 2, 1)) == pytest.approx(0.5)

    def test_reduced_w3(self):
        red = partial_trace(density_of(w(3)), (0,))
        assert purity(red) == pytest.approx(5 / 9)


class TestSchmidt:
    def test_bell(self):
        spec = schmidt_spectrum(BELL, (0,))
        assert np.allclose(spec.coefficients, [0.5, 0.5])
        assert spec.rank == 2

    def test_product(self):
        spec = schmidt_spectrum(make_pure([1, 0, 0, 0], 2), (0,))
        assert np.allclose(spec.coefficients, [1.0, 0.0])
        assert spec.rank == 1

    def test_weighted(self):
        psi = make_pure([np.sqrt(0.8), 0, 0, np.sqrt(0.2)], 2)
        assert np.allclose(schmidt_spectrum(psi, (0,)).coefficients, [0.8, 0.2])

    def test_side_symmetry(self, rng):
        for n in (3, 4, 5):
            psi = PureState(random_state_vector(n, rng), n)
            for cut in range(1, n):
                a = schmidt_spectrum(psi, tuple(range(cut))).coefficients
                b = schmidt_spectrum(psi, tuple(range(cut, n))).coefficients
                m = min(len(a), len(b))
                assert np.allclose(sorted(a[:m]), sorted(b[:m]), atol=1e-10)
                assert all(abs(x) <= 1e-10 for x in a[m:] + b[m:])

    def test_full_set_rejected(self):
        with pytest.raises(IndexOutOfRange):
            schmidt_spectrum(BELL, (0, 1))


class TestHermitianEigen:
    def test_diagonal(self):
        assert np.allclose(hermitian_eigenvalues(np.diag([3.0, 1.0, 2.0])), [1, 2, 3])

    def test_pauli_x(self):
        x = np.array([[0, 1], [1, 0]], dtype=complex)
        assert np.allclose(hermitian_eigenvalues(x), [-1, 1])

    def test_rejects_non_hermitian(self):
        with pytest.raises(NotHermitian):
            hermitian_eigenvalues(np.array([[0, 1], [0, 0]], dtype=complex))

    @pytest.mark.parametrize("m", [[[1, 2, 3]], [1, 0], [[[1.0]]]], ids=["1x3", "vector", "3d"])
    def test_raw_matrix_must_be_square(self, m):
        with pytest.raises(DimensionMismatch):
            hermitian_eigenvalues(m)
        with pytest.raises(DimensionMismatch):
            purity(m)

    def test_eigensum_is_trace_and_reconstruction(self, rng):
        for dim in (2, 4, 8):
            z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
            h = (z + z.conj().T) / 2
            vals = hermitian_eigenvalues(h)
            assert abs(vals.sum() - np.real(np.trace(h))) <= 1e-8


class TestApplyLocalUnitary:
    def test_identity(self):
        out = apply_local_unitary(BELL, 0, np.eye(2))
        assert np.allclose(out.amplitudes, BELL.amplitudes)

    def test_pauli_x_flips_site0(self):
        x = np.array([[0, 1], [1, 0]], dtype=complex)
        out = apply_local_unitary(make_pure([1, 0, 0, 0], 2), 0, x)
        assert np.allclose(out.amplitudes, [0, 0, 1, 0])

    def test_norm_preserved(self, rng):
        psi = PureState(random_state_vector(3, rng), 3)
        z = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        q = np.linalg.qr(z)[0]
        out = apply_local_unitary(psi, 1, q)
        assert np.linalg.norm(out.amplitudes) == pytest.approx(1.0)

    def test_rejects_non_unitary(self):
        with pytest.raises(NotUnitary):
            apply_local_unitary(BELL, 0, np.array([[1, 0], [0, 2.0]]))

    def test_rejects_bad_site(self):
        with pytest.raises(IndexOutOfRange):
            apply_local_unitary(BELL, 2, np.eye(2))


class TestStateJson:
    def test_pure_roundtrip(self, rng):
        psi = PureState(random_state_vector(3, rng), 3)
        back = state_from_json(state_to_json(psi))
        assert isinstance(back, PureState)
        assert np.allclose(back.amplitudes, psi.amplitudes)

    def test_density_roundtrip(self):
        rho = density_of(BELL)
        back = state_from_json(state_to_json(rho))
        assert isinstance(back, DensityMatrix)
        assert np.allclose(back.entries, rho.entries)

    def test_rejects_unnormalized(self):
        bad = '{"kind": "pure", "num_sites": 1, "amplitudes": [[1, 0], [1, 0]]}'
        with pytest.raises(InputError):
            state_from_json(bad)

    def test_rejects_non_hermitian(self):
        bad = (
            '{"kind": "density", "num_sites": 1,'
            ' "matrix": [[[0.5, 0], [0.3, 0.1]], [[0, 0], [0.5, 0]]]}'
        )
        with pytest.raises(InputError):
            state_from_json(bad)

    @pytest.mark.parametrize("text", [None, 3, ["{}"]], ids=["None", "int", "list"])
    def test_rejects_what_is_not_text(self, text):
        with pytest.raises(InputError, match="invalid JSON"):
            state_from_json(text)

    def test_rejects_garbage(self):
        with pytest.raises(InputError):
            state_from_json("not json at all")
        with pytest.raises(InputError):
            state_from_json('{"kind": "blob"}')

    @pytest.mark.parametrize("text", [
        '{"kind": "pure", "num_sites": 1, "amplitudes": [[true, false], [false, false]]}',
        '{"kind": "pure", "num_sites": 1, "amplitudes": [[1, 0], [0, false]]}',
        '{"kind": "density", "num_sites": 1,'
        ' "matrix": [[[true, 0], [0, 0]], [[0, 0], [0, 0]]]}',
        '{"kind": "density", "num_sites": 1,'
        ' "matrix": [[[1, 0], [0, 0]], [[0, false], [0, 0]]]}',
    ])
    def test_rejects_booleans(self, text):
        with pytest.raises(InputError, match="true or false"):
            state_from_json(text)

    def test_true_in_a_string_is_no_boolean(self):
        text = '{"kind": "pure", "num_sites": 1, "amplitudes": [[1, 0], [0, 0]], "note": "true"}'
        assert np.array_equal(state_from_json(text).amplitudes, [1, 0])


class TestRefusals:
    def test_duplicate_sites(self):
        with pytest.raises(IndexOutOfRange, match="duplicate site indices"):
            reduced_density_pure(ghz(3), (0, 0))

    def test_negative_schmidt_weight(self):
        with pytest.raises(InputError, match="negative Schmidt weight"):
            SchmidtSpectrum([1.5, -0.5])

    @pytest.mark.parametrize("text", ["[1, 2]", '{"kind": "mixed", "num_sites": 1}'])
    def test_state_json_of_no_known_kind(self, text):
        with pytest.raises(InputError):
            state_from_json(text)


class TestMakePureScale:
    @pytest.mark.parametrize("scale", [1e-6, 1.0, 1e200, 1e300])
    def test_any_finite_scale_normalizes(self, scale):
        psi = make_pure(np.array([1, 1j, 0, -1]) * scale, 2)
        assert np.allclose(psi.amplitudes, np.array([1, 1j, 0, -1]) / np.sqrt(3))


class TestSiteIndices:
    """A site is an int or a numpy integer: no float is truncated to one
    and no bool counts as 0 or 1."""

    def test_negativity_refuses_a_fractional_site(self):
        with pytest.raises(IndexOutOfRange):
            negativity(ghz(3), 1.7)

    def test_partial_trace_refuses_a_fractional_site(self):
        with pytest.raises(IndexOutOfRange):
            partial_trace(ghz(3), [0.9])

    def test_schmidt_weights_refuses_a_bool(self):
        with pytest.raises(IndexOutOfRange):
            schmidt_weights(ghz(3), [True])

    @pytest.mark.parametrize("sites", [1.0, True, np.float64(1.0), [0, 1.0], "1", None])
    def test_anything_but_integers_refused(self, sites):
        with pytest.raises(IndexOutOfRange):
            sites_tuple(sites, 3)

    @pytest.mark.parametrize("sites,want", [
        (1, (1,)), (np.int64(2), (2,)), ([2, np.int32(0)], (0, 2)), (range(3), (0, 1, 2)),
        (np.array([1, 0]), (0, 1)),
    ])
    def test_integers_accepted(self, sites, want):
        assert sites_tuple(sites, 3) == want


def test_density_factor_refuses_a_non_state():
    with pytest.raises(IncompatibleInput):
        density_factor(None, 1)
