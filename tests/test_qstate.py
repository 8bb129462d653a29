import ast
import json
from pathlib import Path

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
from qent import IncompatibleInput, negativity, qstate
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

    @pytest.mark.parametrize("seed", range(6))
    def test_text_and_entries_follow_the_per_entry_formula(self, seed):
        """state_to_json writes json.dumps of [[float(re), float(im)], ...]
        and state_from_json reads complex(re, im) of each pair, bit for bit,
        signed zeros included."""
        rng = np.random.default_rng(seed)
        n = 1 + seed % 3
        v = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
        v[1:][rng.random(2**n - 1) < 0.3] = 0
        v.imag[-1] = 0
        w = rng.normal(size=(2**n, 2)) + 1j * rng.normal(size=(2**n, 2)) * (seed % 2)
        w[1:][rng.random(2**n - 1) < 0.3] = 0
        m = w @ w.conj().T
        m[np.diag_indices(2**n)] = m.diagonal().real
        states = [PureState(_signed_zeros(v / np.linalg.norm(v)), n),
                  DensityMatrix(_signed_zeros(m / np.trace(m).real), n)]
        for state, kind, key in zip(states, ("pure", "density"), ("amplitudes", "matrix")):
            values = state.amplitudes if kind == "pure" else state.entries
            assert np.signbit(values.imag[values.imag == 0]).any()
            pairs = [[float(a.real), float(a.imag)] for a in values.ravel()]
            if kind == "density":
                pairs = [pairs[i:i + 2**n] for i in range(0, 4**n, 2**n)]
            text = json.dumps({"kind": kind, "num_sites": n, key: pairs})
            assert state_to_json(state) == text
            read = state_from_json(text)
            got = read.amplitudes if kind == "pure" else read.entries
            want = np.array([complex(re, im) for re, im in np.reshape(pairs, (-1, 2)).tolist()])
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("entries", [
        [[1e308, 0], [1e308, 0]],
        [[[0, 0], [1e308, 0]], [[-1e308, 0], [1, 0]]],
        [[[1.7e308, 0], [0, 0]], [[0, 0], [1.7e308, 0]]],
        [[[1e308 * (-1) ** (i // 2) if i == j else 0, 0] for j in range(4)] for i in range(4)],
    ], ids=["norm", "hermiticity", "trace", "trace-nan"])
    def test_entries_past_the_float_range_are_refused_without_a_warning(self, entries):
        """Squares, differences and sums of such entries overflow; the
        state is refused with InputError and numpy warns of nothing."""
        kind, key = ("pure", "amplitudes") if np.ndim(entries) == 2 else ("density", "matrix")
        n = int(np.log2(len(entries)))
        with pytest.raises(InputError):
            state_from_json(json.dumps({"kind": kind, "num_sites": n, key: entries}))


def _signed_zeros(a: np.ndarray) -> np.ndarray:
    """a with its zero real and imaginary parts signed -0.0, 0.0, -0.0, ...
    in turn."""
    a = a.copy()
    for part in (a.real, a.imag):
        zero = part == 0
        part[zero] = np.where(np.arange(zero.sum()) % 2, 0.0, -0.0)
    return a


def _entry_walks(source: str) -> list[tuple[str, int]]:
    """(what, line) of each name bool and each call of complex that runs
    per entry in source, inside a loop, a comprehension or a function that
    calls itself, and of each "true" or "false" string constant."""
    tree = ast.parse(source)
    loops = (ast.For, ast.While, ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
    scopes = [node for node in ast.walk(tree) if isinstance(node, loops)]
    scopes += [func for func in ast.walk(tree) if isinstance(func, ast.FunctionDef)
               and func.name in {call.func.id for call in ast.walk(func)
                                 if isinstance(call, ast.Call) and isinstance(call.func, ast.Name)}]
    found = {(node.value, node.lineno) for node in ast.walk(tree)
             if isinstance(node, ast.Constant) and node.value in ("true", "false")}
    for node in (sub for scope in scopes for sub in ast.walk(scope)):
        if isinstance(node, ast.Name) and node.id == "bool":
            found.add(("bool", node.lineno))
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "complex":
            found.add(("complex", node.lineno))
    return sorted(found)


def test_state_file_entries_pass_one_check():
    """qstate checks the entries of a state file only through
    errors._complex_array: it walks no entry for a bool, scans no text for
    true or false and calls complex() on no entry."""
    source = Path(qstate.__file__).read_text(encoding="utf-8")
    assert _entry_walks(source) == []
    door = next(node for node in ast.walk(ast.parse(source))
                if isinstance(node, ast.FunctionDef) and node.name == "state_from_json")
    assert "_complex_array" in {node.func.id for node in ast.walk(door)
                                if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)}


@pytest.mark.parametrize("snippet,found", [
    ("def walk(v):\n    if isinstance(v, list):\n        return any(walk(x) for x in v)\n"
     "    return isinstance(v, bool)", [("bool", 4)]),
    ("for row in rows:\n    ok = isinstance(row, bool)", [("bool", 2)]),
    ("m = [[complex(re, im) for re, im in row] for row in rows]", [("complex", 1)]),
    ("if 'true' in text or 'false' in text:\n    pass", [("false", 1), ("true", 1)]),
    ("ok = isinstance(n, bool) or complex(n)", []),
])
def test_entry_walk_finder(snippet, found):
    assert _entry_walks(snippet) == found


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
