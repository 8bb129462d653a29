"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion
lines as they complete.
"""
import os
import subprocess
import sys
import time
from contextlib import contextmanager

import numpy as np
import pytest
from oracles import random_state_vector, stirling2

import qent
from qent import (
    DensityMatrix,
    FamilyParams,
    PureState,
    apply_local_unitary,
    default_parameter_grid,
    density_of,
    family_closed_forms,
    ghz,
    ghz_noise,
    ghz_noise_negativity,
    ghz_noise_nme_exact,
    ghz_noise_threshold,
    invariants3,
    k_partitions,
    kme_concurrence_pure,
    kme_from_invariants3,
    make_pure,
    negativity,
    nme_lower_bound,
    partial_transpose,
    partial_trace,
    purity,
    random_local_unitary,
    reduced_density_pure,
    slocc_family,
    tangles_from_invariants3,
    three_tangle,
    two_tangle,
    w,
    w_class,
    w_kme_closed_form,
    w_two_tangle,
)
from qent.qstate import partial_transpose_sites


@contextmanager
def criterion(num: int, label: str):
    try:
        yield
    except Exception:
        print(f"ACCEPTANCE {num} FAIL: {label}")
        raise
    print(f"ACCEPTANCE {num} PASS: {label}")


def test_criterion_1_fixed_point_table():
    with criterion(1, "fixed-point family table (tol 1e-9, < 1 s)"):
        t0 = time.perf_counter()
        table = {
            9: (0.0, np.sqrt(2 / 3), np.sqrt(3) / 2, (0.0, 1.0, 1.0, 1.0)),
            8: (np.sqrt(3) / 2, 1.0, np.sqrt(15) / 4, None),
            7: (
                np.sqrt(3) / 2,
                np.sqrt(5 / 6),
                np.sqrt(13) / 4,
                (np.sqrt(3) / 2, 1.0, np.sqrt(3) / 2, np.sqrt(3) / 2),
            ),
        }
        for fam, (c2, c3, c4, negs) in table.items():
            psi = slocc_family(FamilyParams(fam))
            assert abs(kme_concurrence_pure(psi, 2).value - c2) <= 1e-9
            assert abs(kme_concurrence_pure(psi, 3).value - c3) <= 1e-9
            assert abs(kme_concurrence_pure(psi, 4).value - c4) <= 1e-9
            if negs is not None:
                rho = density_of(psi)
                for p in range(4):
                    assert abs(negativity(rho, p) - negs[p]) <= 1e-9
        elapsed = time.perf_counter() - t0
        assert elapsed < 1.0, f"table took {elapsed:.2f}s"


def test_criterion_2_pure_identity():
    with criterion(2, "pure-state identity C_n-ME = rms negativity, 200 x n in 2..6 (< 30 s)"):
        t0 = time.perf_counter()
        rng = np.random.default_rng(1002)
        for n in range(2, 7):
            for _ in range(200):
                psi = PureState(random_state_vector(n, rng), n)
                rho = density_of(psi)
                rms = np.sqrt(sum(negativity(rho, p) ** 2 for p in range(n)) / n)
                direct = kme_concurrence_pure(psi, n).value
                assert abs(direct - rms) <= 1e-9
        elapsed = time.perf_counter() - t0
        assert elapsed < 30.0, f"identity sweep took {elapsed:.2f}s"


def test_criterion_3_ghz_noise():
    with criterion(3, "GHZ+noise exact value and negativities on the 21-point grids"):
        for n in range(2, 7):
            lo = ghz_noise_threshold(n)
            for t in np.linspace(lo, 1.0, 21):
                rho = ghz_noise(n, float(t))
                assert abs(ghz_noise_nme_exact(n, float(t)) - nme_lower_bound(rho)) <= 1e-9
                pred = ghz_noise_negativity(n, float(t))
                for p in range(n):
                    assert abs(negativity(rho, p) - pred) <= 1e-9


def test_criterion_4_three_qubit_relations():
    with criterion(4, "3-qubit negativity/invariant/tangle relations on 200 random states"):
        rng = np.random.default_rng(1004)
        for _ in range(200):
            psi = PureState(random_state_vector(3, rng), 3)
            rho = density_of(psi)
            prof = [negativity(rho, p) for p in range(3)]
            c2 = kme_concurrence_pure(psi, 2).value
            c3 = kme_concurrence_pure(psi, 3).value
            assert abs(c2 - min(prof)) <= 1e-9
            assert abs(c3 - np.sqrt(sum(v * v for v in prof) / 3)) <= 1e-9
            inv = invariants3(psi)
            c2i, c3i = kme_from_invariants3(inv)
            assert abs(c2i - c2) <= 1e-9
            assert abs(c3i - c3) <= 1e-9
            pred = tangles_from_invariants3(inv, three_tangle(psi))
            for pair, want in zip(((0, 1), (0, 2), (1, 2)), pred):
                got = two_tangle(DensityMatrix(reduced_density_pure(psi, pair), 2))
                assert abs(want - got) <= 1e-8


def test_criterion_5_three_tangle_anchors():
    with criterion(5, "three-tangle anchors tau(GHZ3)=1, tau(W3)=0"):
        assert abs(three_tangle(ghz(3)) - 1.0) <= 1e-8
        assert abs(three_tangle(w(3))) <= 1e-8


def test_criterion_6_family_grids():
    with criterion(6, "family closed-form grids and conditional C2 = min N (< 2 min)"):
        t0 = time.perf_counter()
        for fam in range(1, 10):
            grid = default_parameter_grid(fam)
            if fam <= 6:
                assert len(grid) >= 20
            for params in grid:
                psi = slocc_family(params)
                pred = family_closed_forms(params)
                rho = density_of(psi)
                direct_neg = [negativity(rho, p) for p in range(4)]
                for k, closed in ((2, pred.c2), (3, pred.c3), (4, pred.c4)):
                    assert abs(closed - kme_concurrence_pure(psi, k).value) <= 1e-8, (
                        params.describe(),
                        k,
                    )
                for p in range(4):
                    assert abs(pred.negativities[p] - direct_neg[p]) <= 1e-8
                c2 = kme_concurrence_pure(psi, 2).value
                if fam in (6, 7, 8, 9):
                    assert pred.c2_min_negativity == "holds"
                    assert abs(c2 - min(direct_neg)) <= 1e-8
                elif pred.c2_min_negativity == "conditional":
                    assert abs(c2 - min(direct_neg)) <= 1e-8
                else:
                    # condition violated: equality not required; record if it holds
                    assert pred.condition_margin < 0
        elapsed = time.perf_counter() - t0
        assert elapsed < 120.0, f"family grids took {elapsed:.2f}s"


def test_criterion_7_w_state():
    with criterion(7, "W-state k-ME closed form (n=3..7) and pair-tangle product form"):
        for n in range(3, 8):
            psi = w(n)
            for k in range(2, n + 1):
                direct = kme_concurrence_pure(psi, k).value
                assert abs(w_kme_closed_form(n, k) - direct) <= 1e-9
        rng = np.random.default_rng(1007)
        for n in (3, 4, 5, 6):
            for _ in range(5):
                coeffs = rng.normal(size=n) + 1j * rng.normal(size=n)
                coeffs /= np.linalg.norm(coeffs)
                psi = w_class(coeffs)
                for i in range(1, n + 1):
                    for j in range(i + 1, n + 1):
                        red = DensityMatrix(reduced_density_pure(psi, (i - 1, j - 1)), 2)
                        assert abs(w_two_tangle(coeffs, i, j) - two_tangle(red)) <= 1e-8


def test_criterion_8_property_suites():
    with criterion(8, "LU invariance, involution, complement symmetry, partition counts"):
        rng = np.random.default_rng(1008)
        # local-unitary invariance of every measure at 1e-8
        for n in (3, 4):
            psi = PureState(random_state_vector(n, rng), n)
            rotated = psi
            for site in range(n):
                rotated = apply_local_unitary(
                    rotated, site, random_local_unitary(int(rng.integers(1 << 30)))
                )
            for k in range(2, n + 1):
                assert (
                    abs(
                        kme_concurrence_pure(psi, k).value
                        - kme_concurrence_pure(rotated, k).value
                    )
                    <= 1e-8
                )
            ra, rb = density_of(psi), density_of(rotated)
            for p in range(n):
                assert abs(negativity(ra, p) - negativity(rb, p)) <= 1e-8
            if n == 3:
                assert abs(three_tangle(psi) - three_tangle(rotated)) <= 1e-8
        # partial-transpose involution
        for n in (2, 3, 4):
            rho = density_of(PureState(random_state_vector(n, rng), n))
            for site in range(n):
                pt = partial_transpose(rho, site)
                assert np.array_equal(
                    partial_transpose_sites(pt, (site,), n), rho.entries
                )
        # purity complement symmetry at 1e-10
        for n in (3, 4, 5):
            psi = PureState(random_state_vector(n, rng), n)
            rho = density_of(psi)
            for cut in range(1, n):
                pa = purity(partial_trace(rho, tuple(range(cut))))
                pb = purity(partial_trace(rho, tuple(range(cut, n))))
                assert abs(pa - pb) <= 1e-10
        # partition counts against the Stirling recurrence for n <= 8
        for n in range(1, 9):
            for k in range(1, n + 1):
                assert len(k_partitions(n, k)) == stirling2(n, k)


def test_criterion_9_schmidt_rank2():
    with criterion(9, "100 random Schmidt-rank-2 cuts: |N - C| <= 1e-9"):
        rng = np.random.default_rng(1009)
        cuts = [(1, 1), (1, 2), (2, 2), (1, 3)]
        count = 0
        while count < 100:
            na, nb = cuts[count % len(cuts)]
            n = na + nb
            da, db = 2**na, 2**nb
            qa = np.linalg.qr(rng.normal(size=(da, 2)) + 1j * rng.normal(size=(da, 2)))[0]
            qb = np.linalg.qr(rng.normal(size=(db, 2)) + 1j * rng.normal(size=(db, 2)))[0]
            lam = rng.uniform(0.05, 0.95)
            v = np.sqrt(lam) * np.kron(qa[:, 0], qb[:, 0]) + np.sqrt(1 - lam) * np.kron(
                qa[:, 1], qb[:, 1]
            )
            psi = make_pure(v, n)
            side = tuple(range(na))
            rho = np.outer(psi.amplitudes, psi.amplitudes.conj())
            ev = np.linalg.eigvalsh(partial_transpose_sites(rho, side, n))
            n_val = float(np.abs(ev).sum() - 1.0)
            c_val = np.sqrt(
                max(0.0, 2 * (1 - purity(reduced_density_pure(psi, side))))
            )
            assert abs(n_val - c_val) <= 1e-9
            count += 1


def test_criterion_10_cli_determinism(tmp_path):
    # the CLI subprocess imports the same qent as this test, also from a checkout
    src = os.path.dirname(os.path.dirname(qent.__file__))
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    env = {**os.environ, "PYTHONPATH": path}
    with criterion(10, "verify --default --seed 7 twice: byte-identical CSV"):
        csvs = []
        for name in ("a.csv", "b.csv"):
            path = tmp_path / name
            proc = subprocess.run(
                [
                    sys.executable,
                    "-m",
                    "qent",
                    "verify",
                    "--default",
                    "--seed",
                    "7",
                    "--csv",
                    str(path),
                ],
                capture_output=True,
                text=True,
                env=env,
            )
            assert proc.returncode == 0, proc.stdout + proc.stderr
            assert "0 failures" in proc.stdout
            csvs.append(path.read_bytes())
        assert csvs[0] == csvs[1]
