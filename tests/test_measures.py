from functools import reduce
from itertools import combinations

import numpy as np
import pytest
from oracles import (
    k_partitions_brute,
    kme_brute,
    kme_scan,
    negativity_trace_norm,
    random_state_vector,
    wootters_brute,
)

from qent import (
    DensityMatrix,
    DimensionMismatch,
    FAMILY_LABELS,
    FamilyParams,
    OutOfRange,
    Partition,
    PureState,
    apply_local_unitary,
    default_parameter_grid,
    density_of,
    ghz,
    ghz_noise,
    ghz_noise_negativity,
    kme_concurrence_pure,
    linear_entropy_pure,
    make_pure,
    negativity,
    negativity_profile,
    nme_lower_bound,
    one_tangle,
    random_local_unitary,
    reduced_density_pure,
    slocc_family,
    three_tangle,
    three_tangle_raw,
    two_tangle,
    w,
    wootters_concurrence,
)
from qent import IncompatibleInput, IndexOutOfRange, kme_concurrence_stack, measures, random_pure
from qent.measures import (CUT_AMPLITUDES, FACTORED_RANK_RATIO, GRAM_FLOOR, _cut_entropy_tables,
                           transposed_profile)
from qent.qstate import clamped_sqrt, density_factor

BELL = make_pure([1, 0, 0, 1], 2)
PSI9 = slocc_family(FamilyParams(9))
PSI8 = slocc_family(FamilyParams(8))


class TestNegativity:
    def test_family9_profile(self):
        prof = negativity_profile(density_of(PSI9))
        assert np.allclose(prof.per_site, (0.0, 1.0, 1.0, 1.0), atol=1e-9)

    def test_bell(self):
        assert negativity(density_of(BELL), 0) == pytest.approx(1.0, abs=1e-12)

    def test_product(self):
        rho = density_of(make_pure([1, 0, 0, 0], 2))
        assert negativity(rho, 0) == 0.0

    def test_two_routes_agree(self, rng):
        for n in (2, 3, 4):
            psi = PureState(random_state_vector(n, rng), n)
            rho = density_of(psi)
            for p in range(n):
                assert abs(
                    negativity(rho, p) - negativity_trace_norm(rho.entries, p, n)
                ) <= 1e-9


def _random_mixture(rng, n: int, rank: int) -> DensityMatrix:
    vecs = rng.normal(size=(2**n, rank)) + 1j * rng.normal(size=(2**n, rank))
    vecs /= np.linalg.norm(vecs, axis=0)
    m = (vecs * rng.dirichlet(np.ones(rank))) @ vecs.conj().T
    return DensityMatrix((m + m.conj().T) / 2, n)


def _product_with_free_site(rng, n: int) -> np.ndarray:
    """A random qubit, at a random site, times a random state of the rest."""
    site, rest = random_state_vector(1, rng), random_state_vector(n - 1, rng)
    t = np.multiply.outer(site, rest.reshape((2,) * (n - 1)))
    return np.moveaxis(t, 0, int(rng.integers(n))).reshape(-1)


class TestFactoredNegativity:
    """negativity_profile and nme_lower_bound (factored route, transposing
    when 8 * rank >= 2^n) against the transposing negativity()."""

    @staticmethod
    def assert_routes_agree(state, rho, tol=1e-12):
        transposed = [negativity(rho, p) for p in range(rho.num_sites)]
        factored = negativity_profile(state).per_site
        assert np.max(np.abs(np.subtract(factored, transposed))) <= tol
        assert abs(nme_lower_bound(state) - np.sqrt(np.mean(np.square(transposed)))) <= tol

    def test_random_mixtures_of_every_rank(self, rng):
        for n in range(1, 7):
            for rank in range(1, 2**n + 1):
                rho = _random_mixture(rng, n, rank)
                self.assert_routes_agree(rho, rho)
                factored = FACTORED_RANK_RATIO * rank < 2**n
                w = density_factor(rho, (2**n - 1) // FACTORED_RANK_RATIO)
                assert w.shape == (2**n, rank) if factored else w is None

    def test_pure_states_and_their_projectors(self, rng):
        states = [ghz(n) for n in (2, 3, 5)] + [w(n) for n in (3, 4, 6)]
        states += [PureState(random_state_vector(n, rng), n) for n in range(1, 7)]
        for psi in states:
            rho = density_of(psi)
            self.assert_routes_agree(rho, rho)
            self.assert_routes_agree(psi, rho)

    def test_ghz_noise(self):
        for n in (2, 3, 4, 5):
            for t in (0.0, 0.2, 0.5, 0.9, 1.0):
                rho = ghz_noise(n, t)
                self.assert_routes_agree(rho, rho)
                per_site = negativity_profile(rho).per_site
                assert np.max(np.abs(np.subtract(per_site, ghz_noise_negativity(n, t)))) <= 1e-12

    def test_mixtures_with_unentangled_sites(self, rng):
        # [W0 W1] is rank deficient here; a square root of its Gram in
        # place of the QR factor splits zero eigenvalues by ~1e-8
        for n in (5, 6, 7):
            for _ in range(2):
                vecs = [ghz(n).amplitudes, w(n).amplitudes]
                vecs += [_product_with_free_site(rng, n) for _ in range(3)]
                v = np.array(vecs).T
                m = (v * rng.dirichlet(np.ones(len(vecs)))) @ v.conj().T
                rho = DensityMatrix((m + m.conj().T) / 2, n)
                self.assert_routes_agree(rho, rho)

    @pytest.mark.parametrize("small", [[1.0e-16, 8 * np.finfo(float).eps, -1.0e-16],
                                       [-0.99e-9, -0.5e-9, 2.0e-15]])
    def test_dropped_eigenvalues_within_stated_bound(self, rng, small):
        """Eigenvalues at the factor's floor or at validation's -1e-9 PSD
        slack are dropped; each value moves by at most 3 * sum |dropped|."""
        n, dim = 6, 64
        q = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))[0]
        big = rng.dirichlet(np.ones(3)) * (1.0 - sum(small))
        spectrum = np.concatenate([big, small, np.zeros(dim - 3 - len(small))])
        rho = DensityMatrix((q * spectrum) @ q.conj().T, n)
        ev = np.linalg.eigvalsh(rho.entries)
        factored = negativity_profile(rho).per_site
        w = density_factor(rho, (dim - 1) // FACTORED_RANK_RATIO)
        dropped = ev[: dim - w.shape[1]]  # None on the fallback route
        bound = 3.0 * np.abs(dropped).sum() + 1e-12
        for p in range(n):
            assert abs(factored[p] - negativity(rho, p)) <= bound

    def test_profile_memoized_and_projector_factor_used(self, rng, monkeypatch):
        calls = []
        eigh = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda a: calls.append(a.shape) or eigh(a))
        rho = _random_mixture(rng, 5, 3)
        prof = negativity_profile(rho)
        nme_lower_bound(rho)
        assert calls == [(32, 32)] and negativity_profile(rho) is prof
        psi = PureState(random_state_vector(5, rng), 5)
        rho = density_of(psi)
        assert np.array_equal(density_factor(rho, 1)[:, 0], psi.amplitudes)
        nme_lower_bound(rho)
        negativity_profile(_random_mixture(rng, 5, 4))  # 8r >= 2^n: never factored
        assert calls == [(32, 32)]


class TestBipartiteConcurrence:
    """Pure-state concurrence sqrt(2 * (1 - Tr rho_A^2)) across one cut."""

    def test_ghz3(self):
        assert clamped_sqrt(2 * linear_entropy_pure(ghz(3), (0,))) == pytest.approx(1.0)

    def test_product(self):
        assert clamped_sqrt(2 * linear_entropy_pure(make_pure([1, 0, 0, 0], 2), (0,))) == 0.0

    def test_w3(self):
        c = clamped_sqrt(2 * linear_entropy_pure(w(3), (0,)))
        assert c == pytest.approx(2 * np.sqrt(2) / 3)

    @pytest.mark.parametrize("n", [1, 3])
    def test_full_side_refused(self, n):
        """A side of every site is no cut: it has no complement."""
        with pytest.raises(IndexOutOfRange, match="proper subset"):
            linear_entropy_pure(random_pure(n, 5), range(n))


class TestKmeConcurrence:
    def test_family9_values(self):
        assert kme_concurrence_pure(PSI9, 2).value == pytest.approx(0.0, abs=1e-9)
        assert kme_concurrence_pure(PSI9, 3).value == pytest.approx(np.sqrt(2 / 3))

    def test_family8_k4(self):
        assert kme_concurrence_pure(PSI8, 4).value == pytest.approx(np.sqrt(15) / 4)

    def test_ghz3_k3(self):
        assert kme_concurrence_pure(ghz(3), 3).value == pytest.approx(1.0)

    def test_matches_brute_force(self, rng):
        for n in (3, 4):
            psi = PureState(random_state_vector(n, rng), n)
            for k in range(2, n + 1):
                got = kme_concurrence_pure(psi, k).value
                assert got == pytest.approx(kme_brute(psi.amplitudes, n, k), abs=1e-10)

    def test_report_invariants(self):
        rep = kme_concurrence_pure(PSI9, 2)
        assert rep.measure_name == "C_2-ME"
        assert (rep.value, rep.optimal_partition.blocks) == kme_scan(PSI9, 2)
        assert rep.optimal_partition == Partition(((0,), (1, 2, 3)))

    def test_tie_break_deterministic(self):
        reports = [kme_concurrence_pure(ghz(3), 2) for _ in range(3)]
        assert len({r.optimal_partition.blocks for r in reports}) == 1
        # all three bipartitions of GHZ tie exactly; the smallest canonical wins
        assert reports[0].optimal_partition == Partition(((0,), (1, 2)))

    def test_out_of_range(self):
        with pytest.raises(OutOfRange):
            kme_concurrence_pure(BELL, 3)
        with pytest.raises(OutOfRange):
            kme_concurrence_pure(BELL, 1)

    def test_site_cap(self):
        product = np.zeros(2**15, dtype=complex)
        product[0] = 1.0
        with pytest.raises(OutOfRange, match="cap"):
            kme_concurrence_pure(PureState(product, 15), 2)


def _dicke(n: int, e: int) -> PureState:
    """Equal superposition of the n-qubit basis states with e ones."""
    amps = np.zeros(2**n)
    for ones in combinations(range(n), e):
        amps[sum(1 << (n - 1 - s) for s in ones)] = 1.0
    return make_pure(amps, n)


def _bell_pairs(pairs) -> PureState:
    """Product of Bell pairs, one on each given pair of sites."""
    n = 2 * len(pairs)
    amps = np.ones(1)
    for _ in pairs:
        amps = np.kron(amps, BELL.amplitudes)
    # site a of the result is site 2i of the product, site b is 2i + 1
    perm = [0] * n
    for i, (a, b) in enumerate(pairs):
        perm[a], perm[b] = 2 * i, 2 * i + 1
    return PureState(amps.reshape((2,) * n).transpose(perm).reshape(-1), n)


def _structured_states():
    for n in range(3, 7):
        yield f"GHZ{n}", ghz(n)
        yield f"W{n}", w(n)
    for family in sorted(FAMILY_LABELS):
        for i, params in enumerate(default_parameter_grid(family)):
            yield f"family {family} #{i}", slocc_family(params)
    # many partitions tie on these, so the fold order decides the argmin
    for n in range(4, 8):
        for e in range(n // 2 + 1):
            yield f"Dicke n={n} e={e}", _dicke(n, e)
    yield "Bell pairs 02|13", _bell_pairs([(0, 2), (1, 3)])
    yield "Bell pairs 03|15|24", _bell_pairs([(0, 3), (1, 5), (2, 4)])


class TestKmeMatchesScan:
    """Value and argmin equal (==) to the exhaustive scan, ties included."""

    def test_structured_states(self):
        for label, psi in _structured_states():
            for k in range(2, psi.num_sites + 1):
                rep = kme_concurrence_pure(psi, k)
                assert (rep.value, rep.optimal_partition.blocks) == kme_scan(psi, k), (
                    label,
                    k,
                )

    def test_random_states_any_k_order(self, rng):
        # descending k grows the state's cut-entropy table one block size at a time
        for n in (5, 6):
            for _ in range(2):
                psi = PureState(random_state_vector(n, rng), n)
                for k in range(n, 1, -1):
                    rep = kme_concurrence_pure(psi, k)
                    assert (rep.value, rep.optimal_partition.blocks) == kme_scan(psi, k)


def _stack_states(rng):
    """GHZ, W and Dicke states, family grid points and random states of
    n = 2..8, in no order of size."""
    states = [ghz(n) for n in range(3, 7)] + [w(n) for n in range(3, 7)]
    states += [_dicke(n, e) for n in (4, 6, 7) for e in range(n // 2 + 1)]
    for family in sorted(FAMILY_LABELS):
        states += [slocc_family(p) for p in default_parameter_grid(family)[:2]]
    states += [PureState(random_state_vector(n, rng), n) for n in range(2, 9) for _ in range(2)]
    order = rng.permutation(len(states))
    return [PureState(states[i].amplitudes, states[i].num_sites) for i in order]


def _alone(psi, k):
    """(value, blocks) of psi on a fresh copy of it, with a cold table."""
    rep = kme_concurrence_pure(PureState(psi.amplitudes, psi.num_sites), k)
    return rep.value, rep.optimal_partition.blocks


def _stacked(states, k):
    return [(r.value, r.optimal_partition.blocks) for r in kme_concurrence_stack(states, k)]


class TestKmeStack:
    """A stack gives, bit for bit (==), each state's value and partition alone."""

    @pytest.mark.parametrize("ks", [range(2, 9), range(8, 1, -1)], ids=["ascending", "descending"])
    def test_mixed_sizes_any_k_order(self, rng, ks):
        # ascending k fills every table at once; descending grows them one size at a time
        states = _stack_states(rng)
        for k in ks:
            stack = [psi for psi in states if psi.num_sites >= k]
            assert _stacked(stack, k) == [_alone(psi, k) for psi in stack], k

    def test_partly_warm_tables(self, rng):
        states = _stack_states(rng)
        for psi in states[::2]:
            kme_concurrence_pure(psi, psi.num_sites)  # one-site blocks only
        for psi in states[1::3]:
            kme_concurrence_pure(psi, 2)  # every block
        for k in (3, 2):
            stack = [psi for psi in states if psi.num_sites >= k] + states[:3]
            assert _stacked(stack, k) == [_alone(psi, k) for psi in stack], k
        assert _stacked(states, 2) == [_alone(psi, 2) for psi in states]  # all warm

    def test_one_gram_product_per_block_size(self, monkeypatch):
        calls = _kernel_calls(monkeypatch)
        kme_concurrence_stack([random_pure(3, seed) for seed in range(40)], 2)
        assert calls["gram"] == [(3, 40, 2, 4)]  # one-site blocks fill their two-site complements
        calls["gram"].clear()
        kme_concurrence_stack([random_pure(4, seed) for seed in range(40)], 2)
        assert calls["gram"] == [(4, 40, 2, 8), (3, 40, 4, 4)]  # two-site blocks holding site 0
        calls["gram"].clear()
        kme_concurrence_stack([random_pure(8, seed) for seed in range(64)], 2)
        # each Gram matrix stands for one cut's 2^8 amplitudes
        assert max(int(np.prod(shape[:-2])) for shape in calls["gram"]) * 2**8 <= CUT_AMPLITUDES
        assert calls["eigvalsh"] == []

    def test_refusals(self):
        psi = random_pure(3, 1)
        assert kme_concurrence_stack([], 2) == ()
        with pytest.raises(OutOfRange):
            kme_concurrence_stack([psi, BELL], 3)
        with pytest.raises(IncompatibleInput):
            kme_concurrence_stack([psi, density_of(psi)], 2)
        with pytest.raises(IncompatibleInput):
            kme_concurrence_stack(psi, 2)


def _table_states(rng, n):
    """A random, a GHZ, a W and a Dicke state of n qubits, each with a cold table."""
    states = [PureState(random_state_vector(n, rng), n), ghz(n), w(n), _dicke(n, n // 2)]
    return [PureState(psi.amplitudes, n) for psi in states]


def _kernel_calls(monkeypatch) -> dict[str, list[tuple[int, ...]]]:
    """Record the shape of each stack measures._cut_entropies gets (it
    forms one stacked Gram product) and of each eigvalsh and svd call."""
    calls = {"gram": [], "eigvalsh": [], "svd": []}
    for owner, name, key in ((measures, "_cut_entropies", "gram"),
                             (np.linalg, "eigvalsh", "eigvalsh"), (np.linalg, "svd", "svd")):
        def spy(a, *args, _kernel=getattr(owner, name), _key=key, **kwargs):
            calls[_key].append(np.shape(a))
            return _kernel(a, *args, **kwargs)
        monkeypatch.setattr(owner, name, spy)
    return calls


class TestCutEntropyTables:
    """One Gram value per unordered cut fills a block and its
    complement; every entry equals linear_entropy_pure of its block bit
    for bit (==)."""

    @pytest.mark.parametrize("n", range(2, 9))
    @pytest.mark.parametrize("order", ["descending", "two first", "n then two"])
    def test_entries_equal_linear_entropy_pure(self, rng, n, order):
        ks = {"descending": range(n, 1, -1), "two first": [2, *range(n, 2, -1)],
              "n then two": [n, 2]}[order]
        states = _table_states(rng, n)
        blocks = [tuple(s for s in range(n) if mask >> s & 1) for mask in range(1 << n)]
        # blocks of exactly n / 2 sites and their complements are among these
        want = [[linear_entropy_pure(psi, b) if 0 < len(b) < n else np.inf for b in blocks]
                for psi in states]
        for k in ks:
            tables = _cut_entropy_tables(states, n - k + 1)
            for table, values in zip(tables, want):
                for block, got, value in zip(blocks, table, values):
                    assert got == value or (got == np.inf and len(block) > n - k + 1), (k, block)
        # k = 2 needs every block of 1 .. n - 1 sites
        assert np.isfinite(tables[:, 1:-1]).all() and (tables[:, [0, -1]] == np.inf).all()

    def test_no_gram_of_more_than_half_the_sites(self, rng, monkeypatch):
        calls = _kernel_calls(monkeypatch)
        kme_concurrence_pure(PureState(random_state_vector(10, rng), 10), 10)
        assert {shape[-2] for shape in calls["gram"]} == {2}  # one-site blocks only
        for n in (5, 6, 7):
            calls["gram"].clear()
            kme_concurrence_pure(PureState(random_state_vector(n, rng), n), 2)
            assert max(rows for *_, rows, _ in calls["gram"]) == 2 ** (n // 2)
        assert calls["eigvalsh"] == []

    def test_only_cuts_below_the_floor_reach_the_svd(self, rng, monkeypatch):
        calls = _kernel_calls(monkeypatch)
        kme_concurrence_pure(PureState(random_state_vector(8, rng), 8), 2)
        assert calls["gram"] and calls["svd"] == []
        calls["gram"].clear()
        product = make_pure(reduce(np.kron, [random_state_vector(1, rng) for _ in range(8)]), 8)
        kme_concurrence_pure(product, 2)
        # the 2^7 - 1 unordered cuts of 8 sites, every one of them product
        cuts = [sum(int(np.prod(shape[:-2])) for shape in calls[k]) for k in ("gram", "svd")]
        assert cuts == [2**7 - 1] * 2


# how far a k-ME value may move from the SVD route's, from GRAM_FLOOR's derivation
GRAM_KME_BOUND = 1e-12


def _svd_entropy(psi, block) -> float:
    """2 sum_{i<j} lam_i lam_j over the squared singular values of the
    amplitudes with the block's sites as rows, summed pair by pair."""
    n = psi.num_sites
    rest = [s for s in range(n) if s not in block]
    m = psi.tensor().transpose(list(block) + rest).reshape(2 ** len(block), -1)
    lam = np.linalg.svd(m, compute_uv=False) ** 2
    return 2.0 * sum(lam[i] * lam[j] for i, j in combinations(range(len(lam)), 2))


def _kme_svd_oracle(psi, partitions) -> dict[int, float]:
    """For each k, the least sqrt(2/k * sum of _svd_entropy) over every
    k-partition of partitions[k]."""
    n = psi.num_sites
    entropy = {b: _svd_entropy(psi, b) for size in range(1, n)
               for b in combinations(range(n), size)}
    return {k: min(np.sqrt(2.0 / k * sum(entropy[tuple(b)] for b in part)) for part in parts)
            for k, parts in partitions.items()}


def _near_product(rng, n) -> PureState:
    """product + eps * perturbation, normalized, with eps log-uniform in
    [1e-12, 0.3]: the sites fall into random groups, each a random
    state, so cuts of every size are near product."""
    labels = rng.integers(0, rng.integers(2, n + 1), size=n)
    order = np.argsort(labels, kind="stable")
    sizes = [int(np.sum(labels == g)) for g in np.unique(labels)]
    product = reduce(np.kron, [random_state_vector(c, rng) for c in sizes])
    product = product.reshape((2,) * n).transpose(np.argsort(order)).ravel()
    v = product + 10 ** rng.uniform(-12, np.log10(0.3)) * random_state_vector(n, rng)
    return PureState(v / np.linalg.norm(v), n)


class TestGramRoute:
    """Cut entropies come from the Gram matrix's trace and Frobenius
    norm, and from the SVD below GRAM_FLOOR, so k-ME stays within GRAM_KME_BOUND of the SVD
    route and small and zero cuts keep their SVD values."""

    def test_floor_meets_its_derivation(self):
        # the Gram route's rounding bound for Gram matrices of d <= 2^7 rows:
        # 2 d u from G's rounding plus 80 u from its trace and Frobenius sums
        delta = (2 * 2**7 + 80) * 2.0**-53
        assert GRAM_FLOOR >= delta**2 / (2 * GRAM_KME_BOUND**2) + delta

    def test_near_product_sweep_matches_the_svd_route(self):
        rng = np.random.default_rng(2025)
        partitions = {n: {k: k_partitions_brute(n, k) for k in range(2, n + 1)} for n in range(2, 7)}
        worst = 0.0
        for _ in range(600):
            psi = _near_product(rng, int(rng.integers(2, 7)))
            for k, want in _kme_svd_oracle(psi, partitions[psi.num_sites]).items():
                worst = max(worst, abs(kme_concurrence_pure(psi, k).value - want))
        assert worst <= GRAM_KME_BOUND

    @pytest.mark.parametrize("n", range(3, 9))
    def test_product_cuts_are_exactly_zero(self, n):
        one_ghz = make_pure(np.kron([0, 1], ghz(n - 1).amplitudes), n)
        w_zero = make_pure(np.kron(w(n - 1).amplitudes, [1, 0]), n)
        basis = make_pure(np.eye(2**n)[5], n)
        assert linear_entropy_pure(one_ghz, 0) == linear_entropy_pure(w_zero, n - 1) == 0.0
        assert kme_concurrence_pure(one_ghz, 2).value == kme_concurrence_pure(w_zero, 2).value == 0.0
        assert {kme_concurrence_pure(basis, k).value for k in range(2, n + 1)} == {0.0}

    def test_random_product_states_stay_near_zero(self, rng):
        # the Gram route alone reads ~1e-16 here, which sqrt turns into ~1e-8
        for n in range(2, 9):
            psi = make_pure(reduce(np.kron, [random_state_vector(1, rng) for _ in range(n)]), n)
            assert max(kme_concurrence_pure(psi, k).value for k in range(2, n + 1)) <= 1e-14

    @pytest.mark.parametrize("n", range(2, 11))
    def test_ghz_cuts_are_one_half(self, n):
        tables = _cut_entropy_tables([ghz(n)], n - 1)[0]
        assert np.abs(tables[1:-1] - 0.5).max() <= 1e-15


class TestNmeLowerBound:
    def test_pure_states_saturate(self, rng):
        for n in (2, 3, 4, 5):
            psi = PureState(random_state_vector(n, rng), n)
            direct = kme_concurrence_pure(psi, n).value
            assert abs(nme_lower_bound(density_of(psi)) - direct) <= 1e-9

    def test_ghz_noise_t1(self):
        assert nme_lower_bound(ghz_noise(3, 1.0)) == pytest.approx(1.0)

    def test_separable_diagonal(self):
        rho = DensityMatrix(np.diag([0.4, 0.3, 0.2, 0.1]).astype(complex), 2)
        assert nme_lower_bound(rho) == 0.0

    def test_ensemble_average_dominates(self, rng):
        # mixing can only lower the bound below the average pure-state value
        from qent import random_ensemble

        for n in (2, 3):
            for rank in (2, 3):
                ens = random_ensemble(n, rank, int(rng.integers(1 << 30)))
                avg = sum(
                    p * kme_concurrence_pure(s, n).value
                    for p, s in zip(ens.weights, ens.states)
                )
                assert avg >= nme_lower_bound(ens.density()) - 1e-9


class TestOneTangle:
    def test_bell(self):
        assert one_tangle(BELL, 0) == pytest.approx(1.0)

    def test_product(self):
        assert one_tangle(make_pure([1, 0, 0, 0], 2), 0) == pytest.approx(0.0)

    def test_weighted(self):
        psi = make_pure([np.sqrt(0.8), 0, 0, np.sqrt(0.2)], 2)
        assert one_tangle(psi, 0) == pytest.approx(0.64)

    def test_equals_squared_concurrence(self, rng):
        for n in (2, 3, 4):
            psi = PureState(random_state_vector(n, rng), n)
            for p in range(n):
                c = clamped_sqrt(2 * linear_entropy_pure(psi, (p,)))
                assert abs(one_tangle(psi, p) - c * c) <= 1e-10


class TestWootters:
    def test_bell(self):
        assert wootters_concurrence(density_of(BELL)) == pytest.approx(1.0)

    def test_ghz3_pair_is_zero(self):
        red = DensityMatrix(reduced_density_pure(ghz(3), (0, 1)), 2)
        assert wootters_concurrence(red) == pytest.approx(0.0, abs=1e-12)

    def test_w3_pair(self):
        red = DensityMatrix(reduced_density_pure(w(3), (0, 1)), 2)
        assert wootters_concurrence(red) == pytest.approx(2 / 3)

    def test_against_nonhermitian_route(self, rng):
        for _ in range(25):
            m = rng.normal(size=(4, 6)) + 1j * rng.normal(size=(4, 6))
            raw = m @ m.conj().T
            rho = DensityMatrix(raw / np.trace(raw).real, 2)
            assert wootters_concurrence(rho) == pytest.approx(
                wootters_brute(rho.entries), abs=1e-7
            )

    def test_dimension_check(self):
        with pytest.raises(DimensionMismatch):
            wootters_concurrence(density_of(ghz(3)))


class TestTangles:
    def test_two_tangle_values(self):
        assert two_tangle(density_of(BELL)) == pytest.approx(1.0)
        ghz_pair = DensityMatrix(reduced_density_pure(ghz(3), (0, 1)), 2)
        assert two_tangle(ghz_pair) == pytest.approx(0.0, abs=1e-12)
        w_pair = DensityMatrix(reduced_density_pure(w(3), (0, 1)), 2)
        assert two_tangle(w_pair) == pytest.approx(4 / 9)

    def test_three_tangle_anchors(self):
        assert three_tangle(ghz(3)) == pytest.approx(1.0, abs=1e-8)
        assert three_tangle(w(3)) == pytest.approx(0.0, abs=1e-8)
        assert three_tangle(make_pure([1, 0, 0, 0, 0, 0, 0, 0], 3)) == pytest.approx(0.0)

    def test_three_tangle_pivot_invariance(self, rng):
        # permuting the sites changes the pivot; the residual tangle must not move
        for _ in range(20):
            v = random_state_vector(3, rng)
            psi = PureState(v, 3)
            t = np.reshape(v, (2, 2, 2))
            psi_b = PureState(np.transpose(t, (1, 0, 2)).reshape(-1), 3)
            psi_c = PureState(np.transpose(t, (2, 1, 0)).reshape(-1), 3)
            base = three_tangle(psi)
            assert abs(base - three_tangle(psi_b)) <= 1e-8
            assert abs(base - three_tangle(psi_c)) <= 1e-8

    def test_three_tangle_clamped_range(self, rng):
        for _ in range(30):
            psi = PureState(random_state_vector(3, rng), 3)
            val = three_tangle(psi)
            assert 0.0 <= val <= 1.0
            assert abs(val - max(0.0, min(1.0, three_tangle_raw(psi)))) == 0.0

    def test_dimension_check(self):
        with pytest.raises(DimensionMismatch):
            three_tangle(BELL)


class TestStateAtNormTolerance:
    """A pure state accepted at |norm - 1| = 9e-10 gets every measure,
    within 1e-8 of the normalized state's: the density matrices qent
    builds from it are not checked again."""

    @pytest.mark.parametrize("n", [2, 3])
    def test_measures_match_normalized(self, rng, n):
        v = random_state_vector(n, rng)

        def values(psi):
            rho = density_of(psi)
            out = [*negativity_profile(psi).per_site, *negativity_profile(rho).per_site,
                   *transposed_profile(rho).per_site, nme_lower_bound(psi)]
            if n == 2:
                return out + [two_tangle(rho), wootters_concurrence(rho)]
            return out + [three_tangle_raw(psi), three_tangle(psi)]

        exact, edge = values(PureState(v, n)), values(PureState(v * (1.0 + 9e-10), n))
        assert np.max(np.abs(np.subtract(edge, exact))) <= 1e-8


class TestThreeQubitRelations:
    def test_c2_min_negativity_and_c3_rms(self, rng):
        for _ in range(40):
            psi = PureState(random_state_vector(3, rng), 3)
            rho = density_of(psi)
            prof = [negativity(rho, p) for p in range(3)]
            assert abs(kme_concurrence_pure(psi, 2).value - min(prof)) <= 1e-9
            rms = np.sqrt(sum(v * v for v in prof) / 3)
            assert abs(kme_concurrence_pure(psi, 3).value - rms) <= 1e-9


class TestSchmidtRankTwo:
    def test_negativity_equals_concurrence(self, rng):
        for _ in range(30):
            lam = rng.uniform(0.05, 0.95)
            psi = make_pure([np.sqrt(lam), 0, 0, np.sqrt(1 - lam)], 2)
            psi = apply_local_unitary(psi, 0, random_local_unitary(int(rng.integers(1 << 30))))
            psi = apply_local_unitary(psi, 1, random_local_unitary(int(rng.integers(1 << 30))))
            n_val = negativity(density_of(psi), 0)
            c_val = clamped_sqrt(2 * linear_entropy_pure(psi, (0,)))
            assert abs(n_val - c_val) <= 1e-9


class TestLocalUnitaryInvariance:
    def test_all_measures_invariant(self, rng):
        psi = PureState(random_state_vector(3, rng), 3)
        base = {
            "c2": kme_concurrence_pure(psi, 2).value,
            "c3": kme_concurrence_pure(psi, 3).value,
            "neg0": negativity(density_of(psi), 0),
            "tau3": three_tangle(psi),
            "tau01": two_tangle(DensityMatrix(reduced_density_pure(psi, (0, 1)), 2)),
            "one0": one_tangle(psi, 0),
        }
        rotated = psi
        for site in range(3):
            rotated = apply_local_unitary(
                rotated, site, random_local_unitary(1000 + site)
            )
        after = {
            "c2": kme_concurrence_pure(rotated, 2).value,
            "c3": kme_concurrence_pure(rotated, 3).value,
            "neg0": negativity(density_of(rotated), 0),
            "tau3": three_tangle(rotated),
            "tau01": two_tangle(DensityMatrix(reduced_density_pure(rotated, (0, 1)), 2)),
            "one0": one_tangle(rotated, 0),
        }
        for key in base:
            assert abs(base[key] - after[key]) <= 1e-8, key

    def test_kme_invariant_on_ghz(self):
        base = kme_concurrence_pure(ghz(3), 3).value
        rotated = ghz(3)
        for site, seed in ((0, 11), (1, 12), (2, 13)):
            rotated = apply_local_unitary(rotated, site, random_local_unitary(seed))
        assert abs(kme_concurrence_pure(rotated, 3).value - base) <= 1e-9
