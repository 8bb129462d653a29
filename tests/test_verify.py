import csv
import json
from pathlib import Path

import numpy as np
import pytest

from qent import (
    ConfigError,
    DensityMatrix,
    Ensemble,
    FamilyParams,
    IncompatibleInput,
    OutOfRange,
    PureState,
    RelationId,
    SuiteConfig,
    check,
    ghz,
    ghz_noise,
    make_pure,
    negativity_profile,
    purity,
    random_ensemble,
    random_local_unitary,
    random_mixed,
    random_pure,
    run_suite,
    slocc_family,
)

from qent import verify
from qent.measures import FACTORED_RANK_RATIO, transposed_profile
from qent.qstate import density_factor

REFERENCE_CSV = (
    Path(__file__).resolve().parents[1] / "benchmarks" / "reference" / "suite_seed7.csv"
)


class TestRandomSources:
    def test_random_pure_deterministic(self):
        a = random_pure(3, 42)
        b = random_pure(3, 42)
        assert np.array_equal(a.amplitudes, b.amplitudes)
        assert not np.allclose(a.amplitudes, random_pure(3, 43).amplitudes)

    def test_random_mixed_valid(self):
        rho = random_mixed(3, 2, 1)
        assert np.trace(rho.entries).real == pytest.approx(1.0)
        assert np.min(np.linalg.eigvalsh(rho.entries)) >= -1e-12

    def test_ensemble_weights(self):
        ens = random_ensemble(3, 4, 5)
        assert sum(ens.weights) == pytest.approx(1.0)
        assert all(p >= 0 for p in ens.weights)
        assert purity(ens.density()) < 1.0

    def test_range_checks(self):
        with pytest.raises(OutOfRange):
            random_pure(9, 1)
        with pytest.raises(OutOfRange):
            random_ensemble(3, 9, 1)

    @pytest.mark.parametrize("seed", [-1, True, 1.0, None])
    def test_seed_must_be_a_non_negative_integer(self, seed):
        for make in (lambda: random_pure(3, seed), lambda: random_ensemble(3, 2, seed),
                     lambda: random_local_unitary(seed)):
            with pytest.raises(OutOfRange):
                make()

    def test_local_unitary_is_unitary(self):
        u = random_local_unitary(7)
        assert np.allclose(u @ u.conj().T, np.eye(2), atol=1e-12)


class TestCheckDispatch:
    def test_r3_example(self):
        rows = check(RelationId.R3, (3, 0.6), 1e-9)
        assert rows[0].lhs == pytest.approx(0.5)
        assert all(r.verdict == "pass" for r in rows)
        assert len(rows) == 4  # exact value + 3 per-site negativities

    def test_r1_random_four_qubit(self):
        rows = check("R1", random_pure(4, 7), 1e-9)
        assert len(rows) == 1 and rows[0].verdict == "pass"

    def test_r7_family9(self):
        rows = check("R7", FamilyParams(9), 1e-9)
        byname = {r.state_descriptor.split(" | ")[1]: r for r in rows}
        minrow = byname["C2 = min N"]
        assert minrow.lhs == pytest.approx(0.0, abs=1e-9)
        assert minrow.rhs == pytest.approx(0.0, abs=1e-9)
        assert minrow.verdict == "pass"
        assert minrow.condition_note == "unconditional"

    def test_r7_condition_false_is_skip(self):
        rows = check("R7", FamilyParams(4, a=1.0, b=1.0))
        minrow = [r for r in rows if "C2 = min N" in r.state_descriptor][0]
        assert minrow.verdict == "skip"
        assert "condition violated" in minrow.condition_note
        others = [r for r in rows if "C2 = min N" not in r.state_descriptor]
        assert all(r.verdict == "pass" for r in others)

    def test_r2_inequality(self):
        rows = check("R2", random_ensemble(3, 2, 11))
        assert rows[0].verdict == "inequality-satisfied"

    def test_r4_r5_r6_pass(self):
        assert all(r.verdict == "pass" for r in check("R4", random_pure(3, 3)))
        assert all(r.verdict == "pass" for r in check("R5", random_pure(3, 4)))
        assert all(r.verdict == "pass" for r in check("R6", random_pure(4, 5)))

    def test_r8_payloads(self):
        rows = check("R8", ("w_kme", 4))
        assert len(rows) == 3 and all(r.verdict == "pass" for r in rows)
        coeffs = np.array([0.6, 0.8j, 0.0])
        rows = check("R8", ("w_two_tangle", coeffs))
        assert len(rows) == 3 and all(r.verdict == "pass" for r in rows)

    def test_r9_bell(self):
        bell = make_pure([1, 0, 0, 1], 2)
        rows = check("R9", (bell, (0,)))
        assert rows[0].lhs == pytest.approx(1.0)
        assert rows[0].verdict == "pass"

    def test_r9_rejects_high_rank(self):
        with pytest.raises(IncompatibleInput):
            check("R9", (random_pure(4, 1), (0, 1)))

    def test_incompatible_payloads(self):
        with pytest.raises(IncompatibleInput):
            check("R1", "not a state")
        with pytest.raises(IncompatibleInput):
            check("R4", ghz(4))
        with pytest.raises(IncompatibleInput):
            check("R7", ghz(4))
        with pytest.raises(IncompatibleInput):
            check("R8", ("bogus", 3))

    def test_tolerance_override_reports_failures(self):
        rows = check("R1", random_pure(4, 7), 1e-18)
        assert rows[0].verdict in ("pass", "fail")  # reported, not raised


class TestSuiteConfig:
    def test_default_has_all_relations(self):
        config = SuiteConfig.default()
        assert set(config.relations) == {f"R{i}" for i in range(1, 10)}

    def test_relations_list_form(self):
        config = SuiteConfig(seed=3, relations=["R3", "R9"])
        assert set(config.relations) == {"R3", "R9"}

    def test_from_json_roundtrip(self):
        text = json.dumps({"seed": 11, "relations": {"R3": {"sizes": [2, 3]}}})
        config = SuiteConfig.from_json(text)
        assert config.seed == 11
        assert config.relations["R3"]["sizes"] == [2, 3]
        assert config.relations["R3"]["t_points"] == 21  # default preserved

    def test_config_errors(self):
        with pytest.raises(ConfigError):
            SuiteConfig.from_json("{bad json")
        with pytest.raises(ConfigError):
            SuiteConfig.from_json('{"relations": {"R99": {}}}')
        with pytest.raises(ConfigError):
            SuiteConfig.from_json('{"relations": {"R1": {"bogus_key": 1}}}')
        with pytest.raises(ConfigError):
            SuiteConfig.from_json('{"seed": "seven"}')
        with pytest.raises(ConfigError):
            SuiteConfig.from_json('{"unknown_top": 1}')

    @pytest.mark.parametrize("seed", [-1, True, 7.0])
    def test_seed_must_be_a_non_negative_integer(self, seed):
        with pytest.raises(ConfigError):
            SuiteConfig(seed=seed)

    def test_configs_share_no_lists(self):
        SuiteConfig.default().relations["R1"]["sizes"].append(6)
        assert SuiteConfig.default().relations["R1"]["sizes"] == [2, 3, 4, 5]
        grids = {"6": [[0.5]]}
        spec = {"families": [6], "grids": grids}
        config = SuiteConfig(relations={"R7": spec})
        config.relations["R7"]["families"].append(5)
        config.relations["R7"]["grids"]["6"][0].append(1.0)
        assert spec == {"families": [6], "grids": {"6": [[0.5]]}}
        assert SuiteConfig(relations={"R7": spec}).relations["R7"]["families"] == [6]

    @pytest.mark.parametrize("relations", [
        {"R7": {"families": [10]}},
        {"R7": {"families": [6], "grids": {"6": [[["a", 0]]]}}},
        {"R7": {"families": [6], "grids": {"6": [[[None, 0]]]}}},
        {"R7": {"families": [6], "grids": {"6": [[10**400]]}}},
        {"R1": {"tolerance": 10**400}},
    ])
    def test_bad_config_refused_when_built(self, relations):
        with pytest.raises(ConfigError):
            SuiteConfig(relations=relations)

    def test_json_integer_over_digit_limit(self):
        with pytest.raises(ConfigError):
            SuiteConfig.from_json('{"seed": %s}' % ("1" * 5000))


class TestRunSuite:
    def test_small_suite_passes(self):
        config = SuiteConfig(
            seed=7,
            relations={
                "R1": {"sizes": [2, 3], "samples": 4},
                "R3": {"sizes": [2, 3], "t_points": 5, "random_t": 2},
                "R9": {"samples": 4, "cuts": [[1, 1], [1, 2]]},
            },
        )
        report = run_suite(config)
        assert report.exit_code == 0
        assert not report.failures
        counts = report.counts()
        assert set(counts) == {"R1", "R3", "R9"}

    def test_determinism_byte_identical(self):
        config = SuiteConfig(seed=9, relations={"R4": {"samples": 6}, "R8": {"samples": 2}})
        a = run_suite(config)
        b = run_suite(config)
        assert a.to_csv() == b.to_csv()
        assert a.to_text() == b.to_text()

    def test_absurd_tolerance_reports_failures(self):
        config = SuiteConfig(
            seed=7, relations={"R5": {"samples": 4, "tolerance": 1e-17}}
        )
        report = run_suite(config)
        assert report.exit_code == 1
        assert report.failures
        text = report.to_text()
        assert "failures:" in text

    def test_tangle_tolerance_overrides_tolerance(self):
        config = SuiteConfig(
            seed=7,
            relations={
                "R5": {"samples": 4, "tolerance": 1e-17, "tangle_tolerance": 1e-6},
                "R8": {"samples": 4, "tolerance": 1e-17, "tangle_tolerance": 1e-6},
            },
        )
        rows = run_suite(config).results
        is_tangle = [
            "tau_" in r.state_descriptor
            or "via tangles" in r.state_descriptor
            or "pair (" in r.state_descriptor
            for r in rows
        ]
        tangle = [r for r, t in zip(rows, is_tangle) if t]
        other = [r for r, t in zip(rows, is_tangle) if not t]
        # R5: 6 states x 4 tangle rows; R8: pairs of W n=3 and of random n=3..6
        assert len(tangle) == 6 * 4 + 3 + (3 + 6 + 10 + 15)
        assert all(r.tolerance == 1e-6 and r.verdict == "pass" for r in tangle)
        assert other and all(r.tolerance == 1e-17 for r in other)

    def test_report_sorted(self):
        config = SuiteConfig(seed=2, relations={"R1": {"sizes": [2], "samples": 3}})
        report = run_suite(config)
        keys = [(r.relation.value, r.state_descriptor) for r in report.results]
        assert keys == sorted(keys)

    def test_r7_skip_notes_present(self):
        config = SuiteConfig(seed=7, relations={"R7": {"families": [4], "random_points": 0}})
        report = run_suite(config)
        skips = [r for r in report.results if r.verdict == "skip"]
        assert skips
        assert all("condition violated" in r.condition_note for r in skips)
        assert report.exit_code == 0  # skips are not failures

    def test_r7_custom_grid(self):
        config = SuiteConfig(
            seed=7,
            relations={
                "R7": {
                    "families": [6],
                    "random_points": 0,
                    "grids": {"6": [[0.5, [0.0, 1.0], 2.0]]},
                }
            },
        )
        report = run_suite(config)
        # 3 parameter points x 8 sub-checks per point
        assert len(report.results) == 24
        assert report.exit_code == 0

    def test_r7_grid_validation(self):
        bad_shapes = [
            {"6": "nope"},
            {"6": []},
            {"6": [[]]},
            {"6": [[1.0], [1.0]]},  # family 6 has one parameter
            {"6": [[{"re": 1}]]},
        ]
        for grids in bad_shapes:
            with pytest.raises(ConfigError):
                SuiteConfig(
                    seed=7,
                    relations={"R7": {"families": [6], "random_points": 0, "grids": grids}},
                )


class TestBehaviourReference:
    def test_default_suite_matches_committed_reference(self):
        """The default seed-7 suite reproduces the committed reference rows:
        descriptors and verdicts exactly, lhs/rhs within 1e-12."""
        with REFERENCE_CSV.open(newline="", encoding="utf-8") as fh:
            expected = list(csv.DictReader(fh))
        got = run_suite(SuiteConfig.default(7)).results
        assert len(got) == len(expected)
        for row, ref in zip(got, expected):
            assert (row.relation.value, row.state_descriptor, row.verdict) == (
                ref["relation"],
                ref["state_descriptor"],
                ref["verdict"],
            )
            assert abs(row.lhs - float(ref["lhs"])) <= 1e-12, row.state_descriptor
            assert abs(row.rhs - float(ref["rhs"])) <= 1e-12, row.state_descriptor


class TestEnsembleType:
    def test_weight_validation(self):
        bell = make_pure([1, 0, 0, 1], 2)
        with pytest.raises(ValueError):
            Ensemble((0.5, 0.4), (bell, bell))
        with pytest.raises(ValueError):
            Ensemble((), ())

    def test_ghz_noise_ensemble_matches_density(self):
        n, t = 3, 0.6
        basis = np.eye(8, dtype=complex)
        states = [ghz(3)] + [PureState(basis[z], 3) for z in range(8)]
        weights = [t] + [(1 - t) / 8] * 8
        ens = Ensemble(tuple(weights), tuple(states))
        from qent import ghz_noise

        assert np.allclose(ens.density().entries, ghz_noise(n, t).entries)

    def test_weights_and_states_at_tolerance(self):
        """Weights summing to 1 + 9e-10 over states of norm 1 + 9e-10: R2
        runs, within 1e-8 of the normalized ensemble."""
        exact = random_ensemble(3, 2, 5)
        edge = Ensemble(
            (exact.weights[0] + 9e-10, exact.weights[1]),
            tuple(PureState(psi.amplitudes * (1.0 + 9e-10), 3) for psi in exact.states),
        )
        assert abs(sum(edge.weights) - (1.0 + 9e-10)) <= 1e-15
        (want,), (got,) = check("R2", exact), check("R2", edge)
        assert got.verdict == want.verdict
        assert abs(got.lhs - want.lhs) <= 1e-8 and abs(got.rhs - want.rhs) <= 1e-8


class TestTrustBoundary:
    """States are validated where they enter; the density matrices qent
    builds from states it holds are not validated again."""

    @pytest.fixture
    def validations(self, monkeypatch):
        calls = []
        validate = DensityMatrix.__post_init__
        monkeypatch.setattr(
            DensityMatrix, "__post_init__", lambda rho: calls.append(rho) or validate(rho)
        )
        DensityMatrix(np.eye(2, dtype=complex) / 2, 1)  # the counter is live
        assert len(calls) == 1
        calls.clear()
        return calls

    def test_default_suite_validates_no_density_matrix(self, validations):
        run_suite(SuiteConfig.default(seed=7))
        assert validations == []

    @pytest.mark.parametrize("build,factored", [
        (lambda: random_mixed(6, 3, 17), True),  # rank 3: spectrum computed on first use
        (lambda: ghz_noise(4, 0.6), False),  # full rank: transposing fallback
    ], ids=["random_mixed", "ghz_noise"])
    def test_profile_of_trusted_density(self, validations, build, factored):
        rho = build()
        w = density_factor(rho, (2**rho.num_sites - 1) // FACTORED_RANK_RATIO)
        assert (w is not None) == factored
        got = negativity_profile(rho).per_site
        want = transposed_profile(rho).per_site
        assert np.max(np.abs(np.subtract(got, want))) <= 1e-12
        assert validations == []


class TestCheckRefusesWithQentError:
    @pytest.mark.parametrize("relation,payload,error", [
        ("R10", random_pure(2, 1), IncompatibleInput),
        (["R1"], random_pure(2, 1), IncompatibleInput),
        ("R3", ("x", 0.5), IncompatibleInput),
        ("R3", (3, "a"), IncompatibleInput),
        ("R3", (3,), IncompatibleInput),
        ("R3", (20, 0.5), OutOfRange),
        ("R3", (10**300, 0.5), OutOfRange),
        ("R8", ("w_kme", "a"), IncompatibleInput),
        ("R8", ("w_kme", 40), OutOfRange),
        ("R8", ("w_two_tangle", np.ones(40)), OutOfRange),
        ("R8", ("w_two_tangle", "abc"), IncompatibleInput),
        ("R9", (make_pure([1, 0, 0, 1], 2), 0), IncompatibleInput),
        ("R9", (make_pure([1, 0, 0, 1], 2), ("a",)), IncompatibleInput),
    ])
    def test_bad_payload(self, monkeypatch, relation, payload, error):
        """Refused with a QentError, and before any state is built."""
        def built(*args):
            raise AssertionError("a state was built for a refused payload")

        for name in ("ghz_noise", "w", "w_class", "schmidt_weights"):
            monkeypatch.setattr(verify, name, built)
        with pytest.raises(error) as info:
            check(relation, payload)
        assert len(str(info.value)) < 100

    @pytest.mark.parametrize("tol", ["1e-3", 1e-3j, [1e-3]])
    def test_tol_that_is_not_a_number(self, tol):
        with pytest.raises(IncompatibleInput):
            check("R1", random_pure(2, 1), tol)

    def test_payloads_at_the_site_cap_still_run(self):
        assert len(check("R3", (8, 0.5))) == 9
        assert len(check("R8", ("w_kme", 8))) == 7


class TestSuiteCountCaps:
    @pytest.mark.parametrize("relation,key", [
        ("R1", "samples"), ("R3", "t_points"), ("R3", "random_t"), ("R7", "random_points"),
    ])
    def test_count_above_cap_refused(self, relation, key):
        assert SuiteConfig(relations={relation: {key: verify.SUITE_MAX_COUNT}})
        for value in (verify.SUITE_MAX_COUNT + 1, 10**40):
            with pytest.raises(ConfigError) as info:
                SuiteConfig(relations={relation: {key: value}})
            assert len(str(info.value)) < 100

    def test_grid_points_counted_before_the_product(self, monkeypatch):
        def point(*args):
            raise AssertionError("a grid point was formed")

        monkeypatch.setattr(verify, "FamilyParams", point)
        axis = [0.1 * i for i in range(300)]
        with pytest.raises(ConfigError, match="grid has 8100000000 points"):
            SuiteConfig(relations={"R7": {"families": [1], "grids": {"1": [axis] * 4}}})

    def test_grid_at_the_cap_is_built(self):
        axis = [0.1 * i for i in range(1, 11)]
        config = SuiteConfig(relations={"R7": {"families": [1], "grids": {"1": [axis] * 4}}})
        assert config.relations["R7"]["grids"]["1"] == [axis] * 4

    @pytest.mark.parametrize("grid", [[[float("nan")]], [[float("inf")]], [[[0.5, float("nan")]]]])
    def test_non_finite_grid_value_refused_when_built(self, grid):
        with pytest.raises(OutOfRange):
            SuiteConfig(relations={"R7": {"families": [6], "grids": {"6": grid}}})

    @pytest.mark.parametrize("relations", [
        {"R7": {"families": [6], "grids": {"6": [[10**400]]}}},
        {"R1": {"tolerance": 10**400}},
        {"R1": {"sizes": [10**400]}},
    ])
    def test_huge_values_echoed_short(self, relations):
        with pytest.raises(ConfigError) as info:
            SuiteConfig(relations=relations)
        assert len(str(info.value)) < 120
