import ast
import csv
import ctypes
import dataclasses
import hashlib
import json
import sys
import time
from collections import Counter
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
    Partition,
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

from qent import qstate, verify
from qent.cli import main
from qent.measures import FACTORED_RANK_RATIO, MeasureReport, NegativityProfile, transposed_profile
from qent.qstate import density_factor
from test_integers import SOURCES, _name

# sha256 of run_suite(SuiteConfig.default(7)).to_csv(), the bytes of
# `qent verify --default --seed 7 --csv`, per OpenBLAS core: the cores
# round some values differently (each measured with OPENBLAS_CORETYPE)
SEED7_CSV_SHA256 = {
    "SkylakeX": "d5ec73c7888df3806d2d84b2b1362175649367f4bad52aec3f79b0962506b5eb",
    "Haswell": "310d9a6cb3f1aa70f686ebf1009cc205cf5a00396939c194e7385bc484f93310",
    "Sandybridge": "c439b7f17b65704e3f20a68f328d35db206c2b1a82bcd7873aeef3ad965411bb",
    "Nehalem": "7c4a987af5e587d3cfe5b6aed441cc60e36c5f588a59875268ed8fa81168d7e8",
}


def _seed7_sha256() -> str:
    """The pinned seed-7 sha of the OpenBLAS core this process runs on,
    read from numpy's bundled OpenBLAS; fails when the core cannot be
    read or has no pin."""
    libs = sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("libscipy_openblas64_*.so"))
    try:
        corename = ctypes.CDLL(str(libs[0])).scipy_openblas_get_corename64_
        corename.argtypes, corename.restype = [], ctypes.c_char_p
        core = corename().decode()
    except (IndexError, OSError, AttributeError) as exc:
        pytest.fail(f"cannot read the OpenBLAS core of numpy's bundled library: {exc!r}")
    if core not in SEED7_CSV_SHA256:
        pytest.fail(f"no seed-7 sha pinned for OpenBLAS core {core!r}")
    return SEED7_CSV_SHA256[core]

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

    @pytest.mark.parametrize("text", [None, 3], ids=["None", "int"])
    def test_from_json_refuses_what_is_not_text(self, text):
        with pytest.raises(ConfigError, match="invalid JSON"):
            SuiteConfig.from_json(text)

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

    @pytest.mark.parametrize("cuts", [[[1, 2, 3]], [1]])
    def test_r9_cuts_must_be_pairs(self, cuts):
        with pytest.raises(ConfigError, match="pairs"):
            SuiteConfig(relations={"R9": {"cuts": cuts}})

    @pytest.mark.parametrize("relations", [
        {"R1": {"sizes": [2]}, "R3": {"sizes": [2]}, "R8": {"sizes": [3]}},
        {"R2": {"sizes": [2, 3], "ranks": [1, 4]}},
        {"R2": {"sizes": [3], "ranks": [8]}},
        {"R2": {"sizes": [], "ranks": [256]}},
    ])
    def test_smallest_sizes_and_largest_ranks_accepted(self, relations):
        assert set(SuiteConfig(relations=relations).relations) == set(relations)

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

    def test_cases_stream(self):
        """The first case comes before the others are built: this config
        has 100,001 cases, which took seconds to build all at once."""
        config = SuiteConfig(relations={"R2": {"sizes": [2] * 10, "ranks": [2] * 10,
                                               "samples": 1000}})
        start = time.perf_counter()
        rel = RelationId.R2
        payload, desc = next(verify._relation_cases(rel, config.relations[rel], config.seed))
        assert time.perf_counter() - start < 0.2
        assert (rel, desc) == (RelationId.R2, "ghz_noise ensemble n=3 t=0.6")

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


    def test_default_suite_report_bytes(self):
        csv_text = run_suite(SuiteConfig.default(7)).to_csv()
        assert hashlib.sha256(csv_text.encode()).hexdigest() == _seed7_sha256()


class TestSuiteGroups:
    def test_grouped_rows_equal_single_case_checks(self):
        """run_suite gives checkers up to SUITE_GROUP_CASES cases at once;
        its rows equal those of check() on each case alone, relabelled
        with the suite's descriptors.  R1's 197 cases cross group
        boundaries, and its sizes are out of order."""
        config = SuiteConfig(seed=3, relations={
            "R1": {"sizes": [2, 5, 3], "samples": 65},
            "R2": {"sizes": [2, 3], "ranks": [1, 4], "samples": 2},
            "R3": {"sizes": [2, 3], "t_points": 2, "random_t": 1},
            "R4": {"samples": 3},
            "R5": {"samples": 3},
            "R6": {"samples": 3},
            "R7": {"families": [2, 6], "random_points": 1,
                   "grids": {"6": [[0.5, [0.0, 1.0]]], "2": [[0.3], [0.8, 1.1], [0.2]]}},
            "R8": {"sizes": [3, 7], "samples": 4},
            "R9": {"samples": 2},
        })
        suite_cases = [
            (rel, payload, desc, config.relations[rel]["tolerance"], None)
            for rel in map(RelationId, sorted(config.relations))
            for payload, desc in verify._relation_cases(rel, config.relations[rel], config.seed)
        ]
        assert sum(1 for case in suite_cases if case[0] == "R1") > 2 * 64
        alone = []
        for rel, payload, desc, tol, _ in suite_cases:
            prefix = verify._admit(rel, payload)[1]
            for row in check(rel, payload, tol):
                label = row.state_descriptor[len(prefix):]
                alone.append(dataclasses.replace(row, state_descriptor=desc + label))
        alone.sort(key=lambda r: (r.relation.value, r.state_descriptor))
        assert run_suite(config).results == tuple(alone)


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
    """Values are validated where they enter.  What qent builds out of
    values it has checked comes from qstate._trusted and is not validated
    again, and only _trusted makes an object without running its checks."""

    @pytest.fixture
    def validations(self, monkeypatch):
        """The objects of each class whose checks ran, by class name."""
        classes = (PureState, DensityMatrix, Partition, MeasureReport, NegativityProfile)
        calls = {cls.__name__: [] for cls in classes}
        for cls in classes:
            monkeypatch.setattr(cls, "__post_init__", lambda obj, check=cls.__post_init__: (
                calls[type(obj).__name__].append(obj) or check(obj)))
        PureState([1, 0], 1)
        DensityMatrix(np.eye(2) / 2, 1)
        Partition(((0,),))
        MeasureReport("C_2-ME", 0.0, None)
        NegativityProfile((0.0,))
        assert [len(c) for c in calls.values()] == [1] * 5  # the counters are live
        for c in calls.values():
            c.clear()
        return calls

    def test_default_suite_validates_nothing_it_built(self, validations):
        run_suite(SuiteConfig.default(seed=7))
        assert validations == {"PureState": [], "DensityMatrix": [], "Partition": [],
                               "MeasureReport": [], "NegativityProfile": []}

    def test_default_suite_checks_no_row_it_built(self, monkeypatch):
        checked = []
        for cls in (verify.RelationCheckResult, verify.SuiteReport):
            monkeypatch.setattr(cls, "__post_init__", lambda obj: checked.append(obj))
        verify.SuiteReport(())
        assert len(checked) == 1  # the counter is live
        checked.clear()
        assert len(run_suite(SuiteConfig.default(seed=7)).results) == 2679
        assert checked == []

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
        assert not any(validations.values())

    def test_what_it_builds_passes_the_full_checks(self, monkeypatch, tmp_path, capsys):
        """With _trusted patched to run each built object's own checks too,
        the default suite at seed 7 and `qent measure` on a family and on a
        random file give the same output, and every object passes."""
        family = ["measure", "--family", "6", "--a", "1+0.5j",
                  "--measures", "kme,negativity,invariants4,one-tangle"]
        random_file = ["measure", "--state", str(tmp_path / "psi.json"),
                       "--measures", "kme,negativity,nme-bound,invariants4"]

        def outputs():
            csv_text = run_suite(SuiteConfig.default(seed=7)).to_csv()
            assert main(["random", "--sites", "4", "--seed", "3", "--out", random_file[2]]) == 0
            assert main(family) == 0 and main(random_file) == 0
            return csv_text, capsys.readouterr().out

        want = outputs()
        trusted, built = qstate._trusted, Counter()

        def checked(cls, *values, **memo):
            obj = trusted(cls, *values, **memo)
            obj.__post_init__()
            built[cls.__name__] += 1
            return obj

        for module in [m for name, m in sys.modules.items() if name.startswith("qent.")]:
            if getattr(module, "_trusted", None) is trusted:
                monkeypatch.setattr(module, "_trusted", checked)
        got = outputs()
        assert hashlib.sha256(got[0].encode()).hexdigest() == _seed7_sha256()
        assert got == want
        assert set(built) == {"PureState", "DensityMatrix", "Partition", "Invariants3",
                              "Invariants4", "MeasureReport", "NegativityProfile",
                              "RelationCheckResult", "SuiteReport"}

    def test_only_the_builder_skips_init(self):
        """No module in src/qent calls __new__ but qstate._trusted."""
        outside = []
        for path in sorted(SOURCES.glob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            builder = [fn for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef)
                       and (path.name, fn.name) == ("qstate.py", "_trusted")]
            inside = {id(node) for fn in builder for node in ast.walk(fn)}
            outside += [
                f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                if isinstance(node, ast.Call) and _name(node.func) == "__new__"
                and id(node) not in inside
            ]
        assert outside == []
        assert callable(qstate._trusted) and not hasattr(qstate, "_trusted_density")


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
        ("R8", (np.array([1, 2]), 3), IncompatibleInput),
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

    NINE_QUBITS = make_pure(np.ones(2**9), 9)

    @pytest.mark.parametrize("relation,payload", [
        ("R1", NINE_QUBITS),
        ("R2", Ensemble((1.0,), (NINE_QUBITS,))),
        ("R9", (NINE_QUBITS, (0,))),
    ], ids=["R1-state", "R2-ensemble", "R9-state"])
    def test_state_over_the_site_cap(self, relation, payload):
        """Refused at once: R1 on a 10-qubit state would run for seconds,
        and R9 would build a 4^n-entry projector."""
        start = time.perf_counter()
        with pytest.raises(OutOfRange):
            check(relation, payload)
        assert time.perf_counter() - start < 0.1

    def test_payloads_at_the_site_cap_still_run(self):
        assert len(check("R3", (8, 0.5))) == 9
        assert len(check("R8", ("w_kme", 8))) == 7
        assert len(check("R1", random_pure(8, 1))) == 1
        assert len(check("R2", random_ensemble(8, 2, 1))) == 1
        assert len(check("R9", (verify._random_rank2(4, 4, 1), (0, 1, 2, 3)))) == 1


# calls that check a payload's kind, shape or numbers: _admit's work alone
PAYLOAD_CHECKS = {"_pure", "_integer", "_complex_array", "_num_sites", "isinstance"}


def _payload_checks(source: str) -> dict[str, list[int]]:
    """Each _check_r* function of `source`, with the lines on which it calls
    one of PAYLOAD_CHECKS."""
    found = {}
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.FunctionDef) and node.name.startswith("_check_r"):
            found[node.name] = [
                sub.lineno for sub in ast.walk(node)
                if isinstance(sub, ast.Call) and _name(sub.func) in PAYLOAD_CHECKS
            ]
    return found


def test_checkers_only_compute():
    """Payload rules live in verify._admit; no checker repeats them."""
    found = _payload_checks(Path(verify.__file__).read_text(encoding="utf-8"))
    assert sorted(found) == [f"_check_r{i}" for i in range(1, 10)]
    assert not any(found.values()), found


@pytest.mark.parametrize("snippet,lines", [
    ("def _check_r1(p, tol, t):\n    return _pure(p)", [2]),
    ("def _check_r2(p, tol, t):\n    if isinstance(p, tuple):\n        return p", [2]),
    ("def _check_r8(p, tol, t):\n    return errors._complex_array(p, 'c', E)", [2]),
    ("def _check_r9(p, tol, t):\n    return [_integer(s, 's') for s in p]", [2]),
    ("def _check_r3(p, tol, t):\n    def inner(n):\n        return _num_sites('n', n)", [3]),
    ("def _check_r3(p, tol, t):\n    n, t = p\n    return n", []),
])
def test_payload_check_finder(snippet, lines):
    assert list(_payload_checks(snippet).values()) == [lines]
    assert _payload_checks(snippet.replace("_check_r", "_admit_")) == {}


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
        with pytest.raises(ConfigError):
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
