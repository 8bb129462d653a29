import csv
import io
import json
import os
import resource
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from qent import (FamilyParams, PureState, linear_entropy_pure, load_state, make_pure,
                  slocc_family, state_to_json, w)
from qent import cli, qstate, verify
from qent.cli import main


SRC = str(Path(__file__).resolve().parents[1] / "src")


@pytest.fixture
def bell_file(tmp_path):
    path = tmp_path / "bell.json"
    path.write_text(state_to_json(make_pure([1, 0, 0, 1], 2)))
    return path


class TestMeasureCommand:
    def test_family8_kme_table(self, capsys):
        assert main(["measure", "--family", "8", "--k", "2,3,4"]) == 0
        out = capsys.readouterr().out
        assert f"C_2-ME = {np.sqrt(3) / 2:.12g}" in out
        assert "C_3-ME = 1" in out
        assert f"C_4-ME = {np.sqrt(15) / 4:.12g}" in out

    def test_bell_negativity(self, bell_file, capsys):
        assert main(["measure", "--state", str(bell_file), "--measures", "negativity"]) == 0
        out = capsys.readouterr().out
        assert "N^0 = 1" in out and "N^1 = 1" in out

    def test_family9_invariants4(self, capsys):
        assert main(["measure", "--family", "9", "--measures", "invariants4"]) == 0
        out = capsys.readouterr().out
        assert out.count("= 0.5") == 6
        assert "I4(4) = 1" in out

    def test_csv_full_precision(self, bell_file, tmp_path, capsys):
        csv_path = tmp_path / "out.csv"
        main(
            [
                "measure",
                "--state",
                str(bell_file),
                "--measures",
                "negativity",
                "--csv",
                str(csv_path),
            ]
        )
        capsys.readouterr()
        lines = csv_path.read_text().splitlines()
        assert lines[0].startswith("relation,state_descriptor,lhs")
        value = lines[1].split(",")[2]
        assert abs(float(value) - 1.0) < 1e-12
        assert len(value.replace("-", "").replace(".", "").lstrip("0")) >= 15 or float(
            value
        ) == 1.0

    def test_csv_rows_follow_printed_labels(self, bell_file, tmp_path, capsys):
        three, four = tmp_path / "w3.json", tmp_path / "w4.json"
        three.write_text(state_to_json(w(3)))
        four.write_text(state_to_json(w(4)))
        runs = [
            (bell_file, "kme,negativity,nme-bound,one-tangle,two-tangle,wootters",
             ["C_2-ME", "N^0", "N^1", "n-ME lower bound", "one-tangle site 0",
              "one-tangle site 1", "two-tangle", "wootters concurrence"],
             ["C_2-ME", "N^0", "N^1", "nme_lower_bound", "one_tangle_0",
              "one_tangle_1", "two_tangle", "wootters_concurrence"]),
            (three, "three-tangle,invariants3,kme",
             ["three-tangle", "I2"] + [f"I4({i})" for i in range(1, 5)] + ["C_2-ME", "C_3-ME"],
             ["three_tangle"] + [f"I4({i})" for i in range(1, 5)] + ["C_2-ME", "C_3-ME"]),
            (four, "invariants4", ["I2"] + [f"I4({i})" for i in range(1, 8)],
             [f"I4({i})" for i in range(1, 8)]),
        ]
        for path, measures, labels, names in runs:
            csv_path = tmp_path / "out.csv"
            args = ["measure", "--state", str(path), "--measures", measures]
            assert main(args + ["--csv", str(csv_path)]) == 0
            lines = capsys.readouterr().out.splitlines()
            assert lines[0].startswith(f"state: {path} (")
            assert [line.split(" = ")[0] for line in lines[1:]] == labels
            rows = list(csv.reader(io.StringIO(csv_path.read_text())))
            assert rows[0][0] == "relation"
            assert [row[0] for row in rows[1:]] == names
            printed = {line.split(" = ")[0]: line for line in lines[1:]}
            for row in rows[1:]:
                assert row[1] == str(path) and row[3:7] == ["", "", "", "computed"]
                if row[0].startswith("C_"):
                    assert row[7].startswith("argmin ")
                    partition = row[7].removeprefix("argmin ")
                    assert printed[row[0]].endswith(f"   (argmin partition {partition})")
                else:
                    assert row[7] == ""

    def test_pure_n14_negativity_without_projector(self, tmp_path, capsys, monkeypatch):
        # the 4^14 projector would need 4.3 GB: fail at once if it is built
        def no_projector(psi):
            raise AssertionError("density_of called for negativity on pure input")

        monkeypatch.setattr(qstate, "density_of", no_projector)
        n = 14
        rng = np.random.default_rng(14)
        v = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
        psi = PureState(v / np.linalg.norm(v), n)
        state = tmp_path / "n14.json"
        state.write_text(state_to_json(psi))
        out = tmp_path / "n14.csv"
        argv = ["measure", "--state", str(state), "--measures", "negativity,nme-bound",
                "--csv", str(out)]
        assert main(argv) == 0
        capsys.readouterr()
        values = {row["relation"]: float(row["lhs"])
                  for row in csv.DictReader(io.StringIO(out.read_text()))}
        schmidt = [np.sqrt(2.0 * linear_entropy_pure(psi, p)) for p in range(n)]
        for p in range(n):
            assert abs(values[f"N^{p}"] - schmidt[p]) <= 1e-12
        assert abs(values["nme_lower_bound"] - np.sqrt(np.mean(np.square(schmidt)))) <= 1e-12

    def test_density_built_once_per_state(self, bell_file, capsys, monkeypatch):
        built = []
        density_of = qstate.density_of
        monkeypatch.setattr(qstate, "density_of", lambda psi: built.append(psi) or density_of(psi))
        argv = ["measure", "--state", str(bell_file),
                "--measures", "negativity,two-tangle,nme-bound,wootters"]
        assert main(argv) == 0
        assert "two-tangle = 1" in capsys.readouterr().out
        # one projector per measure that needs it: negativity (at n = 2 the
        # profile takes the transposing route), two-tangle and wootters;
        # nme-bound reuses the profile memoized on the state
        assert len(built) == 3

    def test_malformed_state_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["measure", "--state", str(bad), "--measures", "negativity"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_unnormalized_state_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "unnorm.json"
        bad.write_text(
            json.dumps(
                {"kind": "pure", "num_sites": 1, "amplitudes": [[1, 0], [1, 0]]}
            )
        )
        assert main(["measure", "--state", str(bad), "--measures", "negativity"]) == 2

    def test_nan_pure_state_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "nan.json"
        amps = [[float("nan"), 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0]]
        bad.write_text(json.dumps({"kind": "pure", "num_sites": 2, "amplitudes": amps}))
        assert main(["measure", "--state", str(bad)]) == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("kind", ["pure", "density"])
    @pytest.mark.parametrize("num_sites", [float("inf"), float("nan"), 1e300, 10**12])
    def test_unbounded_num_sites_exits_2(self, tmp_path, capsys, kind, num_sites):
        # 2**num_sites is never formed: it would not fit in memory, or never end
        payload = {"kind": kind, "num_sites": num_sites, "amplitudes": [[1, 0], [0, 0]],
                   "matrix": [[[1, 0], [0, 0]], [[0, 0], [0, 0]]]}
        bad = tmp_path / "big.json"
        bad.write_text(json.dumps(payload))
        start = time.perf_counter()
        assert main(["measure", "--state", str(bad), "--measures", "negativity"]) == 2
        assert time.perf_counter() - start < 1.0
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("num_sites,size,code", [
        (3.7, 8, 2), (True, 2, 2), (3, 8, 0), (3.0, 8, 0), ("3", 8, 0),
    ])
    def test_num_sites_must_be_integral(self, tmp_path, capsys, num_sites, size, code):
        amps = [[1, 0]] + [[0, 0]] * (size - 1)
        state = tmp_path / "state.json"
        state.write_text(json.dumps({"kind": "pure", "num_sites": num_sites, "amplitudes": amps}))
        assert main(["measure", "--state", str(state), "--measures", "negativity"]) == code
        assert ("error:" in capsys.readouterr().err) == (code == 2)

    @pytest.mark.parametrize("text", [
        '{"kind": "pure", "num_sites": 1e300, "amplitudes": [[1, 0], [0, 0]]}',
        '{"kind": "pure", "num_sites": 1, "amplitudes": [[%s, 0], [0, 0]]}' % ("1" * 400),
        '{"kind": "density", "num_sites": 1, "matrix": [[[%s, 0], [0, 0]], [[0, 0], [0, 0]]]}'
        % ("1" * 400),
        '{"kind": "pure", "num_sites": %s, "amplitudes": [[1, 0], [0, 0]]}' % ("1" * 5000),
    ])
    def test_huge_numbers_exit_2_with_short_error(self, tmp_path, capsys, text):
        state = tmp_path / "huge.json"
        state.write_text(text)
        assert main(["measure", "--state", str(state), "--measures", "negativity"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and len(err) < 200, err

    @pytest.mark.parametrize("measure", ["two-tangle", "wootters"])
    def test_two_qubit_measure_refused_before_projector(self, tmp_path, capsys, monkeypatch,
                                                        measure):
        def no_projector(psi):
            raise AssertionError("density_of called for a state of more than two qubits")

        monkeypatch.setattr(qstate, "density_of", no_projector)
        product = np.zeros(2**11, dtype=complex)
        product[0] = 1.0
        state = tmp_path / "n11.json"
        state.write_text(state_to_json(PureState(product, 11)))
        assert main(["measure", "--state", str(state), "--measures", measure]) == 2
        assert "need a two-qubit state, got 11 sites" in capsys.readouterr().err

    @pytest.mark.parametrize("n,measures", [
        (2, "kme,negativity,nme-bound,one-tangle,two-tangle,wootters"),
        (3, "kme,negativity,nme-bound,one-tangle,three-tangle,invariants3"),
    ])
    def test_state_at_norm_tolerance(self, tmp_path, capsys, n, measures):
        """A pure state accepted at |norm - 1| = 9e-10 gets every measure,
        within 1e-8 of the normalized state's."""
        rng = np.random.default_rng(n)
        v = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
        v /= np.linalg.norm(v)
        values = []
        for scale in (1.0, 1.0 + 9e-10):
            state, out = tmp_path / f"{scale}.json", tmp_path / f"{scale}.csv"
            state.write_text(state_to_json(PureState(v * scale, n)))
            argv = ["measure", "--state", str(state), "--measures", measures, "--csv", str(out)]
            assert main(argv) == 0, capsys.readouterr().err
            values.append({row["relation"]: float(row["lhs"])
                           for row in csv.DictReader(io.StringIO(out.read_text()))})
        capsys.readouterr()
        exact, edge = values
        assert edge.keys() == exact.keys()
        for key in exact:
            assert abs(edge[key] - exact[key]) <= 1e-8, key

    def test_kme_above_site_cap_exits_2(self, tmp_path, capsys):
        product = np.zeros(2**15, dtype=complex)
        product[0] = 1.0
        big = tmp_path / "n15.json"
        big.write_text(state_to_json(PureState(product, 15)))
        assert main(["measure", "--state", str(big), "--k", "2"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_infinite_density_exits_2(self, tmp_path, capsys):
        # Hermitian with unit trace, so only the finiteness check can reject it
        bad = tmp_path / "inf.json"
        inf = float("inf")
        matrix = [[[0.5, 0.0], [inf, 0.0]], [[inf, 0.0], [0.5, 0.0]]]
        bad.write_text(json.dumps({"kind": "density", "num_sites": 1, "matrix": matrix}))
        assert main(["measure", "--state", str(bad), "--measures", "negativity"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_unknown_measure_exits_2(self, bell_file, capsys):
        assert main(["measure", "--state", str(bell_file), "--measures", "bogus"]) == 2

    def test_missing_input_exits_2(self, capsys):
        assert main(["measure", "--measures", "negativity"]) == 2

    def test_domain_error_surfaced(self, bell_file, capsys):
        # three-tangle needs three qubits; surfaced as message + exit 2
        assert main(["measure", "--state", str(bell_file), "--measures", "three-tangle"]) == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["measure", "--measures", "kme"], ["measure", "--measures", "one-tangle"],
        ["measure", "--measures", "three-tangle"], ["measure", "--measures", "invariants3"],
        ["measure", "--measures", "kme", "--k", "2"], ["invariants"],
    ])
    def test_pure_state_measures_refuse_a_mixed_file(self, tmp_path, capsys, argv):
        state = tmp_path / "mixed.json"
        state.write_text(state_to_json(verify.random_mixed(3, 2, 3)))
        assert main(argv + ["--state", str(state)]) == 2
        assert "need a pure state, got DensityMatrix" in capsys.readouterr().err

    @pytest.mark.parametrize("kind", ["pure", "mixed"])
    def test_default_kme_of_one_qubit_exits_2(self, tmp_path, capsys, kind):
        """No k applies to one qubit: refused for either kind, not an empty table."""
        state = tmp_path / "one.json"
        build = verify.random_pure(1, 4) if kind == "pure" else verify.random_mixed(1, 2, 4)
        state.write_text(state_to_json(build))
        assert main(["measure", "--state", str(state)]) == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("k,message", [("2,x", "cannot parse k list '2,x'"),
                                           (",", "empty k list")])
    def test_bad_k_list_exits_2(self, bell_file, capsys, k, message):
        assert main(["measure", "--state", str(bell_file), "--k", k]) == 2
        assert message in capsys.readouterr().err

    def test_missing_state_file_exits_2(self, tmp_path, capsys):
        assert main(["measure", "--state", str(tmp_path / "absent.json")]) == 2
        assert "No such file or directory" in capsys.readouterr().err

    def test_huge_k_echoed_short(self, capsys):
        assert main(["measure", "--family", "8", "--k", "9" * 35]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "9" * 13 not in err and len(err) < 120, err


class TestInvariantsCommand:
    def test_family9(self, capsys):
        assert main(["invariants", "--family", "9"]) == 0
        out = capsys.readouterr().out
        assert "I4(7)" in out

    def test_two_qubit_file_exits_2(self, bell_file, capsys):
        assert main(["invariants", "--state", str(bell_file)]) == 2
        assert "defined for 3- or 4-qubit pure states" in capsys.readouterr().err


class TestFamilyCommand:
    def test_family6_closed_forms(self, capsys):
        assert main(["family", "--family", "6", "--a", "1"]) == 0
        out = capsys.readouterr().out
        assert "C2 = 0.8" in out
        assert "holds unconditionally" in out

    def test_complex_literal(self, capsys):
        assert main(["family", "--family", "3", "--a", "0.5+0.5j", "--b", "1"]) == 0
        out = capsys.readouterr().out
        assert "condition margin" in out

    def test_bad_complex_literal(self, capsys):
        assert main(["family", "--family", "3", "--a", "zzz"]) == 2

    def test_out_file_round_trips(self, tmp_path, capsys):
        out = tmp_path / "f6.json"
        assert main(["family", "--family", "6", "--a", "1", "--out", str(out)]) == 0
        psi = load_state(out)
        assert isinstance(psi, PureState) and psi.num_sites == 4
        assert np.array_equal(psi.amplitudes, slocc_family(FamilyParams(6, a=1)).amplitudes)


class TestRandomCommand:
    def test_pure_roundtrip(self, tmp_path, capsys):
        out_path = tmp_path / "rnd.json"
        assert (
            main(
                [
                    "random",
                    "--kind",
                    "pure",
                    "--sites",
                    "3",
                    "--seed",
                    "42",
                    "--out",
                    str(out_path),
                ]
            )
            == 0
        )
        capsys.readouterr()
        payload = json.loads(out_path.read_text())
        assert payload["kind"] == "pure" and payload["num_sites"] == 3

    def test_mixed_to_stdout(self, capsys):
        assert main(["random", "--kind", "mixed", "--sites", "2", "--rank", "2", "--seed", "1"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["kind"] == "density"

    @pytest.mark.parametrize("kind", ["pure", "mixed"])
    def test_negative_seed_exits_2(self, capsys, kind):
        assert main(["random", "--kind", kind, "--sites", "3", "--seed", "-1"]) == 2
        err = capsys.readouterr().err
        assert "error:" in err and "Traceback" not in err


class TestVerifyCommand:
    def test_small_suite_exit_0(self, tmp_path, capsys):
        suite = tmp_path / "suite.json"
        suite.write_text(
            json.dumps(
                {
                    "seed": 7,
                    "relations": {
                        "R3": {"sizes": [2, 3], "t_points": 5, "random_t": 1},
                        "R9": {"samples": 3, "cuts": [[1, 1]]},
                    },
                }
            )
        )
        csv_path = tmp_path / "report.csv"
        assert main(["verify", "--suite", str(suite), "--csv", str(csv_path)]) == 0
        out = capsys.readouterr().out
        assert "0 failures" in out
        header = csv_path.read_text().splitlines()[0]
        assert header == "relation,state_descriptor,lhs,rhs,residual,tolerance,verdict,condition_note"

    def test_failure_exit_1(self, tmp_path, capsys):
        suite = tmp_path / "suite.json"
        suite.write_text(
            json.dumps(
                {"seed": 7, "relations": {"R4": {"samples": 2, "tolerance": 1e-17}}}
            )
        )
        assert main(["verify", "--suite", str(suite)]) == 1

    def test_bad_suite_exit_2(self, tmp_path, capsys):
        bad_relations = [
            {"R1": {"samples": "x"}},
            {"R1": {"sizes": 3}},
            {"R3": {"t_points": 2.5}},
            {"R1": {"tolerance": "abc"}},
            {"R9": {"cuts": [[0, 1]]}},
            {"R3": {"sizes": [9]}},
            {"R9": {"cuts": [[5, 5]]}},
            {"R8": {"sizes": [9]}},
            {"R8": {"sizes": [40]}},
        ]
        texts = ["{definitely not json"]
        texts += [json.dumps({"relations": rels}) for rels in bad_relations]
        texts += [json.dumps({"seed": -1}), json.dumps({"seed": True})]
        suite = tmp_path / "bad.json"
        for text in texts:
            suite.write_text(text)
            assert main(["verify", "--suite", str(suite)]) == 2, text
            assert "error:" in capsys.readouterr().err

    def test_seed_override_and_csv_determinism(self, tmp_path, capsys):
        suite = tmp_path / "suite.json"
        suite.write_text(json.dumps({"relations": {"R9": {"samples": 2, "cuts": [[1, 1]]}}}))
        c1, c2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["verify", "--suite", str(suite), "--seed", "3", "--csv", str(c1)]) == 0
        assert main(["verify", "--suite", str(suite), "--seed", "3", "--csv", str(c2)]) == 0
        capsys.readouterr()
        assert c1.read_bytes() == c2.read_bytes()

    def test_custom_grid_flags(self, tmp_path, capsys):
        suite = tmp_path / "suite.json"
        suite.write_text(
            json.dumps({"relations": {"R7": {"families": [6], "random_points": 0}}})
        )
        assert (
            main(
                [
                    "verify",
                    "--suite",
                    str(suite),
                    "--grid-family",
                    "6",
                    "--grid",
                    "re:0.2:1.4:4,im:0:0.5:2",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "64" in out  # 4 x 2 grid points x 8 sub-checks

    @pytest.mark.parametrize("relations,expected", [
        # no R7: it runs family 6 alone, with the default four random points
        ({"R9": {"samples": 0}},
         {"bell cut 1|1", "family 6 grid #00", "family 6 grid #01"}
         | {f"family 6 random #{i:02d}" for i in range(4)}),
        # an R7 spec keeps its families, random points and tolerance
        ({"R7": {"families": [9], "random_points": 1, "tolerance": 1e-7}},
         {"family 9 grid #00", "family 6 grid #00", "family 6 grid #01",
          "family 6 random #00"}),
    ])
    def test_grid_flags_merge_into_the_suite(self, tmp_path, capsys, relations, expected):
        suite = tmp_path / "suite.json"
        suite.write_text(json.dumps({"relations": relations}))
        out = tmp_path / "report.csv"
        argv = ["verify", "--suite", str(suite), "--grid-family", "6", "--grid", "re:0:1:2",
                "--csv", str(out)]
        assert main(argv) == 0
        capsys.readouterr()
        rows = list(csv.DictReader(io.StringIO(out.read_text())))
        assert {row["state_descriptor"].split(" | ")[0] for row in rows} == expected
        tolerance = relations.get("R7", {}).get("tolerance", 1e-8)
        assert {float(row["tolerance"]) for row in rows if row["relation"] == "R7"} == {tolerance}

    def test_grid_requires_family(self, capsys):
        assert main(["verify", "--default", "--grid", "re:0:1:2"]) == 2

    def test_bad_grid_spec(self, tmp_path, capsys):
        suite = tmp_path / "suite.json"
        suite.write_text(json.dumps({"relations": {"R7": {"families": [6]}}}))
        args = ["verify", "--suite", str(suite), "--grid-family", "6", "--grid"]
        assert main(args + ["zz:0:1:2"]) == 2
        assert main(args + ["re:0:1"]) == 2
        assert main(args + ["re:0:1:0"]) == 2


class TestOutsideValuesExit2:
    @pytest.mark.parametrize("entries", [
        '"amplitudes": [[true, false], [false, false]]',
        '"amplitudes": [[1, false], [0, 0]]',
    ])
    def test_boolean_amplitudes(self, tmp_path, capsys, entries):
        state = tmp_path / "bool.json"
        state.write_text('{"kind": "pure", "num_sites": 1, %s}' % entries)
        assert main(["measure", "--state", str(state), "--measures", "negativity"]) == 2
        assert "true or false" in capsys.readouterr().err

    def test_boolean_matrix_entry(self, tmp_path, capsys):
        state = tmp_path / "bool.json"
        state.write_text('{"kind": "density", "num_sites": 1,'
                         ' "matrix": [[[true, 0], [0, 0]], [[0, 0], [0, 0]]]}')
        assert main(["measure", "--state", str(state), "--measures", "negativity"]) == 2
        assert "true or false" in capsys.readouterr().err

    @pytest.mark.parametrize("a", ["1e150", "1e300+1e300j", "nan", "inf"])
    def test_family_parameter_out_of_range(self, capsys, a):
        assert main(["family", "--family", "6", "--a", a]) == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_random_sites_echoed_short(self, capsys):
        assert main(["random", "--sites", "1" * 60, "--seed", "1"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and len(err) < 80, err

    @pytest.fixture
    def no_suite_run(self, monkeypatch):
        """The refusal must come before the suite runs."""
        def ran(config):
            raise AssertionError("the suite ran")

        monkeypatch.setattr(cli, "run_suite", ran)

    @pytest.mark.parametrize("relations", [
        {"R3": {"sizes": [3], "t_points": 10**40}},
        {"R1": {"samples": 10**40}},
        {"R7": {"families": [6], "grids": {"6": [["NaN"]]}}},
    ])
    def test_suite_exits_2(self, tmp_path, capsys, no_suite_run, relations):
        suite = tmp_path / "suite.json"
        suite.write_text(json.dumps({"relations": relations}).replace('"NaN"', "NaN"))
        assert main(["verify", "--suite", str(suite)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and len(err) < 120, err

    @pytest.mark.parametrize("text", [
        '{"relations": [["R1"]]}',
        '{"relations": ["R1", 3]}',
        '{"relations": {"R1": {"sizes": [1]}}}',
        '{"relations": {"R2": {"sizes": [1]}}}',
        '{"relations": {"R1": {"samples": 1500}, "R3": {"sizes": [1]}}}',
        '{"relations": {"R1": {"samples": 1500}, "R8": {"sizes": [2]}}}',
        '{"relations": {"R2": {"ranks": [0]}}}',
        '{"relations": {"R2": {"ranks": [5]}}}',
        '{"relations": {"R2": {"sizes": [3, 2], "ranks": [8]}}}',
    ])
    def test_config_refused_before_any_check(self, tmp_path, capsys, monkeypatch, text):
        """Refused when the config is built: no case is run, or generated."""
        def ran(case):
            raise AssertionError(f"a check ran: {case[0]}")

        monkeypatch.setattr(verify, "_run_case", ran)
        with pytest.raises(verify.ConfigError):
            verify.SuiteConfig.from_json(text)
        suite = tmp_path / "suite.json"
        suite.write_text(text)
        start = time.perf_counter()
        assert main(["verify", "--suite", str(suite)]) == 2
        assert time.perf_counter() - start < 0.5
        err = capsys.readouterr().err
        assert err.startswith("error:") and len(err) < 120, err

    def test_nan_grid_exits_2_before_any_check(self, tmp_path, capsys, monkeypatch):
        def ran(case):
            raise AssertionError(f"a check ran: {case[0]}")

        monkeypatch.setattr(verify, "_run_case", ran)
        suite = tmp_path / "suite.json"
        suite.write_text('{"relations": {"R1": {}, "R7": {"families": [6],'
                         ' "grids": {"6": [[NaN]]}}}}')
        assert main(["verify", "--suite", str(suite)]) == 2
        assert "finite" in capsys.readouterr().err

    def test_overflowing_grid_exits_2(self, tmp_path, capsys):
        suite = tmp_path / "suite.json"
        suite.write_text('{"relations": {"R7": {"families": [6], "grids": {"6": [[1e150]]}}}}')
        assert main(["verify", "--suite", str(suite)]) == 2
        assert "overflow" in capsys.readouterr().err

    @pytest.mark.parametrize("grid", [
        "re:0:1:10001", "re:0:1:101,im:0:1:100", "re:0:1:" + "9" * 5000,
    ], ids=["steps", "values", "digits"])
    def test_grid_steps_capped(self, capsys, no_suite_run, grid):
        assert main(["verify", "--default", "--grid-family", "6", "--grid", grid]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and len(err) < 120, err

    def test_huge_grid_steps_exit_2_at_once(self):
        """Refused before any grid value is formed, in well under a second.
        main() runs in a child process with 512 MB of address space and
        10 s, so a regression fails instead of filling memory."""
        def limit():
            resource.setrlimit(resource.RLIMIT_AS, (512 << 20, 512 << 20))

        code = (
            "import sys, time\n"
            "from qent.cli import main\n"
            "start = time.perf_counter()\n"
            "code = main(['verify', '--default', '--grid-family', '6',"
            " '--grid', 're:0:1:100000000000'])\n"
            "print(time.perf_counter() - start)\n"
            "sys.exit(code)\n"
        )
        done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              preexec_fn=limit, timeout=10, env={**os.environ, "PYTHONPATH": SRC})
        assert done.returncode == 2, done.stderr
        assert done.stderr.startswith("error: grid steps"), done.stderr
        assert float(done.stdout) < 0.5
