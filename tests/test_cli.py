import csv
import io
import json
import time

import numpy as np
import pytest

from qent import PureState, linear_entropy_pure, make_pure, state_to_json, w
from qent import cli
from qent.cli import main


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

        monkeypatch.setattr(cli, "density_of", no_projector)
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
        density_of = cli.density_of
        monkeypatch.setattr(cli, "density_of", lambda psi: built.append(psi) or density_of(psi))
        argv = ["measure", "--state", str(bell_file),
                "--measures", "negativity,two-tangle,nme-bound,wootters"]
        assert main(argv) == 0
        assert "two-tangle = 1" in capsys.readouterr().out
        assert len(built) == 1

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

        monkeypatch.setattr(cli, "density_of", no_projector)
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


class TestInvariantsCommand:
    def test_family9(self, capsys):
        assert main(["invariants", "--family", "9"]) == 0
        out = capsys.readouterr().out
        assert "I4(7)" in out


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
