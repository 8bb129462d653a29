import json

import numpy as np
import pytest

from qent import PureState, make_pure, state_to_json
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
        ]
        texts = ["{definitely not json"]
        texts += [json.dumps({"relations": rels}) for rels in bad_relations]
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

    def test_grid_requires_family(self, capsys):
        assert main(["verify", "--default", "--grid", "re:0:1:2"]) == 2

    def test_bad_grid_spec(self, tmp_path, capsys):
        suite = tmp_path / "suite.json"
        suite.write_text(json.dumps({"relations": {"R7": {"families": [6]}}}))
        args = ["verify", "--suite", str(suite), "--grid-family", "6", "--grid"]
        assert main(args + ["zz:0:1:2"]) == 2
        assert main(args + ["re:0:1"]) == 2
        assert main(args + ["re:0:1:0"]) == 2
