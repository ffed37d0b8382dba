import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from pqh.cli import main
from pqh.generate import KINDS
from pqh.linalg import Mat

DATA = Path(__file__).parent / "data"
GOLDEN = Path(__file__).parent / "golden"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def totally_real_instance(tmp_path):
    path = tmp_path / "tr.json"
    path.write_text(
        json.dumps(
            {
                "n": 1,
                "omega_E": [["0", "1"], ["-1", "0"]],
                "vectors": [["1", "0", "0", "1"]],
            }
        )
    )
    return str(path)


class TestParsing:
    def test_fraction_format_accepted(self, tmp_path, capsys):
        path = tmp_path / "i.json"
        path.write_text(
            json.dumps(
                {
                    "n": 1,
                    "omega_E": [["0", "1/2"], ["-1/2", "0"]],
                    "vectors": [["1/2", "0", "0", "1"]],
                }
            )
        )
        code, out, _ = run_cli(capsys, "signature", str(path))
        assert code == 0

    def test_decimal_rejected(self, tmp_path, capsys):
        path = tmp_path / "i.json"
        path.write_text(
            json.dumps(
                {
                    "n": 1,
                    "omega_E": [["0", "0.5"], ["-0.5", "0"]],
                    "vectors": [],
                }
            )
        )
        code, _, err = run_cli(capsys, "signature", str(path))
        assert code == 2
        assert "rational" in err

    def test_zero_omega_exit_3(self, tmp_path, capsys):
        path = tmp_path / "i.json"
        path.write_text(
            json.dumps(
                {"n": 1, "omega_E": [["0", "0"], ["0", "0"]], "vectors": []}
            )
        )
        code, _, err = run_cli(capsys, "signature", str(path))
        assert code == 3

    def test_malformed_json_exit_2(self, tmp_path, capsys):
        path = tmp_path / "i.json"
        path.write_text("{not json")
        code, _, _ = run_cli(capsys, "classify", str(path))
        assert code == 2

    def test_wrong_row_length_exit_2(self, tmp_path, capsys):
        path = tmp_path / "i.json"
        path.write_text(
            json.dumps(
                {
                    "n": 1,
                    "omega_E": [["0", "1"], ["-1", "0"]],
                    "vectors": [["1", "0"]],
                }
            )
        )
        code, _, _ = run_cli(capsys, "classify", str(path))
        assert code == 2

    def test_dependent_rows_warn(self, tmp_path, capsys):
        path = tmp_path / "i.json"
        path.write_text(
            json.dumps(
                {
                    "n": 1,
                    "omega_E": [["0", "1"], ["-1", "0"]],
                    "vectors": [["1", "0", "0", "1"], ["2", "0", "0", "2"]],
                }
            )
        )
        code, out, err = run_cli(capsys, "signature", str(path))
        assert code == 0
        assert "dependent row" in err
        assert out.strip() == "(1,0,0)"

    def test_missing_file_exit_2(self, capsys):
        code, _, _ = run_cli(capsys, "classify", "/nonexistent/path.json")
        assert code == 2

    @pytest.mark.parametrize(
        "field, value",
        [
            ("n", True),
            ("omega_E", [["0", True], ["-1", "0"]]),
            ("vectors", [[True, "0", "0", "0"]]),
            ("vectors", [["1", "0", "0", False]]),
        ],
    )
    def test_json_booleans_exit_2(self, tmp_path, capsys, field, value):
        data = {
            "n": 1,
            "omega_E": [["0", "1"], ["-1", "0"]],
            "vectors": [["1", "0", "0", "1"]],
        }
        data[field] = value
        path = tmp_path / "i.json"
        path.write_text(json.dumps(data))
        for command in ("signature", "classify"):
            code, out, err = run_cli(capsys, command, str(path))
            assert code == 2
            assert out == ""
            assert err.startswith("error: ")

    @pytest.mark.parametrize(
        "entry",
        ['"' + "1" * 5000 + '"', '"1/' + "1" * 5000 + '"', "1" * 5000],
        ids=["numerator", "denominator", "json-number"],
    )
    def test_numeral_past_int_string_limit_exit_2(self, tmp_path, capsys, entry):
        data = json.loads((DATA / "instance_mixed.json").read_text())
        data["vectors"][0][0] = "@"
        path = tmp_path / "i.json"
        path.write_text(json.dumps(data).replace('"@"', entry))
        code, out, err = run_cli(capsys, "signature", str(path))
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Traceback" not in err


class TestCommands:
    def test_classify_totally_real(self, totally_real_instance, capsys):
        code, out, _ = run_cli(capsys, "classify", totally_real_instance)
        assert code == 0
        assert "signature: (1,0,0)" in out
        for flag in ("real", "hermitian", "totally_real"):
            assert flag in out

    def test_classify_json_round_trip(self, totally_real_instance, capsys):
        code, out, _ = run_cli(capsys, "classify", totally_real_instance, "--json")
        assert code == 0
        data = json.loads(out)
        assert data["flags"]["totally_real"] is True
        assert data["signature"] == [1, 0, 0]
        # canonical emission round-trips byte-identically
        from pqh.instances import canonical_json

        assert canonical_json(data) == out

    def test_signature(self, totally_real_instance, capsys):
        code, out, _ = run_cli(capsys, "signature", totally_real_instance)
        assert code == 0 and out.strip() == "(1,0,0)"

    def test_uft(self, totally_real_instance, capsys):
        code, out, _ = run_cli(capsys, "uft", totally_real_instance, "--json")
        assert code == 0
        data = json.loads(out)
        assert data["uft"]["F"]["dim"] == 1

    def test_uft_no_transversal(self, tmp_path, capsys):
        path = tmp_path / "pq.json"
        path.write_text(
            json.dumps(
                {
                    "n": 1,
                    "omega_E": [["0", "1"], ["-1", "0"]],
                    "vectors": [
                        ["1", "0", "0", "0"],
                        ["0", "0", "1", "0"],
                    ],
                }
            )
        )
        code, out, _ = run_cli(capsys, "uft", str(path))
        assert code == 0
        assert "no transversal direction" in out

    def test_product(self, totally_real_instance, capsys):
        code, out, _ = run_cli(
            capsys, "product", totally_real_instance, "--x", "0", "--y", "0"
        )
        assert code == 0
        assert "N(Im(X.Y)) = 0" in out
        assert "2 + 0*i + 0*j + 0*k" in out  # g(X,X) = 2 omega(e1,e2)

    def test_product_bad_index(self, totally_real_instance, capsys):
        code, _, _ = run_cli(
            capsys, "product", totally_real_instance, "--x", "0", "--y", "5"
        )
        assert code == 2

    def test_standardize(self, tmp_path, capsys):
        path = tmp_path / "s.json"
        path.write_text(
            json.dumps(
                {
                    "I": [["0", "-1"], ["1", "0"]],
                    "J": [["0", "1"], ["1", "0"]],
                    "K": [["-1", "0"], ["0", "1"]],
                }
            )
        )
        code, out, _ = run_cli(capsys, "standardize", str(path), "--json")
        assert code == 0
        assert json.loads(out)["pairs"] == 1

    def test_standardize_bad_relations_exit_3(self, tmp_path, capsys):
        path = tmp_path / "s.json"
        path.write_text(
            json.dumps(
                {
                    "I": [["0", "-1"], ["1", "0"]],
                    "J": [["1", "0"], ["0", "1"]],
                    "K": [["-1", "0"], ["0", "1"]],
                }
            )
        )
        code, _, _ = run_cli(capsys, "standardize", str(path))
        assert code == 3

    def test_decompose_modes(self, totally_real_instance, capsys):
        for mode in ("generic", "form1", "form2", "nilpotent"):
            code, out, _ = run_cli(
                capsys, "decompose", totally_real_instance, "--mode", mode
            )
            assert code == 0

    def test_gen_then_classify_kinds(self, tmp_path, capsys):
        expectations = {
            "para_quaternionic": "para_quaternionic",
            "complex": "complex",
            "totally_complex": "totally_complex",
            "para_complex": "para_complex",
            "totally_para_complex": "totally_para_complex",
            "weakly_para_complex": "weakly_para_complex",
            "nilpotent": "nilpotent",
            "real": "real",
            "totally_real": "totally_real",
        }
        for kind, flag in expectations.items():
            code, out, _ = run_cli(
                capsys, "gen", "--kind", kind, "--seed", "5", "--n", "2"
            )
            assert code == 0
            path = tmp_path / f"{kind}.json"
            path.write_text(out)
            code, out, _ = run_cli(capsys, "classify", str(path), "--json")
            assert code == 0
            assert json.loads(out)["flags"][flag] is True, kind

    def test_gen_deterministic(self, capsys):
        code, out1, _ = run_cli(capsys, "gen", "--kind", "generic", "--seed", "9")
        code, out2, _ = run_cli(capsys, "gen", "--kind", "generic", "--seed", "9")
        assert out1 == out2
        code, out3, _ = run_cli(capsys, "gen", "--kind", "generic", "--seed", "10")
        assert out1 != out3

    def test_gen_unknown_kind(self, capsys):
        code, _, _ = run_cli(capsys, "gen", "--kind", "bogus")
        assert code == 2

    def test_oracle_small(self, capsys):
        code, out, _ = run_cli(
            capsys, "oracle", "--seed", "1", "--samples", "4", "--n", "1"
        )
        assert code == 0
        assert "no violations" in out


class TestInternalChecks:
    def test_assertion_exit_4(self, capsys, monkeypatch):
        # decompose --mode generic takes a characteristic polynomial here
        def failing_check(self):
            raise AssertionError("inexact division in Faddeev-LeVerrier")

        monkeypatch.setattr(Mat, "charpoly", failing_check)
        inst = str(DATA / "instance_mixed.json")
        code, out, err = run_cli(capsys, "decompose", inst, "--mode", "generic")
        assert code == 4
        assert out == ""
        assert err == "cross-check violation: inexact division in Faddeev-LeVerrier\n"
        assert "Traceback" not in err


class TestGolden:
    """Byte-identical outputs for fixed (input, seed, flags)."""

    def _check(self, capsys, name, *argv):
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        golden = GOLDEN / name
        assert out == golden.read_text(), f"golden mismatch: {name}"

    def test_goldens(self, capsys):
        inst = str(DATA / "instance_mixed.json")
        struct = str(DATA / "structure_r4.json")
        cases = {
            "classify.txt": ("classify", inst),
            "classify.json": ("classify", inst, "--json"),
            "signature.txt": ("signature", inst),
            "uft.txt": ("uft", inst),
            "product.txt": ("product", inst, "--x", "0", "--y", "1"),
            "decompose_generic.txt": ("decompose", inst, "--mode", "generic"),
            "decompose_form1.txt": ("decompose", inst, "--mode", "form1"),
            "decompose_form2.txt": ("decompose", inst, "--mode", "form2"),
            "decompose_nilpotent.txt": ("decompose", inst, "--mode", "nilpotent"),
            "standardize.txt": ("standardize", struct),
            "gen.txt": ("gen", "--kind", "complex", "--seed", "3", "--n", "2"),
            "oracle.json": ("oracle", "--seed", "2", "--samples", "3", "--n", "1", "--json"),
        }
        for name, argv in cases.items():
            self._check(capsys, name, *argv)


def test_oracle_all_kinds_100_seeds():
    """Library-level version of the oracle CLI invariant: every generated
    kind passes the full cross-check for 100 seeds at n <= 3."""
    from pqh.classify import classify, oracle_check
    from pqh.generate import generate, standard_model
    from pqh.rng import Rng

    for seed in range(100):
        n = 1 + seed % 3
        ms = standard_model(n)
        for kind in KINDS:
            u = generate(Rng(seed * 997 + 13), n, kind)
            rep = classify(ms, u)
            bad = [f for f in oracle_check(ms, rep, u, seed=seed) if not f.ok]
            assert not bad, (seed, n, kind, [b.name for b in bad])
