import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import pqh
from pqh.classify import classify
from pqh.cli import MAX_N, main
from pqh.generate import KINDS, check_dim, generate
from pqh.linalg import Mat
from pqh.model import ModelSpace
from pqh.rng import Rng

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

    @pytest.mark.parametrize(
        "entry", ["1\n", "3/4\n", "\u0663/4"], ids=["newline", "fraction-newline", "non-ascii-digit"]
    )
    @pytest.mark.parametrize("command", ["signature", "standardize"])
    def test_entry_outside_the_grammar_exit_2(self, tmp_path, capsys, entry, command):
        if command == "signature":  # an instance entry
            data = json.loads((DATA / "instance_mixed.json").read_text())
            data["vectors"][0][0] = entry
        else:  # a structure-file entry
            data = json.loads((DATA / "structure_r4.json").read_text())
            data["I"][0][0] = entry
        path = tmp_path / "i.json"
        path.write_text(json.dumps(data))
        code, out, err = run_cli(capsys, command, str(path))
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1


class TestContract:
    """Bad arguments and hostile files exit 2 with one ``error:`` line."""

    @pytest.mark.parametrize(
        "argv",
        [
            ("gen", "--kind", "generic", "--dim", "-1"),
            ("gen", "--kind", "complex", "--dim", "3"),
            ("gen", "--kind", "generic", "--dim", "99"),
            ("gen", "--kind", "para_quaternionic", "--dim", "3"),
            ("gen", "--kind", "totally_complex", "--dim", "3"),
            ("gen", "--kind", "totally_para_complex", "--dim", "3"),
            ("gen", "--kind", "para_complex", "--dim", "3"),
            ("gen", "--kind", "nilpotent", "--dim", "0"),
        ],
    )
    def test_bad_dim_exit_2(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_every_accepted_dim_carries_its_kind_flag(self):
        """``gen --dim`` builds what it names: ``classify`` reports the
        kind's flag on every (kind, dim) that ``check_dim`` accepts, at
        n = 1-2, seed 0 (generic and decomposable have no flag)."""
        built = 0
        for n in (1, 2):
            ms = ModelSpace.standard(n)
            for kind in KINDS:
                for dim in range(4 * n + 1):
                    try:
                        check_dim(n, kind, dim)
                    except ValueError:
                        continue
                    flags = classify(ms, generate(Rng(0), n, kind, dim)).flags
                    assert getattr(flags, kind, True), (n, kind, dim)
                    built += 1
        assert built == 88

    def test_gen_para_quaternionic_dim_0_is_empty(self, capsys):
        code, out, err = run_cli(
            capsys, "gen", "--kind", "para_quaternionic", "--dim", "0", "--n", "2", "--seed", "3"
        )
        assert code == 0 and err == ""
        assert json.loads(out)["vectors"] == []

    @pytest.mark.parametrize(
        "argv",
        [
            ("gen", "--n", "0"),
            ("gen", "--n", "-3"),
            ("oracle", "--n", "0"),
            ("oracle", "--n", "-3"),
            ("oracle", "--samples", "-5"),
        ],
    )
    def test_bad_sizes_exit_2(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("command", ["classify", "signature", "standardize"])
    def test_deep_nesting_exit_2(self, tmp_path, capsys, command):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100_000)
        code, out, err = run_cli(capsys, command, str(path))
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("command", ["classify", "standardize"])
    def test_non_utf8_file_exit_2(self, tmp_path, capsys, command):
        path = tmp_path / "utf16.json"
        path.write_bytes(b"\xff\xfe{\x00}\x00")
        code, out, err = run_cli(capsys, command, str(path))
        assert code == 2
        assert out == ""
        assert err.startswith("error: cannot read ") and err.count("\n") == 1

    def test_zero_samples_allowed(self, capsys):
        code, out, _ = run_cli(capsys, "oracle", "--samples", "0", "--n", "1")
        assert code == 0
        assert out == "ran 0 checks over 0 generated instances\nno violations\n"


class TestSizeBound:
    """``gen`` and ``oracle`` take n up to ``MAX_N``.  Past it they exit 2
    before any matrix of size n exists, so a run under a small
    address-space limit still ends in one ``error:`` line, not a
    ``MemoryError`` traceback."""

    LIMIT = 1_500_000_000  # bytes of address space, set in the child only

    def child(self, *argv):
        code = (
            "import resource, sys\n"
            f"resource.setrlimit(resource.RLIMIT_AS, ({self.LIMIT}, {self.LIMIT}))\n"
            "from pqh.cli import main\n"
            "sys.exit(main(sys.argv[1:]))\n"
        )
        src = str(Path(pqh.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        return subprocess.run(
            [sys.executable, "-c", code, *argv], capture_output=True, text=True, env=env, timeout=120
        )

    @pytest.mark.parametrize("n", [MAX_N + 1, 10**9])
    @pytest.mark.parametrize("command", ["gen", "oracle"])
    def test_past_the_bound_exit_2_under_a_memory_limit(self, command, n):
        done = self.child(command, "--n", str(n))
        assert done.returncode == 2
        assert done.stdout == ""
        assert done.stderr == f"error: n must be an integer from 1 to {MAX_N}\n"

    def test_huge_n_with_a_short_omega_exit_2(self, tmp_path):
        path = tmp_path / "huge.json"
        path.write_text(json.dumps({"n": 10**9, "omega_E": [[0, 1], [-1, 0]], "vectors": []}))
        done = self.child("classify", str(path))
        assert done.returncode == 2
        assert done.stdout == ""
        assert done.stderr.startswith("error: ") and done.stderr.count("\n") == 1

    def test_oracle_at_the_bound(self, capsys):
        code, out, _ = run_cli(capsys, "oracle", "--samples", "0", "--n", str(MAX_N))
        assert code == 0
        assert out == "ran 0 checks over 0 generated instances\nno violations\n"


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

    def test_uft_given_basis_meets_subspace(self, tmp_path, capsys):
        # the h2 direction of the given basis carries the only vector of U
        path = tmp_path / "h2.json"
        path.write_text(
            json.dumps(
                {
                    "n": 1,
                    "omega_E": [["0", "1"], ["-1", "0"]],
                    "vectors": [["0", "0", "1", "0"]],
                    "h_basis": [["1", "0"], ["0", "1"]],
                }
            )
        )
        code, out, _ = run_cli(capsys, "uft", str(path), "--json")
        assert code == 0
        data = json.loads(out)
        assert data["uft"] is None
        assert data["reason"].startswith("no graph form in the given basis: ")
        assert out == json.dumps(data, sort_keys=True, indent=1) + "\n"
        code, text, _ = run_cli(capsys, "uft", str(path))
        assert code == 0 and text == data["reason"] + "\n"

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

    def test_gen_digest(self, capsys):
        """SHA-256 of the stdout of ``pqh gen`` for every kind (``KINDS``
        order), then n = 1-4, then seeds 0-7, concatenated: 352 runs."""
        digest = hashlib.sha256()
        for kind in KINDS:
            for n in range(1, 5):
                for seed in range(8):
                    argv = ("gen", "--kind", kind, "--n", str(n), "--seed", str(seed))
                    code, out, _ = run_cli(capsys, *argv)
                    assert code == 0
                    digest.update(out.encode())
        assert digest.hexdigest() == (GOLDEN / "gen_all.sha256").read_text().strip()


def test_oracle_all_kinds_100_seeds():
    """Library-level version of the oracle CLI invariant: every generated
    kind passes the full cross-check for 100 seeds at n <= 3."""
    from pqh.classify import oracle_check
    from pqh.generate import standard_model

    for seed in range(100):
        n = 1 + seed % 3
        ms = standard_model(n)
        for kind in KINDS:
            u = generate(Rng(seed * 997 + 13), n, kind)
            rep = classify(ms, u)
            bad = [f for f in oracle_check(ms, rep, u, seed=seed) if not f.ok]
            assert not bad, (seed, n, kind, [b.name for b in bad])


class TestBareIntegers:
    """Entries may be bare JSON integers; a bare decimal is refused."""

    @staticmethod
    def _unquote(x):
        if isinstance(x, list):
            return [TestBareIntegers._unquote(y) for y in x]
        if isinstance(x, str) and "/" not in x:
            return int(x)
        return x

    def test_bare_integers_classify_like_quoted(self, tmp_path, capsys):
        data = json.loads((DATA / "instance_mixed.json").read_text())
        bare = {k: self._unquote(v) if k != "n" else v for k, v in data.items()}
        assert any(isinstance(x, int) for row in bare["vectors"] for x in row)
        path = tmp_path / "bare.json"
        path.write_text(json.dumps(bare))
        quoted = str(DATA / "instance_mixed.json")
        for extra in ((), ("--json",)):
            expected = run_cli(capsys, "classify", quoted, *extra)
            got = run_cli(capsys, "classify", str(path), *extra)
            assert got == expected
            assert got[0] == 0

    @pytest.mark.parametrize("field", ["omega_E", "vectors"])
    def test_bare_decimal_exit_2(self, tmp_path, capsys, field):
        data = {
            "n": 1,
            "omega_E": [[0, 1], [-1, 0]],
            "vectors": [[1, 0, 0, 1]],
        }
        data[field][0][1] = 0.5
        path = tmp_path / "i.json"
        path.write_text(json.dumps(data))
        code, out, err = run_cli(capsys, "classify", str(path))
        assert code == 2
        assert out == ""
        assert err.startswith("error: ")
        assert err.count("\n") == 1


class TestResultNumeralLimit:
    """Input numerals under the int-string limit whose results print a
    longer one exit 2 with one ``error:`` line: the canonical row of
    (1/77...7, 0, 0, 33...3) has a 5,000-digit entry."""

    VECTOR = ["1/" + "7" * 2500, "0", "0", "3" * 2500]

    @pytest.fixture
    def long_result(self, tmp_path):
        path = tmp_path / "long.json"
        path.write_text(json.dumps({"n": 1, "omega_E": [["0", "1"], ["-1", "0"]], "vectors": [self.VECTOR]}))
        return str(path)

    @pytest.mark.parametrize(
        "argv",
        [
            ("uft",),
            ("classify", "--json"),
            ("decompose", "--mode", "form1"),
            ("decompose", "--mode", "generic"),
            ("product", "--x", "0", "--y", "0"),
            ("product", "--json", "--x", "0", "--y", "0"),
        ],
        ids=lambda argv: " ".join(argv),
    )
    def test_exit_2(self, long_result, capsys, argv):
        code, out, err = run_cli(capsys, argv[0], long_result, *argv[1:])
        assert code == 2
        assert out == ""
        assert err.startswith("error: result numeral longer than ") and err.count("\n") == 1
        assert "Traceback" not in err
