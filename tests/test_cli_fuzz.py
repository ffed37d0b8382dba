"""The CLI contract under fuzzing: over mutated instance files, mutated
structure files and argv, ``pqh`` exits with 0, 2, 3 or 4, writes no
traceback, and two runs give identical stdout and stderr.

Each case starts from well-formed data, so that a fair share of runs
reach the classifier, and applies a few mutations: wrong shapes and types,
bad ``n``, a non-symplectic ``omega_E``, an ``h_basis`` of determinant
other than 1, bare and quoted numerals, unknown fields, and truncated,
non-UTF-8 or deeply nested bytes.  Sizes stay small (n <= 2, at most 4
vectors) to keep the run short; the ``--n`` values at and past the size
bound ``MAX_N`` build no instance.
"""

import contextlib
import copy
import io
import json
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from pqh.cli import MAX_N, main

EXIT_CODES = {0, 2, 3, 4}
STRUCTURE_R4 = json.loads((Path(__file__).parent / "data" / "structure_r4.json").read_text())

small = st.integers(-3, 3)
numerals = st.one_of(
    small,  # bare JSON integer
    small.map(str),  # quoted integer
    st.tuples(small, st.integers(1, 4)).map(lambda t: f"{t[0]}/{t[1]}"),  # quoted fraction
)
bad_numerals = st.sampled_from(
    [
        "+1", "-0", "007", "1/0", "1/-2", "1.5", "1e3", " 1", "", "x", "0x10", "1/2/3",
        0.5, 1.0, True, None, [], {}, [1], "9" * 5000, 10**40, "1/" + "7" * 40,
    ]
)
# a huge n with the file's short omega_E is refused before anything of size n
bad_n = st.sampled_from([0, -1, 3, "2", 2.5, True, None, [2], 10**9])
unimodular = st.sampled_from([[[1, 0], [0, 1]], [["2", "1"], ["1", "1"]], [[0, -1], ["1", 0]]])


def matrix(rows, cols, entries=numerals):
    return st.lists(st.lists(entries, min_size=cols, max_size=cols), min_size=rows, max_size=rows)


@st.composite
def skew(draw, d):
    """A skew matrix of quoted or bare numerals: symplectic unless singular."""
    m = [[0] * d for _ in range(d)]
    for i in range(d):
        for j in range(i + 1, d):
            x = draw(small)
            m[i][j], m[j][i] = draw(st.sampled_from([x, str(x)])), str(-x)
    return m


@st.composite
def mutate(draw, data, fields):
    """Apply 0-2 mutations (none half the time) to the JSON object ``data`` (lists of lists under
    ``fields``); the result may be any JSON value.  Works on a copy, since
    drawn values such as ``unimodular`` matrices are shared objects."""
    data = copy.deepcopy(data)
    for _ in range(draw(st.sampled_from([0, 0, 1, 2]))):
        present = [f for f in fields if isinstance(data, dict) and isinstance(data.get(f), list)]
        kinds = ["entry", "shape", "field", "top"] + (["n"] if "n" in fields else [])
        kind = draw(st.sampled_from(kinds))
        if kind == "top":
            data = draw(st.sampled_from([[], "x", 1, None, [data]]))
        elif kind == "field" and isinstance(data, dict):
            key = draw(st.sampled_from(sorted(data) + ["extra"]))
            if draw(st.booleans()):
                data.pop(key, None)
            else:
                data[key] = draw(st.one_of(bad_numerals, bad_n))
        elif kind == "n" and isinstance(data, dict):
            data["n"] = draw(bad_n)
        elif present:
            rows = data[draw(st.sampled_from(present))]
            if not rows or not isinstance(rows[0], list):
                continue
            i = draw(st.integers(0, len(rows) - 1))
            if not isinstance(rows[i], list):
                continue  # an earlier "scalar" mutation made this row a string
            if kind == "entry" and rows[i]:
                rows[i][draw(st.integers(0, len(rows[i]) - 1))] = draw(bad_numerals)
            elif kind == "shape":
                how = draw(st.sampled_from(
                    ["drop_row", "add_row", "drop_entry", "add_entry", "scalar"]
                ))
                if how == "drop_row":
                    del rows[i]
                elif how == "add_row":
                    rows.append(list(rows[i]))
                elif how == "drop_entry":
                    rows[i] = rows[i][:-1]
                elif how == "add_entry":
                    rows[i] = rows[i] + ["0"]
                else:
                    rows[i] = "1"
    return data


@st.composite
def encoded(draw, data):
    """``data`` as file bytes: JSON, sometimes truncated, not UTF-8 or
    nested past the parser's recursion limit."""
    raw = json.dumps(data).encode()
    how = draw(st.sampled_from(["json"] * 6 + ["truncate", "not_utf8", "deep"]))
    if how == "truncate":
        return raw[: draw(st.integers(0, len(raw)))]
    if how == "not_utf8":
        return b"\xff" + raw
    if how == "deep":
        return b"[" * 100_000 + raw
    return raw


@st.composite
def instance_cases(draw):
    """(file bytes, argv): the path goes right after the command name."""
    n = draw(st.integers(1, 2))
    data = {"n": n, "omega_E": draw(skew(2 * n)), "vectors": draw(st.lists(
        st.lists(numerals, min_size=4 * n, max_size=4 * n), max_size=4
    ))}
    h = draw(st.sampled_from(["none", "none", "unimodular", "random"]))
    if h == "unimodular":
        data["h_basis"] = draw(unimodular)
    elif h == "random":
        data["h_basis"] = draw(matrix(2, 2))
    if draw(st.integers(0, 4)) == 0:  # omega_E no longer skew
        data["omega_E"][0][0] = draw(st.sampled_from(["1", 1]))
    data = draw(mutate(data, ("n", "omega_E", "vectors", "h_basis")))
    index = st.integers(-1, 4).map(str)
    command = draw(st.sampled_from([
        ["classify"], ["signature"], ["uft"],
        ["product", "--x", draw(index), "--y", draw(index)],
        ["decompose", "--mode", draw(st.sampled_from(["generic", "form1", "form2", "nilpotent"]))],
    ]))
    return draw(encoded(data)), command + draw(st.sampled_from([[], ["--json"]]))


@st.composite
def structure_cases(draw):
    if draw(st.booleans()):
        data = json.loads(json.dumps(STRUCTURE_R4))
    else:
        d = draw(st.integers(1, 4))
        data = {key: draw(matrix(d, d)) for key in ("I", "J", "K")}
    data = draw(mutate(data, ("I", "J", "K")))
    return draw(encoded(data)), ["standardize"] + draw(st.sampled_from([[], ["--json"]]))


VOCABULARY = [
    "--json", "--x", "--y", "--mode", "generic", "form9", "--n", "--seed", "--samples",
    "--kind", "--dim", "-1", "0", "1", "2", "x", "complex", "generic", "PATH", "MISSING",
    "DIR", "-h", "--bogus",
]
COMMANDS = [
    "classify", "signature", "uft", "product", "standardize", "decompose", "oracle", "gen",
    "bogus",
]


# n at the size bound, just past it and far past it: gen and oracle exit 2
# past it before any matrix of size n exists
SIZES = [str(MAX_N), str(MAX_N + 1), str(10**9)]


@st.composite
def argv_cases(draw):
    """Free argv over the commands and a vocabulary of flags and values; an
    oracle run always gets a sample count and an n of at most 2.  Some gen
    and oracle runs end in an n from ``SIZES``: an oracle at the bound with
    no samples, a gen only past it, so that no run builds an instance of
    size ``MAX_N``."""
    command = draw(st.sampled_from(COMMANDS))
    argv = [command]
    if command == "oracle":
        argv += ["--samples", draw(st.sampled_from(["-1", "0", "1"])),
                 "--n", draw(st.sampled_from(["-1", "0", "1", "2"]))]
    argv += draw(st.lists(st.sampled_from(VOCABULARY), max_size=6))
    if command in ("gen", "oracle") and draw(st.booleans()):
        if command == "oracle":
            argv += ["--samples", "0", "--n", draw(st.sampled_from(SIZES))]
        else:
            argv += ["--n", draw(st.sampled_from(SIZES[1:]))]
    return argv


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse: a usage error exits 2, --help exits 0
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def check_contract(argv):
    first = run(argv)
    code, _, err = first
    assert code in EXIT_CODES, (argv, first)
    assert "Traceback" not in err, (argv, err)
    assert run(argv) == first


def run_on_file(raw, argv):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "input.json"
        path.write_bytes(raw)
        check_contract([argv[0], str(path)] + argv[1:])


@given(instance_cases())
@settings(max_examples=50, deadline=None)
def test_instance_files_keep_the_cli_contract(case):
    run_on_file(*case)


@given(structure_cases())
@settings(max_examples=25, deadline=None)
def test_structure_files_keep_the_cli_contract(case):
    run_on_file(*case)


@given(argv_cases())
@settings(max_examples=30, deadline=None)
def test_argv_keeps_the_cli_contract(argv):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "input.json"
        path.write_text(json.dumps(
            {"n": 1, "omega_E": [[0, 1], [-1, 0]], "vectors": [[1, 0, 0, 1]]}
        ))
        names = {"PATH": str(path), "MISSING": str(Path(tmp) / "missing.json"), "DIR": tmp}
        check_contract([names.get(token, token) for token in argv])
