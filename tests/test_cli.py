"""Exit codes, report schema and determinism of the batch front end."""

import json
import time
from fractions import Fraction
from pathlib import Path

import pytest

from liecomposite.cli import RunConfig, _config_from_args, build_parser, main, run
from liecomposite.errors import DomainError
from liecomposite.findim import FinDimRep, rep_to_data, save_composite, save_rep
from liecomposite.octa import VERTICES, build_octahedron, so4_composite_rep


def invoke(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- config validation ------------------------------------------------------


def test_config_rejects_bad_ranges():
    # the max index is range-checked by the checker the command runs
    with pytest.raises(DomainError):
        run(RunConfig(command="witt-verify", max_index=0))
    with pytest.raises(DomainError):
        RunConfig(command="witt-hs", truncation=0)
    with pytest.raises(DomainError):
        RunConfig(command="witt-hs", weight=Fraction(-1, 2))


def test_parser_rejects_unknown_command(capsys):
    code, out, err = invoke(capsys, "no-such-command")
    assert code == 2


# -- the three contract examples ---------------------------------------------


def test_witt_verify_small_index_passes(capsys):
    code, out, err = invoke(capsys, "witt-verify", "--max-index", "3")
    assert code == 0
    assert "result: PASS" in out
    assert "deviation(e_-1, e_0)" in out


def test_witt_verify_zero_index_is_usage_error(capsys):
    code, out, err = invoke(capsys, "witt-verify", "--max-index", "0")
    assert code == 2
    assert "max index" in err


def test_composite_check_with_zero_rep(tmp_path, capsys):
    cpath = tmp_path / "octa.json"
    rpath = tmp_path / "zero.json"
    save_composite(build_octahedron(), cpath)
    save_rep(FinDimRep(1, {v: [[Fraction(0)]] for v in VERTICES}), rpath)
    code, out, err = invoke(
        capsys, "composite-check", str(cpath), "--rep", str(rpath)
    )
    assert code == 0
    assert "result: PASS" in out


# -- exit code 1 = a check failed ---------------------------------------------


def test_broken_rep_exits_one(tmp_path, capsys):
    cpath = tmp_path / "octa.json"
    rpath = tmp_path / "broken.json"
    save_composite(build_octahedron(), cpath)
    rep = so4_composite_rep(1, 1)
    mats = {v: rep.matrix(v) for v in VERTICES}
    mats["A"] = [[2 * x for x in row] for row in mats["A"]]
    save_rep(FinDimRep(4, mats), rpath)
    code, out, err = invoke(
        capsys,
        "composite-check", str(cpath), "--rep", str(rpath), "--format", "json",
    )
    assert code == 1
    payload = json.loads(out)
    assert payload["pass"] is False
    assert any(item["verdict"] == "fail" for item in payload["items"])


@pytest.mark.parametrize(
    "basis, message",
    [
        ([[0.1, 0.7], [0.3, 2.1]], "float scalar"),
        ([["0.1", "0.7"], ["0.3", "2.1"]], "basis rows are dependent"),
        # JSON true is not the scalar 1
        ([[True, False], [0, 1]], "boolean"),
    ],
)
def test_composite_basis_is_read_exactly(tmp_path, capsys, basis, message):
    data = {
        "dimension": 2,
        "basis_names": ["x", "y"],
        "subspaces": [
            {
                "name": "s",
                "basis": basis,
                "structure_constants": [[[0, 0], [0, 0]], [[0, 0], [0, 0]]],
            }
        ],
    }
    cpath = tmp_path / "composite.json"
    cpath.write_text(json.dumps(data), encoding="utf-8")
    code, out, err = invoke(capsys, "composite-check", str(cpath))
    assert code == 2
    assert message in err
    assert out == ""


def test_missing_file_exits_two(tmp_path, capsys):
    code, out, err = invoke(capsys, "composite-check", str(tmp_path / "nope.json"))
    assert code == 2
    assert "error:" in err


def test_float_entries_among_gaussian_matrices_exit_two(tmp_path, capsys):
    cpath = tmp_path / "octa.json"
    rpath = tmp_path / "mixed.json"
    save_composite(build_octahedron(), cpath)
    data = rep_to_data(so4_composite_rep(1, 0))
    data["matrices"]["A"] = [[0.0, "1/2"], ["-1/2", "0"]]
    rpath.write_text(json.dumps(data), encoding="utf-8")
    code, out, err = invoke(capsys, "composite-check", str(cpath), "--rep", str(rpath))
    assert code == 2
    assert err.startswith("error: matrix for A has float entries")
    assert "Traceback" not in err
    assert out == ""


def test_float_rep_against_gaussian_composite_exits_two(tmp_path, capsys):
    # the composite's bases and structure constants hold Gaussian rationals
    cpath = Path(__file__).parent / "golden" / "gaussian_clash.json"
    rpath = tmp_path / "float.json"
    data = {"space_dim": 1, "matrices": {name: [[0.5]] for name in "wxyz"}}
    rpath.write_text(json.dumps(data), encoding="utf-8")
    code, out, err = invoke(capsys, "composite-check", str(cpath), "--rep", str(rpath))
    assert code == 2
    assert err.startswith("error: a representation with float entries does not mix")
    assert "Traceback" not in err
    assert out == ""


@pytest.mark.parametrize("matrices", ["xy", ["xy"]])
def test_matrices_that_are_not_an_object_exit_two(tmp_path, capsys, matrices):
    # a string was a traceback with exit 1, and a list of pairs was read as
    # a dict and refused for a bad scalar
    rpath = tmp_path / "rep.json"
    rpath.write_text(json.dumps({"space_dim": 2, "matrices": matrices}), encoding="utf-8")
    golden = Path(__file__).parent / "golden"
    code, out, err = invoke(capsys, "composite-check", str(golden / "octa.json"), "--rep", str(rpath))
    assert code == 2
    assert err.startswith("error: matrices must be a JSON object")
    assert "Traceback" not in err
    assert out == ""


_ABC_ROWS = ["100000", "010000", "001000"]  # the basis of face ABC in octa.json


@pytest.mark.parametrize(
    "basis, matrix, expected",
    [
        (_ABC_ROWS, None, "basis row of ABC must be a list, not str"),
        (dict.fromkeys(_ABC_ROWS, 0), None, "basis of ABC must be a list, not dict"),
        (None, "0", "matrix for A must be a list, not str"),
        (None, {"0": 1}, "matrix for A must be a list, not dict"),
    ],
    ids=["basis-rows-as-strings", "basis-rows-as-keys", "matrix-as-string", "matrix-as-object"],
)
def test_strings_and_objects_for_lists_exit_two(tmp_path, capsys, basis, matrix, expected):
    # each was read element by element, a string as its characters and an
    # object as its keys, and the check passed with exit 0
    golden = Path(__file__).parent / "golden"
    argv = [str(golden / "octa.json")]
    if basis is not None:
        data = json.loads((golden / "octa.json").read_text(encoding="utf-8"))
        data["subspaces"][0]["basis"] = basis
        argv[0] = str(tmp_path / "octa.json")
        Path(argv[0]).write_text(json.dumps(data), encoding="utf-8")
    if matrix is not None:
        rpath = tmp_path / "rep.json"
        rep = {"space_dim": 1, "matrices": {v: matrix for v in VERTICES}}
        rpath.write_text(json.dumps(rep), encoding="utf-8")
        argv += ["--rep", str(rpath)]
    code, out, err = invoke(capsys, "composite-check", *argv)
    assert code == 2
    assert err.startswith(f"error: {expected}")
    assert "Traceback" not in err
    assert out == ""


@pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity"])
def test_non_finite_float_entry_exits_two(tmp_path, capsys, literal):
    golden = Path(__file__).parent / "golden"
    data = json.loads((golden / "so4_1_1_float.json").read_text(encoding="utf-8"))
    data["matrices"]["A"][0][1] = float(literal)
    rpath = tmp_path / "float.json"
    rpath.write_text(json.dumps(data), encoding="utf-8")
    assert literal in rpath.read_text(encoding="utf-8")
    code, out, err = invoke(capsys, "composite-check", str(golden / "octa.json"), "--rep", str(rpath))
    assert code == 2
    assert err.startswith(f"error: bad matrix row of A: non-finite float {float(literal)!r}")
    assert "Traceback" not in err
    assert out == ""


@pytest.mark.parametrize("tolerance", ["nan", "-1", "inf"])
def test_tolerance_that_decides_nothing_exits_two(tmp_path, capsys, tolerance):
    cpath = tmp_path / "octa.json"
    rpath = tmp_path / "zero.json"
    save_composite(build_octahedron(), cpath)
    save_rep(FinDimRep(1, {v: [[Fraction(0)]] for v in VERTICES}), rpath)
    code, out, err = invoke(
        capsys, "composite-check", str(cpath), "--rep", str(rpath), "--tolerance", tolerance
    )
    assert code == 2
    assert err.startswith("error: tolerance must be finite and >= 0")
    assert "Traceback" not in err
    assert out == ""


@pytest.mark.parametrize(
    "field, value",
    [
        ("dimension", "six"),
        ("dimension", 6.7),
        ("dimension", True),
        ("space_dim", "four"),
        ("space_dim", 4.9),
        ("space_dim", True),
    ],
)
def test_non_integer_dimension_exits_two(tmp_path, capsys, field, value):
    # a string was a traceback with exit 1, a float was truncated to a
    # PASS, and true was read as 1
    golden = Path(__file__).resolve().parent / "golden"
    composite = json.loads((golden / "octa.json").read_text(encoding="utf-8"))
    rep = json.loads((golden / "so4_1_1.json").read_text(encoding="utf-8"))
    (composite if field == "dimension" else rep)[field] = value
    cpath, rpath = tmp_path / "octa.json", tmp_path / "rep.json"
    cpath.write_text(json.dumps(composite), encoding="utf-8")
    rpath.write_text(json.dumps(rep), encoding="utf-8")
    code, out, err = invoke(capsys, "composite-check", str(cpath), "--rep", str(rpath))
    assert code == 2
    assert err.startswith(f"error: {field} must be an integer, not {value!r}")
    assert "Traceback" not in err
    assert out == ""


def _golden_composite_with(tmp_path, edit):
    golden = Path(__file__).resolve().parent / "golden"
    data = json.loads((golden / "octa.json").read_text(encoding="utf-8"))
    edit(data)
    cpath = tmp_path / "octa.json"
    cpath.write_text(json.dumps(data), encoding="utf-8")
    return str(cpath)


@pytest.mark.parametrize("names", [7, None, "ABCDEF"])
def test_basis_names_that_are_not_a_list_of_strings_exit_two(tmp_path, capsys, names):
    # 7 and null were a TypeError traceback with exit 1; "ABCDEF" was read
    # as six one-letter names and passed
    cpath = _golden_composite_with(tmp_path, lambda d: d.update(basis_names=names))
    code, out, err = invoke(capsys, "composite-check", cpath)
    assert code == 2
    assert err.startswith(f"error: basis_names must be a list of strings, not {names!r}")
    assert "Traceback" not in err
    assert out == ""


@pytest.mark.parametrize("name", [["x", {"y": 1}], None, 7, True, ""])
def test_subspace_name_that_is_not_a_string_exits_two(tmp_path, capsys, name):
    # each was read through str() and printed as a Python repr in a PASS
    cpath = _golden_composite_with(tmp_path, lambda d: d["subspaces"][0].update(name=name))
    code, out, err = invoke(capsys, "composite-check", cpath)
    assert code == 2
    assert err.startswith(f"error: subspace name must be a non-empty string, not {name!r}")
    assert "Traceback" not in err
    assert out == ""


# -- numeric-weight handling ---------------------------------------------------


def test_hs_requires_numeric_weight(capsys):
    code, out, err = invoke(capsys, "witt-hs", "--weight", "symbolic")
    assert code == 2
    assert "numeric weight" in err


def test_negative_weight_rejected(capsys):
    code, out, err = invoke(capsys, "witt-hs", "--weight", "-1/2")
    assert code == 2


def test_symmetry_with_numeric_weight_skips_word_check(capsys):
    code, out, err = invoke(
        capsys, "witt-symmetry", "--max-index", "2", "--weight", "1/2"
    )
    assert code == 0
    assert "skipped for a numeric one" in out


# -- remaining subcommands -----------------------------------------------------


def test_witt_extended_runs(capsys):
    code, out, err = invoke(capsys, "witt-extended", "--max-index", "2")
    assert code == 0
    assert "result: PASS" in out


def test_witt_closed_runs(capsys):
    code, out, err = invoke(
        capsys, "witt-closed", "--depth", "1", "--index-bound", "1"
    )
    assert code == 0


def test_witt_closed_zero_depth_is_usage_error(capsys):
    code, out, err = invoke(capsys, "witt-closed", "--depth", "0")
    assert code == 2
    assert "depth" in err


def test_octa_demo_json(capsys):
    code, out, err = invoke(
        capsys, "octa-demo", "--two-j1", "1", "--two-j2", "0", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    subjects = [item["subject"] for item in payload["items"]]
    assert "Killing form nondegenerate" in subjects
    assert any(s.startswith("precondition") for s in subjects)


def test_tail_equivalence_convergent_and_divergent(capsys):
    code, out, err = invoke(
        capsys, "tail-equivalence", "(n+1)/(n+2)", "(n+1)/(n+2) + 1/n",
        "--weight", "1/2",
    )
    assert code == 0
    assert "equivalent" in out
    code, out, err = invoke(
        capsys, "tail-equivalence", "1/n", "1/n + 1", "--weight", "1/2"
    )
    assert code == 0
    assert "not equivalent" in out


@pytest.mark.parametrize(
    "argv",
    [
        # the terms fall until n = 10**6 and rise after it
        ["(n - 1000000)/(n+1)", "0"],
        # rise until n = 2*10**6, then fall like 1/n**2
        ["(n-1000000)/(n^2+1)", "0"],
        # from n = 10**6 on, a short window of 1/n**2 looks flat
        ["1/n", "0", "--weight", "1000000"],
    ],
)
def test_tail_probe_agrees_when_the_terms_turn_late(capsys, argv):
    code, out, err = invoke(capsys, "tail-equivalence", *argv)
    assert code == 0
    assert "[  ok] numeric probe agreement" in out


def test_tail_probe_beyond_float_range_is_input_error(capsys):
    code, out, err = invoke(capsys, "tail-equivalence", "n^80", "0")
    assert code == 2
    assert "float64 range" in err
    assert out == ""


def test_tail_probe_beyond_index_range_is_input_error(capsys):
    code, out, err = invoke(
        capsys, "tail-equivalence", "1/n", "0", "--weight", "1/2",
        "--truncation", str(10**20),
    )
    assert code == 2
    assert err.startswith("error:") and "can index" in err
    assert "Traceback" not in err
    assert out == ""


def test_tail_equivalence_pole_is_input_error(capsys):
    # the evaluation lattice for weight 1/2 contains n = 3/2
    code, out, err = invoke(
        capsys, "tail-equivalence", "1/(n-3/2)", "0", "--weight", "1/2"
    )
    assert code == 2
    assert "error:" in err


def test_malformed_expression_exits_two(capsys):
    code, out, err = invoke(capsys, "tail-equivalence", "n +", "0")
    assert code == 2


@pytest.mark.parametrize("expr", ["n^100000", "(n+1)^5000", "2^100000", "((n+1)^40)^30"])
def test_power_beyond_the_bound_exits_two(capsys, expr):
    # n^100000 ran past 30 s before the bound: powers are expanded term by term
    code, out, err = invoke(capsys, "tail-equivalence", expr, "0")
    assert code == 2
    assert err.startswith("error: ") and "exceeds the power bound" in err and "> 1000" in err
    assert "Traceback" not in err
    assert out == ""


@pytest.mark.parametrize("expr", ["(n+h)^1000", "(n/(n+h^2))^500"])
def test_power_with_too_many_terms_exits_two(capsys, expr):
    # these took 44 s and 8.4 s to expand: each is inside exponent x degree
    # <= 1000, but not inside the bound on the expanded term count
    start = time.perf_counter()
    code, out, err = invoke(capsys, "tail-equivalence", expr, "0")
    assert time.perf_counter() - start < 1
    assert code == 2
    assert err.startswith("error: ") and "exceeds the power bound" in err and "> 10000 terms" in err
    assert "Traceback" not in err
    assert out == ""


@pytest.mark.parametrize(
    "expr", ["(" * 200 + "n" + ")" * 200, "-" * 1500 + "n"], ids=["parentheses", "minus-signs"]
)
def test_deep_nesting_exits_two(capsys, expr):
    # each ended in a RecursionError traceback with exit 1
    code, out, err = invoke(capsys, "tail-equivalence", "--", expr, "0")
    assert code == 2
    assert err.startswith("error: parentheses and unary minus signs nest deeper than 100")
    assert "Traceback" not in err
    assert out == ""


# -- schema, rendering and determinism ----------------------------------------


def test_json_schema_keys(capsys):
    code, out, err = invoke(
        capsys, "witt-verify", "--max-index", "2", "--format", "json"
    )
    payload = json.loads(out)
    assert sorted(payload) == ["command", "items", "notes", "params", "pass", "schema"]
    assert payload["schema"] == 1
    assert payload["command"] == "witt-verify"
    assert payload["pass"] is True


def test_json_output_is_byte_identical(tmp_path, capsys):
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    for path in (out1, out2):
        code = main(
            ["witt-symmetry", "--max-index", "2", "--format", "json",
             "--output", str(path)]
        )
        assert code == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_output_file_leaves_stdout_quiet(tmp_path, capsys):
    path = tmp_path / "report.txt"
    code, out, err = invoke(
        capsys, "witt-verify", "--max-index", "2", "--output", str(path)
    )
    assert code == 0
    assert out == ""
    assert "result: PASS" in path.read_text()


def test_run_level_api_matches_exit_code():
    config = RunConfig(command="witt-verify", max_index=2, fmt="json")
    code, report, payload = run(config)
    assert code == 0
    assert report.passed and payload["pass"] is True
    assert dict(report.parameters)["weight"] == "symbolic"


def test_parser_defaults():
    args = build_parser().parse_args(["witt-hs"])
    assert args.weight == "1/2"
    assert args.truncation == 500
    assert args.index_bound == 6
    # the RunConfig fields each command's minimal argv resolves to
    half = Fraction(1, 2)
    expected = {
        ("witt-verify", "--max-index", "2"): {"max_index": 2, "weight": None},
        ("witt-extended", "--max-index", "2"): {"max_index": 2, "weight": None},
        ("witt-symmetry", "--max-index", "2"): {
            "max_index": 2, "word_length": 3, "index_bound": 2, "weight": None,
        },
        ("witt-hs",): {"index_bound": 6, "truncation": 500, "weight": half},
        ("witt-closed",): {"depth": 1, "index_bound": 2, "mode": "bracket", "weight": None},
        ("composite-check", "c.json"): {
            "composite_path": "c.json", "rep_path": None, "tolerance": None,
        },
        ("octa-demo",): {"two_j1": 1, "two_j2": 1},
        ("tail-equivalence", "n", "0"): {
            "expressions": ("n", "0"), "truncation": 10000, "weight": half,
        },
    }
    for argv, fields in expected.items():
        config = _config_from_args(build_parser().parse_args(list(argv)))
        fields = {"command": argv[0], "fmt": "text", "output": None, **fields}
        assert {name: getattr(config, name) for name in fields} == fields, argv
