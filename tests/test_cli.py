"""Exit codes, report schema and determinism of the batch front end."""

import json
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from liecomposite import cli
from liecomposite.cli import RunConfig, _config_from_args, build_parser, main, run
from liecomposite.errors import DomainError
from liecomposite.findim import format_scalar
from liecomposite.octa import VERTICES, so4_composite_rep
from liecomposite.report import CheckItem, CheckReport
from liecomposite.verma import _word_coefficients


GOLDEN = Path(__file__).resolve().parent / "golden"
OCTA = str(GOLDEN / "octa.json")
ZERO_REP = {"space_dim": 1, "matrices": {v: [["0"]] for v in VERTICES}}


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
    rpath = tmp_path / "zero.json"
    rpath.write_text(json.dumps(ZERO_REP), encoding="utf-8")
    code, out, err = invoke(capsys, "composite-check", OCTA, "--rep", str(rpath))
    assert code == 0
    assert "result: PASS" in out


# -- exit code 1 = a check failed ---------------------------------------------


def test_broken_rep_exits_one(tmp_path, capsys):
    rpath = tmp_path / "broken.json"
    data = json.loads((GOLDEN / "so4_1_1.json").read_text(encoding="utf-8"))
    doubled = so4_composite_rep(1, 1).matrix("A").scale(2).to_rows()
    data["matrices"]["A"] = [[format_scalar(x) for x in row] for row in doubled]
    rpath.write_text(json.dumps(data), encoding="utf-8")
    code, out, err = invoke(
        capsys, "composite-check", OCTA, "--rep", str(rpath), "--format", "json"
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
    rpath = tmp_path / "mixed.json"
    data = {"space_dim": 2, "matrices": {v: [["1/2i", "0"], ["0", "-1/2i"]] for v in VERTICES}}
    data["matrices"]["A"] = [[0.0, "1/2"], ["-1/2", "0"]]
    rpath.write_text(json.dumps(data), encoding="utf-8")
    code, out, err = invoke(capsys, "composite-check", OCTA, "--rep", str(rpath))
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
    rpath = tmp_path / "zero.json"
    rpath.write_text(json.dumps(ZERO_REP), encoding="utf-8")
    code, out, err = invoke(
        capsys, "composite-check", OCTA, "--rep", str(rpath), "--tolerance", tolerance
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


@pytest.mark.parametrize("expr", ["n^39", "10^160", "10^157/n", "1/10^200"])
def test_tail_probe_terms_outside_float_range_are_input_errors(capsys, expr):
    # n^39 and 10^160 square a term past float64, to inf, which the
    # block-sum range check refuses; 10^157/n overflows both block sums
    # and 1/10^200 underflows every term (each once a false FAIL, exit 1)
    start = time.perf_counter()
    code, out, err = invoke(capsys, "tail-equivalence", expr, "0", "--weight", "1/2")
    assert time.perf_counter() - start < 1
    assert code == 2
    assert err.startswith("error: ") and "float64 range" in err
    assert "Traceback" not in err
    assert out == ""


@pytest.mark.parametrize("expr", ["n^38", "10^154/n"])
def test_tail_probe_terms_inside_float_range_are_decided(capsys, expr):
    code, out, err = invoke(capsys, "tail-equivalence", expr, "0", "--weight", "1/2")
    assert code == 0
    assert "[  ok] numeric probe agreement" in out


def test_tail_probe_beyond_index_range_is_input_error(capsys):
    # a budget that admits the terms, so the probe's own range check refuses
    code, out, err = invoke(
        capsys, "tail-equivalence", "1/n", "0", "--weight", "1/2",
        "--truncation", str(10**20), "--max-work", str(10**20),
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


@pytest.mark.parametrize("first", ["h", "1/(n-h)"])
def test_tail_equivalence_difference_in_h_exits_two(capsys, first):
    code, out, err = invoke(capsys, "tail-equivalence", first, "0")
    assert code == 2
    assert err == "error: the difference must be a function of n alone; it depends on h\n"
    assert out == ""


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
    "expr",
    ["(n+1)^1000*(n+1)^1000", "(n+1)^500*(n+1)^500*(n+1)^500*(n+1)^500", "(n+h)^99*(n+h)^99*(n+h)^99"],
)
def test_product_of_powers_beyond_the_bound_exits_two(capsys, expr):
    # these took 7.1 s, 5.3 s and 0.74 s with every power inside its own
    # bound, before the bounds applied to each product and sum as well
    start = time.perf_counter()
    code, out, err = invoke(capsys, "tail-equivalence", expr, "0")
    assert time.perf_counter() - start < 1
    assert code == 2
    assert err.startswith("error: the result of '*' exceeds the power bound")
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


# strings that JSON must escape, or that look like the envelope's items entry
_TEXT = st.one_of(
    st.text(),
    st.sampled_from([
        '"items": [],', '  "items": []', "\\", '"', '\\"', "h\u00e9 \u4e2d \U0001d11e", "\x00\n\x1f\x7f\u2028",
    ]),
)
_OPTIONAL_TEXT = st.one_of(st.none(), _TEXT)
_ITEMS = st.builds(CheckItem, _TEXT, _TEXT, _OPTIONAL_TEXT, _OPTIONAL_TEXT, _OPTIONAL_TEXT)
_PARAMS = st.dictionaries(
    _TEXT, st.one_of(st.integers(), st.floats(), st.booleans(), _TEXT), max_size=4
)


@settings(max_examples=200)
@example("c", {"items": '"items": [],'}, [CheckItem("caf\u00e9", "pass", note="\u00e9")], ["\u00e9"])
@given(_TEXT, _PARAMS, st.lists(_ITEMS, max_size=5), st.lists(_TEXT, max_size=3))
def test_json_render_matches_json_dumps(command, params, items, notes):
    # the item template and the envelope splice give the bytes of the
    # json.dumps oracle, whatever the strings hold, for any item count
    report = CheckReport.build(command, params, items, notes)
    payload = {
        "schema": cli.SCHEMA_VERSION,
        "command": command,
        "params": params,
        "pass": report.passed,
        "notes": list(notes),
    }
    config = RunConfig(command="witt-verify", fmt="json")
    oracle = {**payload, "items": [item.to_dict() for item in report.items]}
    expected = json.dumps(oracle, indent=2, sort_keys=True) + "\n"
    assert cli._render(config, report, payload) == expected


def test_item_template_follows_to_dict():
    # every field set, each to its own value: a CheckItem field that
    # to_dict writes and the template does not know fails here
    item = CheckItem(*(f"field {i}" for i in range(len(CheckItem._fields))))
    assert [(key, item[i]) for key, i in cli._ITEM_KEYS] == sorted(item.to_dict().items())


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
        fields = {
            "command": argv[0], "fmt": "text", "output": None, "max_work": cli.DEFAULT_MAX_WORK,
            **fields,
        }
        assert {name: getattr(config, name) for name in fields} == fields, argv


# -- preflight work budget ----------------------------------------------------

# one point per command and its planned work, counted by hand
PLANNED = {
    # 2 * 4 * 3 in-half pairs and the cross-half probe, times degree 3
    ("witt-verify", "--max-index", "2"): 25 * 3,
    # 2 * (4 * 3 e-f pairs + 3 f-f pairs), times degree 3
    ("witt-extended", "--max-index", "2"): 30 * 3,
    # 2 * 5 adjoints times degree 3, and the zero-graded words over 6
    # letters: 2 of length 1, 3 * 4 of length 2, 7 * 8 of length 3
    ("witt-symmetry", "--max-index", "2", "--word-length", "3", "--index-bound", "1"): 30 + 70,
    # at a numeric weight the word check is skipped
    ("witt-symmetry", "--max-index", "2", "--index-bound", "1", "--weight", "1/2"): 30,
    ("witt-hs", "--index-bound", "6", "--truncation", "500"): 25 * 500,
    ("witt-closed", "--depth", "2", "--index-bound", "1"): 6**3 + 6**4,
    ("octa-demo", "--two-j1", "2", "--two-j2", "1"): 3 * 2,
    ("tail-equivalence", "n", "0", "--truncation", "1000"): 750,
    ("composite-check", OCTA): None,
}


def _config(*argv):
    return _config_from_args(build_parser().parse_args(list(argv)))


@pytest.mark.parametrize("argv", sorted(PLANNED))
def test_planned_work_per_command(argv):
    assert cli.planned_work(_config(*argv)) == PLANNED[argv]


@pytest.mark.parametrize("max_len, index_bound", [(3, 0), (4, 2), (5, 1), (3, 3)])
def test_zero_graded_words_match_the_walk(max_len, index_bound):
    walked = sum(1 for _, total, _ in _word_coefficients(max_len, index_bound) if total == 0)
    counted = sum(cli._zero_graded_words(n, index_bound) for n in range(1, max_len + 1))
    assert counted == walked


def test_planned_witt_closed_work_is_its_item_count():
    config = _config("witt-closed", "--depth", "2", "--index-bound", "1")
    assert cli.planned_work(config) == len(run(config)[1].items)


def test_growing_counts_stop_above_the_budget():
    # a count stops at the first level or word length that takes it above
    # the budget: that partial count is enough to refuse
    deep = _config("witt-closed", "--depth", "1000000000", "--max-work", "1000")
    assert cli.planned_work(deep) == 10**3 + 10**4
    long_words = _config("witt-symmetry", "--max-index", "1", "--word-length", "1000000000")
    words = [cli._zero_graded_words(n, 2) for n in range(1, 10)]  # 12 more: 2 * 3 adjoints * 2
    assert 12 + sum(words[:-1]) <= cli.DEFAULT_MAX_WORK < 12 + sum(words)
    assert cli.planned_work(long_words) == 12 + sum(words)
    exact = _config("witt-closed", "--depth", "3", "--index-bound", "1", "--max-work", str(10**6))
    assert cli.planned_work(exact) == 6**3 + 6**4 + 6**5


# inputs that hung or ran out of memory before the budget refused them
HANG_LIST = [
    ("witt-verify", "--max-index", "100000"),
    ("witt-closed", "--depth", "50", "--index-bound", "1"),
    ("witt-symmetry", "--max-index", "2", "--word-length", "100", "--index-bound", "1"),
    ("octa-demo", "--two-j1", "100000", "--two-j2", "100000"),
    ("witt-hs", "--index-bound", "6", "--weight", "1/2", "--truncation", "100000000"),
]


@pytest.mark.parametrize("argv", HANG_LIST)
def test_hang_list_is_refused_at_once(capsys, argv):
    start = time.perf_counter()
    code, out, err = invoke(capsys, *argv)
    assert time.perf_counter() - start < 1.0
    assert code == 2 and out == ""
    assert f"above --max-work {cli.DEFAULT_MAX_WORK}" in err


def test_budget_admits_work_equal_to_it(capsys):
    argv = ("witt-closed", "--depth", "1", "--index-bound", "1", "--max-work")
    assert invoke(capsys, *argv, "216")[0] == 0
    code, out, err = invoke(capsys, *argv, "215")
    assert code == 2
    assert err == "error: witt-closed plans at least 216 units of work, above --max-work 215\n"
    assert invoke(capsys, *argv, "-1")[0] == 2
