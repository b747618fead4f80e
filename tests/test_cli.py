"""Exit codes, report schema and determinism of the batch front end."""

import json
from fractions import Fraction

import pytest

from liecomposite.cli import RunConfig, build_parser, main, run
from liecomposite.errors import DomainError
from liecomposite.findim import FinDimRep, save_composite, save_rep
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


def test_missing_file_exits_two(tmp_path, capsys):
    code, out, err = invoke(capsys, "composite-check", str(tmp_path / "nope.json"))
    assert code == 2
    assert "error:" in err


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
