"""Golden corpus: every command's text and JSON report, byte for byte.

Each case runs the CLI at a small point from the repository root (so the
composite-check params carry a fixed relative path) and compares stdout
with the files under tests/golden/.  Regenerate after an intended report
change with ``PYTHONPATH=src python3 tests/test_golden.py``.
"""

import contextlib
import io
import os
from pathlib import Path

import pytest

from liecomposite.cli import main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden"

CASES = {
    "witt-verify-3": ["witt-verify", "--max-index", "3"],
    "witt-verify-2-w3": ["witt-verify", "--max-index", "2", "--weight", "3"],
    "witt-extended-2": ["witt-extended", "--max-index", "2"],
    "witt-symmetry-2-3-1": [
        "witt-symmetry", "--max-index", "2", "--word-length", "3", "--index-bound", "1",
    ],
    "witt-symmetry-2-w1_2": ["witt-symmetry", "--max-index", "2", "--weight", "1/2"],
    "witt-hs-3-50": [
        "witt-hs", "--index-bound", "3", "--truncation", "50", "--weight", "1/2",
    ],
    "witt-closed-1-1-bracket": [
        "witt-closed", "--depth", "1", "--index-bound", "1", "--mode", "bracket",
    ],
    # the literal reading fails by design: the table bracket is often nonzero
    "witt-closed-1-1-literal": [
        "witt-closed", "--depth", "1", "--index-bound", "1", "--mode", "literal",
    ],
    "composite-check-octa-so4_1_1": [
        "composite-check", "tests/golden/octa.json", "--rep", "tests/golden/so4_1_1.json",
    ],
    "octa-demo-1-1": ["octa-demo", "--two-j1", "1", "--two-j2", "1"],
    "tail-equivalence-readme": [
        "tail-equivalence", "(n+1)/(n+2)", "(n+1)/(n+2) + 1/n",
        "--weight", "1/2", "--truncation", "1000",
    ],
}


EXIT_CODES = {"witt-closed-1-1-literal": 1}


def _render(argv):
    """Run one CLI invocation from the repository root; return (exit code, stdout)."""
    saved_cwd = os.getcwd()
    buffer = io.StringIO()
    try:
        os.chdir(ROOT)
        with contextlib.redirect_stdout(buffer):
            code = main(argv)
    finally:
        os.chdir(saved_cwd)
    return code, buffer.getvalue()


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("name", sorted(CASES))
def test_report_bytes_match_golden(name, fmt):
    code, out = _render(CASES[name] + ["--format", fmt])
    assert code == EXIT_CODES.get(name, 0)
    expected = (GOLDEN / f"{name}.{'txt' if fmt == 'text' else 'json'}").read_text(
        encoding="utf-8"
    )
    assert out == expected


def _regenerate():
    from liecomposite.findim import save_composite, save_rep
    from liecomposite.octa import build_octahedron, so4_composite_rep

    GOLDEN.mkdir(exist_ok=True)
    save_composite(build_octahedron(), str(GOLDEN / "octa.json"))
    save_rep(so4_composite_rep(1, 1), str(GOLDEN / "so4_1_1.json"))
    for name, argv in CASES.items():
        for fmt, ext in (("text", "txt"), ("json", "json")):
            code, out = _render(argv + ["--format", fmt])
            if code != EXIT_CODES.get(name, 0):
                raise SystemExit(f"{name} exited {code}")
            (GOLDEN / f"{name}.{ext}").write_text(out, encoding="utf-8")


if __name__ == "__main__":
    _regenerate()
