"""Golden corpus: every command's text and JSON report, byte for byte.

Each case runs the CLI at a small point from the repository root (so the
composite-check params carry a fixed relative path) and compares stdout
with the files under tests/golden/.  Regenerate after an intended report
change with ``PYTHONPATH=src python3 tests/test_golden.py``.
"""

import contextlib
import hashlib
import io
import json
import os
from pathlib import Path

import pytest

from liecomposite import cli, exact, verma
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
    # the parameter point of the benchmark's ladder-batch workload
    "witt-hs-6-500": [
        "witt-hs", "--index-bound", "6", "--truncation", "500", "--weight", "1/2",
    ],
    # a generic weight, where the tail fractions are nonzero floats
    "witt-hs-4-300-w5_7": [
        "witt-hs", "--index-bound", "4", "--truncation", "300", "--weight", "5/7",
    ],
    # all 25 deviations at a generic weight, and an integer weight
    "witt-hs-6-500-w5_7": [
        "witt-hs", "--index-bound", "6", "--truncation", "500", "--weight", "5/7",
    ],
    "witt-hs-4-300-w3": [
        "witt-hs", "--index-bound", "4", "--truncation", "300", "--weight", "3",
    ],
    "witt-closed-1-1-bracket": [
        "witt-closed", "--depth", "1", "--index-bound", "1", "--mode", "bracket",
    ],
    # the literal reading fails by design: the table bracket is often nonzero
    "witt-closed-1-1-literal": [
        "witt-closed", "--depth", "1", "--index-bound", "1", "--mode", "literal",
    ],
    # nested commutators two deep, and the parameter point of the
    # benchmark's closure workload in both modes and at a numeric weight
    "witt-closed-2-1-bracket": [
        "witt-closed", "--depth", "2", "--index-bound", "1", "--mode", "bracket",
    ],
    "witt-closed-1-2-literal": [
        "witt-closed", "--depth", "1", "--index-bound", "2", "--mode", "literal",
    ],
    "witt-closed-1-2-w5_7": [
        "witt-closed", "--depth", "1", "--index-bound", "2", "--weight", "5/7",
    ],
    "composite-check-octa-so4_1_1": [
        "composite-check", "tests/golden/octa.json", "--rep", "tests/golden/so4_1_1.json",
    ],
    # a float rep on the tolerance path, an exact rep with one wrong
    # entry, and exact entries read under an explicit tolerance
    "composite-check-octa-so4_1_1-float": [
        "composite-check", "tests/golden/octa.json", "--rep", "tests/golden/so4_1_1_float.json",
    ],
    "composite-check-octa-so4_1_1-broken": [
        "composite-check", "tests/golden/octa.json", "--rep", "tests/golden/so4_1_1_broken.json",
    ],
    "composite-check-octa-so4_1_1-tolerance": [
        "composite-check", "tests/golden/octa.json", "--rep", "tests/golden/so4_1_1.json",
        "--tolerance", "1e-6",
    ],
    # two subspaces with Gaussian-rational bases whose brackets clash on a
    # 2-dimensional intersection: the note prints the intersection basis
    "composite-check-gaussian-clash": ["composite-check", "tests/golden/gaussian_clash.json"],
    "octa-demo-1-1": ["octa-demo", "--two-j1", "1", "--two-j2", "1"],
    # the parameter point of the benchmark's octa workload
    "octa-demo-2-1": ["octa-demo", "--two-j1", "2", "--two-j2", "1"],
    "octa-demo-2-2": ["octa-demo", "--two-j1", "2", "--two-j2", "2"],
    # a 16-dimensional rep, where the commutant is the bulk of the work
    "octa-demo-3-3": ["octa-demo", "--two-j1", "3", "--two-j2", "3"],
    # T(A) = -T(F) here, so the shifted span is 3-dimensional
    "octa-demo-1-0": ["octa-demo", "--two-j1", "1", "--two-j2", "0"],
    # m = 81: the largest irreducible the corpus pins; its report has the
    # same 44 items as every other point
    "octa-demo-8-8": ["octa-demo", "--two-j1", "8", "--two-j2", "8"],
    "tail-equivalence-readme": [
        "tail-equivalence", "(n+1)/(n+2)", "(n+1)/(n+2) + 1/n",
        "--weight", "1/2", "--truncation", "1000",
    ],
    # roots far out: the probe samples with a stride above 1
    "tail-equivalence-far-root": ["tail-equivalence", "(n-1000000)/(n^2+1)", "0"],
    # a difference of degree 3 over degree 5
    "tail-equivalence-cubic": [
        "tail-equivalence", "(n^3+2*n+1)/(n^4+3*n^2+5)", "1/(n+1)",
    ],
}


EXIT_CODES = {
    "witt-closed-1-1-literal": 1,
    "witt-closed-1-2-literal": 1,
    "composite-check-octa-so4_1_1-broken": 1,
    "composite-check-gaussian-clash": 1,
}

# so4_1_1 conjugated into a real basis: T -> S^-1 T S, with S the columns
# e0+e3, i(e0-e3), e1-e2, i(e1+e2).  The result is the vector
# representation of so(4), so every entry is 0 or +-1.
REAL_BASIS = [["1", "i", "0", "0"], ["0", "0", "1", "i"], ["0", "0", "-1", "i"], ["1", "-i", "0", "0"]]


@contextlib.contextmanager
def _at_root():
    """Work from the repository root, where the composite paths resolve."""
    saved_cwd = os.getcwd()
    os.chdir(ROOT)
    try:
        yield
    finally:
        os.chdir(saved_cwd)


def _render(argv):
    """Run one CLI invocation from the repository root; return (exit code, stdout)."""
    buffer = io.StringIO()
    with _at_root(), contextlib.redirect_stdout(buffer):
        code = main(argv)
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


# Reports too large to keep as files, pinned by the sha256 of their JSON
# bytes: the closed check at a larger index bound, and at the weights 3
# and 3/2, where witt-hs still refuses index bound 6 (ROADMAP item 5a)
DIGESTS = {
    "witt-closed-1-3": (
        ["witt-closed", "--depth", "1", "--index-bound", "3"],
        0,
        "e39e19c9fe6a63e2e28cdb61cb85925e6e537aaa650598fefa303c1d390b3ee1",
    ),
    "witt-closed-2-1-w3": (
        ["witt-closed", "--depth", "2", "--index-bound", "1", "--weight", "3"],
        0,
        "79f4e4cf22f864d8d5abae99d9438f38d7e4d9fbfbbee5b3c1e4dfbc50cac501",
    ),
    "witt-closed-1-2-w3_2-literal": (
        ["witt-closed", "--depth", "1", "--index-bound", "2", "--weight", "3/2", "--mode", "literal"],
        1,
        "6607bd572c60dbb38de901502f1f1689f6174cc8cba9470a1c52aee4eaf53eb0",
    ),
}


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_report_digests(name):
    argv, exit_code, digest = DIGESTS[name]
    code, out = _render(argv + ["--format", "json"])
    assert code == exit_code
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


@pytest.mark.parametrize("name", sorted(CASES) + sorted(DIGESTS))
def test_json_render_matches_json_dumps(name):
    # the item template against the json.dumps oracle on every pinned command
    argv = (CASES[name] if name in CASES else DIGESTS[name][0]) + ["--format", "json"]
    config = cli._config_from_args(cli.build_parser().parse_args(argv))
    with _at_root():
        code, report, payload = cli.run(config)
    oracle = {**payload, "items": [item.to_dict() for item in report.items]}
    expected = json.dumps(oracle, indent=2, sort_keys=True) + "\n"
    assert cli._render(config, report, payload) == expected


KERNELS = ("_bgcd", "_bmul", "_bshift", "_bdivexact", "_linear_factors")


def _clear_caches(kernels: bool):
    """Forget verma's memoized operators, so the next render computes them
    again, and with kernels=True also the Z[h][n] kernel caches."""
    for value in vars(verma).values():
        if hasattr(value, "cache_clear"):
            value.cache_clear()
    if kernels:
        for name in KERNELS:
            getattr(exact, name).cache_clear()


@pytest.mark.parametrize("name", ["witt-closed-1-2-literal", "witt-symmetry-2-3-1"])
def test_cold_and_warm_kernel_caches_give_the_golden_bytes(name):
    expected = (GOLDEN / f"{name}.json").read_text(encoding="utf-8")
    _clear_caches(kernels=True)
    assert _render(CASES[name] + ["--format", "json"]) == (EXIT_CODES.get(name, 0), expected)
    hits = sum(getattr(exact, k).cache_info().hits for k in KERNELS)
    _clear_caches(kernels=False)
    assert _render(CASES[name] + ["--format", "json"]) == (EXIT_CODES.get(name, 0), expected)
    assert sum(getattr(exact, k).cache_info().hits for k in KERNELS) > hits


def _derived_reps(rep):
    """The float and the broken copies of so4_1_1, as JSON data."""
    import random

    from liecomposite.findim import rep_to_data
    from liecomposite.linalg import GaussianRational as G, ZMatrix

    s = [[G.parse(x) for x in row] for row in REAL_BASIS]
    # the columns of S are orthogonal with squared norm 2: S^-1 = S^H / 2
    s_inv = [[G(s[j][i].re / 2, -s[j][i].im / 2) for j in range(4)] for i in range(4)]
    s, s_inv = ZMatrix.from_rows(s), ZMatrix.from_rows(s_inv)
    rng = random.Random(6)
    floats = {"space_dim": 4, "matrices": {}}
    for name, t in rep.matrices.items():
        real = (s_inv @ t @ s).to_rows()
        assert not any(isinstance(x, G) for row in real for x in row)
        floats["matrices"][name] = [
            [float(x) + rng.uniform(-1e-12, 1e-12) for x in row] for row in real
        ]
    broken = rep_to_data(rep)
    broken["matrices"]["A"][0][1] = "1/3"  # 1/2 in the exact rep
    return floats, broken


def _regenerate():
    import json

    from liecomposite.findim import save_composite, save_rep
    from liecomposite.octa import build_octahedron, so4_composite_rep

    GOLDEN.mkdir(exist_ok=True)
    save_composite(build_octahedron(), str(GOLDEN / "octa.json"))
    save_rep(so4_composite_rep(1, 1), str(GOLDEN / "so4_1_1.json"))
    for suffix, data in zip(("float", "broken"), _derived_reps(so4_composite_rep(1, 1))):
        with open(GOLDEN / f"so4_1_1_{suffix}.json", "w", encoding="utf-8") as fh:
            json.dump(data, fh, indent=2, sort_keys=True)
            fh.write("\n")
    for name, argv in CASES.items():
        for fmt, ext in (("text", "txt"), ("json", "json")):
            code, out = _render(argv + ["--format", fmt])
            if code != EXIT_CODES.get(name, 0):
                raise SystemExit(f"{name} exited {code}")
            (GOLDEN / f"{name}.{ext}").write_text(out, encoding="utf-8")


if __name__ == "__main__":
    _regenerate()
