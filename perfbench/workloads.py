"""Workload definitions and the output check of the liecomposite benchmark.

A workload is a fixed list of CLI commands that one child process runs in
order, each with ``--format json``.  The inputs do not depend on the
benchmark seed (see RATIONALE.md): every workload is a fixed parameter
point whose report bytes were recorded in ``reference.json``.
"""

from __future__ import annotations

import json
from pathlib import Path

# Each repetition takes 1.5-4 s on a 2-vCPU machine, so a 40 s run holds
# ten or more; single repetitions there vary by up to 20%, and only a
# median over many of them is steady from run to run.
WORKLOADS = {
    "closure": (
        ("witt-closed", "--depth", "1", "--index-bound", "2", "--mode", "bracket"),
    ),
    "octa": (
        ("octa-demo", "--two-j1", "2", "--two-j2", "1"),
    ),
    "ladder-batch": (
        ("witt-verify", "--max-index", "5"),
        ("witt-extended", "--max-index", "4"),
        ("witt-symmetry", "--max-index", "4", "--word-length", "4", "--index-bound", "2"),
        ("witt-hs", "--index-bound", "6", "--truncation", "500", "--weight", "1/2"),
        ("tail-equivalence", "(n+1)/(n+2)", "(n+1)/(n+2) + 1/n",
         "--weight", "1/2", "--truncation", "1000000"),
    ),
}

# Small-parameter versions of the same command lists, used by the
# self-tests; they take under a second each.
SMALL_WORKLOADS = {
    "closure": (
        ("witt-closed", "--depth", "1", "--index-bound", "1", "--mode", "bracket"),
    ),
    "octa": (
        ("octa-demo", "--two-j1", "1", "--two-j2", "1"),
    ),
    "ladder-batch": (
        ("witt-verify", "--max-index", "3"),
        ("witt-extended", "--max-index", "2"),
        ("witt-symmetry", "--max-index", "2", "--word-length", "3", "--index-bound", "1"),
        ("witt-hs", "--index-bound", "3", "--truncation", "50", "--weight", "1/2"),
        ("tail-equivalence", "(n+1)/(n+2)", "(n+1)/(n+2) + 1/n",
         "--weight", "1/2", "--truncation", "1000"),
    ),
}

# Whether a workload's inputs change with --seed.  None do: each is a
# fixed parameter point, so its report bytes can be checked exactly.
SEED_DEPENDENT = {name: False for name in WORKLOADS}

REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"


def command_lines(workload: str, small: bool = False):
    """The argv lists a workload runs, each asking for the JSON report."""
    table = SMALL_WORKLOADS if small else WORKLOADS
    return [list(argv) + ["--format", "json"] for argv in table[workload]]


def load_reference(path: Path = REFERENCE_PATH) -> dict:
    """Expected outcome per command of every full-size workload."""
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)["workloads"]


def check_outcomes(expected: list, outcomes: list) -> list:
    """Problems found comparing one run's command outcomes with the reference.

    Each outcome and each expected entry is a dict with ``exit``, ``items``,
    ``verdicts`` (counts per verdict) and ``sha256`` of the JSON report.
    An empty list means the run is correct.
    """
    if len(outcomes) != len(expected):
        return [f"ran {len(outcomes)} commands, expected {len(expected)}"]
    problems = []
    for want, got in zip(expected, outcomes):
        name = want["command"]
        if got["exit"] != 0:
            problems.append(f"{name}: exit code {got['exit']}")
        if got["items"] != want["items"]:
            problems.append(f"{name}: {got['items']} items, expected {want['items']}")
        if got["verdicts"] != want["verdicts"]:
            problems.append(f"{name}: verdicts {got['verdicts']}, expected {want['verdicts']}")
        if got["sha256"] != want["sha256"]:
            problems.append(f"{name}: report sha256 differs from the reference")
    return problems
