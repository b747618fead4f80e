"""Every function and method of the package is reached from the command line.

One fresh process runs every golden case, in text and in JSON, under
``sys.setprofile``: a fresh process, so that caches warmed by other tests
cannot hide a call.  A non-dunder function or method that no run enters
fails the test unless ALLOWED_UNREACHED names it with its reason; an
entry that is reached, or that no longer exists, fails it too.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import liecomposite
from test_golden import CASES, ROOT

PACKAGE = Path(liecomposite.__file__).resolve().parent

TRACED = "perfbench/tracing.py wraps it by name; it goes with ROADMAP item 3"
COMMUTANT = (
    "the commutant route, extract_so4's fallback for a rep the so(4) Casimirs do not"
    " decompose, which no command builds; it waits for ROADMAP items 19 and 8"
)

# Functions no command calls, each with the reason it stays.
ALLOWED_UNREACHED = {
    "findim.SubspaceAlgebra.bracket_coords": TRACED,
    "findim._commutant_rows": COMMUTANT,
    "findim._cyclic_nullity": COMMUTANT,
    "findim.commutant_dimension": COMMUTANT,
    "linalg._pivot_mod_p": COMMUTANT,
    "linalg.column_span_contains": TRACED,
    "linalg.kron": TRACED,
    "linalg.mat_add": TRACED,
    "linalg.mat_trace": TRACED,
    "linalg.nullspace": TRACED,
    "linalg.rank_mod_p": COMMUTANT,
    "linalg.rref": TRACED,
    "linalg.solve_columns": TRACED,
    "report.CheckItem.to_dict": TRACED,
    "report.CheckReport.failures": (
        "extract_so4 counts the failed face brackets of a rep that is no"
        " representation, and octa-demo builds only representations"
    ),
    "report.CheckReport.to_dict": (
        "a report as data for library callers; the CLI renders its own"
        " template, which tests check against json.dumps of the items"
    ),
    "shiftop.ShiftOperator.compose": TRACED,
    "shiftop.ShiftOperator.truncate_numeric": TRACED,
    "verma.tail_square_equivalence": TRACED,
    "verma.tail_square_probe": TRACED,
}

# Records the (file name, first line) of every package code object entered
# while the argv lists read from stdin run through the CLI.
PROBE = """
import contextlib, io, json, sys
entered = set()
sys.setprofile(lambda frame, event, arg: event == "call" and entered.add(frame.f_code))
from liecomposite.cli import main
for argv in json.load(sys.stdin):
    with contextlib.redirect_stdout(io.StringIO()):
        main(argv)
sys.setprofile(None)
package = sys.argv[1]
print(json.dumps(sorted(
    (c.co_filename[len(package) + 1:], c.co_firstlineno)
    for c in entered if c.co_filename.startswith(package)
)))
"""


def definitions() -> dict:
    """{(file name, first line): "module.name"} of every module-level
    function and class method of the package, dunders aside.  A decorated
    function's code starts at its first decorator."""
    found = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            scope = [(node, "")]
            if isinstance(node, ast.ClassDef):
                scope = [(child, f"{node.name}.") for child in node.body]
            for fn, prefix in scope:
                if not isinstance(fn, ast.FunctionDef) or (
                    fn.name.startswith("__") and fn.name.endswith("__")
                ):
                    continue
                first = min([fn.lineno] + [d.lineno for d in fn.decorator_list])
                found[(path.name, first)] = f"{path.stem}.{prefix}{fn.name}"
    return found


def entered() -> set:
    """The (file name, first line) keys of the package code the corpus runs."""
    argvs = [argv + ["--format", fmt] for argv in CASES.values() for fmt in ("text", "json")]
    path = os.pathsep.join(filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", PROBE, str(PACKAGE)],
        input=json.dumps(argvs),
        capture_output=True,
        text=True,
        check=True,
        cwd=ROOT,
        env={**os.environ, "PYTHONPATH": path},
    )
    return {tuple(key) for key in json.loads(result.stdout)}


def test_every_function_is_reached_or_allowed():
    defined, reached = definitions(), entered()
    unreached = {name for key, name in defined.items() if key not in reached}
    assert sorted(unreached - set(ALLOWED_UNREACHED)) == [], "no command reaches these"
    stale = set(ALLOWED_UNREACHED) - unreached
    assert sorted(stale) == [], "allowed but reached, or no longer defined"
    assert all(reason.strip() for reason in ALLOWED_UNREACHED.values())
