"""Batch front end: run named checks and emit stable reports.

Every subcommand assembles one report with the shared item vocabulary,
printed as text or as schema-versioned JSON (sorted keys, fixed item
order, so identical inputs give byte-identical output).  Exit codes:
0 all items pass, 1 at least one check failed, 2 usage or input error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from typing import NamedTuple

from .errors import DomainError, LibError
from .exact import parse as parse_expression
from .exact import parse_rational
from .findim import (
    check_compatibility,
    check_connected,
    check_dense,
    check_representation,
    load_composite,
    load_rep,
)
from .octa import (
    build_octahedron,
    extract_so4,
    killing_certificate,
    so4_composite_rep,
)
from .report import FAIL, INFO, PASS, CheckItem, CheckReport
from .verma import (
    check_absolutely_closed,
    check_absolutely_symmetric,
    check_extended_composite,
    check_hs_deviations,
    check_symmetric,
    check_witt_composite,
    tail_equivalence_report,
)

SCHEMA_VERSION = 1

SYMBOLIC = "symbolic"


class _RunFields(NamedTuple):
    command: str
    max_index: int = 1
    weight: Fraction | None = None  # None = keep the weight symbolic
    truncation: int = 500
    word_length: int = 3
    depth: int = 1
    index_bound: int = 2
    mode: str = "bracket"
    tolerance: float | None = None
    fmt: str = "text"
    output: str | None = None
    composite_path: str | None = None
    rep_path: str | None = None
    two_j1: int = 1
    two_j2: int = 1
    expressions: tuple = ()


class RunConfig(_RunFields):
    """One resolved invocation: the command plus every knob it may read."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        # max index and depth are range-checked by the checkers themselves
        if self.truncation < 1:
            raise DomainError("truncation must be at least 1")
        if self.word_length < 1:
            raise DomainError("word length must be at least 1")
        if self.index_bound < 1:
            raise DomainError("index bound must be at least 1")
        if self.weight is not None and self.weight <= 0:
            raise DomainError("numeric weight must be positive")
        return self


def _parse_weight(text: str | None) -> Fraction | None:
    if text is None or text == SYMBOLIC:
        return None
    return parse_rational(text)


def _weight_str(weight: Fraction | None) -> str:
    return SYMBOLIC if weight is None else str(weight)


def _require_numeric_weight(config: RunConfig) -> Fraction:
    if config.weight is None:
        raise DomainError(f"{config.command} needs a numeric weight, e.g. --weight 1/2")
    return config.weight


# -- handlers: each returns (params, reports, extra_items) -------------------


def _cmd_witt_pairs(config: RunConfig):
    # the checker is looked up by name on each call, so instrumentation
    # that patches module attributes (perfbench/tracing.py) sees it
    if config.command == "witt-verify":
        checker = check_witt_composite
    else:
        checker = check_extended_composite
    params = {"max_index": config.max_index, "weight": _weight_str(config.weight)}
    return params, [checker(config.max_index, config.weight)], []


def _cmd_witt_symmetry(config: RunConfig):
    params = {
        "max_index": config.max_index,
        "weight": _weight_str(config.weight),
        "word_length": config.word_length,
        "index_bound": config.index_bound,
    }
    reports = [check_symmetric(config.max_index, config.weight)]
    extra = []
    if config.weight is None:
        reports.append(check_absolutely_symmetric(config.word_length, config.index_bound))
    else:
        note = "needs the symbolic weight; skipped for a numeric one"
        extra.append(CheckItem(subject="absolute-symmetry word check", verdict=INFO, note=note))
    return params, reports, extra


def _cmd_witt_hs(config: RunConfig):
    weight = _require_numeric_weight(config)
    params = {
        "index_bound": config.index_bound,
        "weight": str(weight),
        "truncation": config.truncation,
    }
    report = check_hs_deviations(
        index_bound=config.index_bound, h0=weight, count=config.truncation
    )
    return params, [report], []


def _cmd_witt_closed(config: RunConfig):
    params = {
        "depth": config.depth,
        "index_bound": config.index_bound,
        "mode": config.mode,
        "weight": _weight_str(config.weight),
    }
    report = check_absolutely_closed(
        config.depth, config.index_bound, config.weight, mode=config.mode
    )
    return params, [report], []


def _shape_items(composite, prefix: str) -> list:
    """The density and connectedness items, each subject led by prefix."""
    return [
        CheckItem(subject=prefix + subject, verdict=PASS if check(composite) else FAIL)
        for check, subject in (
            (check_dense, "subspaces span the whole space"),
            (check_connected, "intersection graph is connected"),
        )
    ]


def _cmd_composite_check(config: RunConfig):
    composite = load_composite(config.composite_path)
    params = {"composite": config.composite_path}
    reports = [check_compatibility(composite)]
    extra = _shape_items(composite, "")
    if config.rep_path is not None:
        params["rep"] = config.rep_path
        if config.tolerance is not None:
            params["tolerance"] = config.tolerance
        rep = load_rep(config.rep_path)
        reports.append(check_representation(composite, rep, config.tolerance))
    return params, reports, extra


def _cmd_octa_demo(config: RunConfig):
    params = {"two_j1": config.two_j1, "two_j2": config.two_j2}
    octa = build_octahedron()
    extra = _shape_items(octa, "octahedron ")
    reports = [check_compatibility(octa), killing_certificate()]
    extraction = extract_so4(so4_composite_rep(config.two_j1, config.two_j2))
    reports += [extraction.precondition, extraction.verdict]
    return params, reports, extra


def _cmd_tail_equivalence(config: RunConfig):
    weight = _require_numeric_weight(config)
    first, second = config.expressions
    params = {
        "first": first,
        "second": second,
        "weight": str(weight),
        "truncation": config.truncation,
    }
    report = tail_equivalence_report(
        parse_expression(first), parse_expression(second), weight, probe_terms=config.truncation
    )
    return params, [report], []


# The command table: name -> (handler, help, arguments).  Each argument is
# one (flag, kwargs) pair for add_argument, whose dest is the RunConfig field
# it fills; build_parser adds the _COMMON arguments to every command.

_MAX_INDEX = ("--max-index", dict(type=int, required=True))
_WEIGHT_HELP = f'highest weight: a positive rational like "1/2", or "{SYMBOLIC}"'
_WEIGHT = ("--weight", dict(metavar="H", help=_WEIGHT_HELP))
_NUMERIC_WEIGHT = ("--weight", dict(metavar="H", default="1/2"))

COMMANDS = {
    "witt-verify": (_cmd_witt_pairs, "in-half pair deviations vanish", [_MAX_INDEX, _WEIGHT]),
    "witt-extended": (_cmd_witt_pairs, "both ladder families together", [_MAX_INDEX, _WEIGHT]),
    "witt-symmetry": (_cmd_witt_symmetry, "adjoint symmetry and word identities", [
        _MAX_INDEX,
        ("--word-length", dict(type=int, default=3)),
        ("--index-bound", dict(type=int, default=2)),
        _WEIGHT,
    ]),
    "witt-hs": (_cmd_witt_hs, "mixed-pair deviation classes and tail sums", [
        ("--index-bound", dict(type=int, default=6)),
        ("--truncation", dict(type=int, default=500)),
        _NUMERIC_WEIGHT,
    ]),
    "witt-closed": (_cmd_witt_closed, "iterated brackets stay close to the family", [
        ("--depth", dict(type=int, default=1)),
        ("--index-bound", dict(type=int, default=2)),
        ("--mode", dict(choices=("literal", "bracket"), default="bracket")),
        _WEIGHT,
    ]),
    "composite-check": (_cmd_composite_check, "axioms for a composite file", [
        ("composite_path", dict(metavar="COMPOSITE_JSON")),
        ("--rep", dict(dest="rep_path", metavar="REP_JSON")),
        ("--tolerance", dict(type=float)),
    ]),
    "octa-demo": (_cmd_octa_demo, "octahedron pipeline end to end", [
        ("--two-j1", dict(type=int, default=1)),
        ("--two-j2", dict(type=int, default=1)),
    ]),
    "tail-equivalence": (_cmd_tail_equivalence, "square-summable tail comparison", [
        ("expressions", dict(metavar="EXPR", nargs=2)),
        _NUMERIC_WEIGHT,
        ("--truncation", dict(type=int, default=10000)),
    ]),
}

_COMMON = [
    ("--format", dict(dest="fmt", choices=("text", "json"), default="text")),
    ("--output", dict(metavar="PATH", help="write the report to a file")),
]


def run(config: RunConfig):
    """Dispatch one config; returns (exit_code, CheckReport, payload dict),
    the payload without the items, which _render writes from the report."""
    params, reports, extra_items = COMMANDS[config.command][0](config)
    items = []
    notes = []
    for rep in reports:
        items.extend(rep.items)
        notes.extend(rep.notes)
    items.extend(extra_items)
    combined = CheckReport.build(config.command, params, items, tuple(notes))
    payload = {
        "schema": SCHEMA_VERSION,
        "command": config.command,
        "params": dict(combined.parameters),
        "pass": combined.passed,
        "notes": list(combined.notes),
    }
    return (0 if combined.passed else 1), combined, payload


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="liecomposite",
        description="exact checks for composite operator families",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text, arguments) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for flag, kwargs in arguments + _COMMON:
            p.add_argument(flag, **kwargs)
    return parser


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    fields = dict(vars(args))
    fields["weight"] = _parse_weight(fields.get("weight"))
    fields["expressions"] = tuple(fields.get("expressions", ()))
    return RunConfig(**fields)


# CheckItem.to_dict's keys in sorted order, each with its field position;
# None fields are left out, as to_dict leaves them out
_ITEM_KEYS = (("class", 2), ("note", 4), ("residual", 3), ("subject", 0), ("verdict", 1))
_ITEM_PREFIXES = tuple((f'"{key}": ', i) for key, i in _ITEM_KEYS)


def _render_item(item: CheckItem) -> str:
    fields = [prefix + encode_basestring_ascii(item[i]) for prefix, i in _ITEM_PREFIXES if item[i] is not None]
    return "    {\n      " + ",\n      ".join(fields) + "\n    }"


def _render(config: RunConfig, report: CheckReport, payload: dict) -> str:
    """The report as text, or as JSON with the bytes of json.dumps of the
    payload plus the items' to_dict() (indent=2, sort_keys=True); the items
    are spliced into the envelope's "items": [] (an encoded string holds no
    bare quote, so that text is unique) through one fixed template each."""
    if config.fmt != "json":
        return report.to_text() + "\n"
    envelope = json.dumps({**payload, "items": []}, indent=2, sort_keys=True)
    if report.items:
        block = ",\n".join(map(_render_item, report.items))
        envelope = envelope.replace('"items": []', '"items": [\n' + block + "\n  ]", 1)
    return envelope + "\n"


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse already printed the usage message
        return int(exc.code or 0)
    try:
        config = _config_from_args(args)
        code, report, payload = run(config)
    except (LibError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    text = _render(config, report, payload)
    if config.output is not None:
        try:
            with open(config.output, "w", encoding="utf-8") as handle:
                handle.write(text)
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    else:
        try:
            sys.stdout.write(text)
            sys.stdout.flush()
        except BrokenPipeError:
            # the reader closed the pipe; send the exit-time flush to
            # devnull so it does not raise a second time
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return code


if __name__ == "__main__":
    sys.exit(main())
