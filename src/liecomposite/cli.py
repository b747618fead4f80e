"""Batch front end: run named checks and emit stable reports.

Every subcommand assembles one report with the shared item vocabulary,
printed as text or as schema-versioned JSON (sorted keys, fixed item
order, so identical inputs give byte-identical output).  Exit codes:
0 all items pass, 1 at least one check failed, 2 usage or input error.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from fractions import Fraction

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


@dataclass(frozen=True)
class RunConfig:
    """One resolved invocation: the command plus every knob it may read."""

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

    def __post_init__(self):
        # max index and depth are range-checked by the checkers themselves
        if self.truncation < 1:
            raise DomainError("truncation must be at least 1")
        if self.word_length < 1:
            raise DomainError("word length must be at least 1")
        if self.index_bound < 1:
            raise DomainError("index bound must be at least 1")
        if self.weight is not None and self.weight <= 0:
            raise DomainError("numeric weight must be positive")


def _parse_weight(text: str | None) -> Fraction | None:
    if text is None or text == SYMBOLIC:
        return None
    return parse_rational(text)


def _weight_str(weight: Fraction | None) -> str:
    return SYMBOLIC if weight is None else str(weight)


def _require_numeric_weight(config: RunConfig) -> Fraction:
    if config.weight is None:
        raise DomainError(
            f"{config.command} needs a numeric weight, e.g. --weight 1/2"
        )
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
        reports.append(
            check_absolutely_symmetric(config.word_length, config.index_bound, None)
        )
    else:
        extra.append(
            CheckItem(
                subject="absolute-symmetry word check",
                verdict=INFO,
                note="needs the symbolic weight; skipped for a numeric one",
            )
        )
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


def _cmd_composite_check(config: RunConfig):
    composite = load_composite(config.composite_path)
    params = {"composite": config.composite_path}
    reports = [check_compatibility(composite)]
    extra = [
        CheckItem(
            subject="subspaces span the whole space",
            verdict=PASS if check_dense(composite) else FAIL,
        ),
        CheckItem(
            subject="intersection graph is connected",
            verdict=PASS if check_connected(composite) else FAIL,
        ),
    ]
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
    extra = [
        CheckItem(
            subject="octahedron subspaces span the whole space",
            verdict=PASS if check_dense(octa) else FAIL,
        ),
        CheckItem(
            subject="octahedron intersection graph is connected",
            verdict=PASS if check_connected(octa) else FAIL,
        ),
    ]
    reports = [check_compatibility(octa), killing_certificate()]
    rep = so4_composite_rep(config.two_j1, config.two_j2)
    reports.append(check_representation(octa, rep))
    extraction = extract_so4(rep)
    reports.append(extraction.verdict)
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
        parse_expression(first),
        parse_expression(second),
        weight,
        probe_terms=config.truncation,
    )
    return params, [report], []


_HANDLERS = {
    "witt-verify": _cmd_witt_pairs,
    "witt-extended": _cmd_witt_pairs,
    "witt-symmetry": _cmd_witt_symmetry,
    "witt-hs": _cmd_witt_hs,
    "witt-closed": _cmd_witt_closed,
    "composite-check": _cmd_composite_check,
    "octa-demo": _cmd_octa_demo,
    "tail-equivalence": _cmd_tail_equivalence,
}


def run(config: RunConfig):
    """Dispatch one config; returns (exit_code, CheckReport, payload dict)."""
    params, reports, extra_items = _HANDLERS[config.command](config)
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
        "items": [item.to_dict() for item in combined.items],
        "notes": list(combined.notes),
    }
    return (0 if combined.passed else 1), combined, payload


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="liecomposite",
        description="exact checks for composite operator families",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--format", choices=("text", "json"), default="text")
        p.add_argument("--output", metavar="PATH", help="write the report to a file")

    def weighted(p):
        p.add_argument(
            "--weight",
            metavar="H",
            help=f'highest weight: a positive rational like "1/2", or "{SYMBOLIC}"',
        )

    p = sub.add_parser("witt-verify", help="in-half pair deviations vanish")
    p.add_argument("--max-index", type=int, required=True)
    weighted(p)
    common(p)

    p = sub.add_parser("witt-extended", help="both ladder families together")
    p.add_argument("--max-index", type=int, required=True)
    weighted(p)
    common(p)

    p = sub.add_parser("witt-symmetry", help="adjoint symmetry and word identities")
    p.add_argument("--max-index", type=int, required=True)
    p.add_argument("--word-length", type=int, default=3)
    p.add_argument("--index-bound", type=int, default=2)
    weighted(p)
    common(p)

    p = sub.add_parser("witt-hs", help="mixed-pair deviation classes and tail sums")
    p.add_argument("--index-bound", type=int, default=6)
    p.add_argument("--truncation", type=int, default=500)
    p.add_argument("--weight", metavar="H", default="1/2")
    common(p)

    p = sub.add_parser("witt-closed", help="iterated brackets stay close to the family")
    p.add_argument("--depth", type=int, default=1)
    p.add_argument("--index-bound", type=int, default=2)
    p.add_argument("--mode", choices=("literal", "bracket"), default="bracket")
    weighted(p)
    common(p)

    p = sub.add_parser("composite-check", help="axioms for a composite file")
    p.add_argument("composite", metavar="COMPOSITE_JSON")
    p.add_argument("--rep", metavar="REP_JSON")
    p.add_argument("--tolerance", type=float)
    common(p)

    p = sub.add_parser("octa-demo", help="octahedron pipeline end to end")
    p.add_argument("--two-j1", type=int, default=1)
    p.add_argument("--two-j2", type=int, default=1)
    common(p)

    p = sub.add_parser("tail-equivalence", help="square-summable tail comparison")
    p.add_argument("expressions", metavar="EXPR", nargs=2)
    p.add_argument("--weight", metavar="H", default="1/2")
    p.add_argument("--truncation", type=int, default=10000)
    common(p)

    return parser


# argparse dests that are renamed or converted on the way into RunConfig:
# dest -> (field, converter).  Every other dest is the field of that name.
_ARG_FIELDS = {
    "format": ("fmt", None),
    "weight": ("weight", _parse_weight),
    "composite": ("composite_path", None),
    "rep": ("rep_path", None),
    "expressions": ("expressions", tuple),
}


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    fields = {}
    for dest, value in vars(args).items():
        field, convert = _ARG_FIELDS.get(dest, (dest, None))
        fields[field] = value if convert is None else convert(value)
    return RunConfig(**fields)


def _render(config: RunConfig, report: CheckReport, payload: dict) -> str:
    if config.fmt == "json":
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"
    return report.to_text() + "\n"


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse already printed the usage message
        return int(exc.code or 0)
    try:
        config = _config_from_args(args)
        code, report, payload = run(config)
    except LibError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
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
        sys.stdout.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
