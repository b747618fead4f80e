"""Structured pass/fail reports shared by the checkers and the CLI.

A report is a named list of items, each carrying a subject, a verdict and
optional detail fields. Serialization order is fixed by construction order
so that identical inputs yield byte-identical JSON.
"""

from __future__ import annotations

from typing import NamedTuple

PASS = "pass"
FAIL = "fail"
INFO = "info"


class CheckItem(NamedTuple):
    subject: str
    verdict: str  # PASS, FAIL or INFO
    operator_class: str | None = None
    residual: str | None = None
    note: str | None = None

    def to_dict(self) -> dict:
        out = {"subject": self.subject, "verdict": self.verdict}
        if self.operator_class is not None:
            out["class"] = self.operator_class
        if self.residual is not None:
            out["residual"] = self.residual
        if self.note is not None:
            out["note"] = self.note
        return out


class CheckReport(NamedTuple):
    name: str
    parameters: tuple[tuple[str, object], ...]
    items: tuple[CheckItem, ...]
    notes: tuple[str, ...] = ()

    @classmethod
    def build(cls, name: str, parameters: dict, items, notes=()) -> "CheckReport":
        return cls(name, tuple(parameters.items()), tuple(items), tuple(notes))

    @property
    def passed(self) -> bool:
        return all(item.verdict != FAIL for item in self.items)

    def failures(self) -> list[CheckItem]:
        return [item for item in self.items if item.verdict == FAIL]

    def to_dict(self) -> dict:
        return {
            "check": self.name,
            "parameters": {k: v for k, v in self.parameters},
            "pass": self.passed,
            "items": [item.to_dict() for item in self.items],
            "notes": list(self.notes),
        }

    def to_text(self) -> str:
        lines = [f"check: {self.name}"]
        if self.parameters:
            rendered = ", ".join(f"{k}={v}" for k, v in self.parameters)
            lines.append(f"parameters: {rendered}")
        for item in self.items:
            mark = {PASS: "ok", FAIL: "FAIL", INFO: "--"}.get(item.verdict, "??")
            extra = []
            if item.operator_class is not None:
                extra.append(f"class={item.operator_class}")
            if item.residual is not None:
                extra.append(f"residual={item.residual}")
            if item.note is not None:
                extra.append(item.note)
            tail = ("  " + "; ".join(extra)) if extra else ""
            lines.append(f"  [{mark:>4}] {item.subject}{tail}")
        for note in self.notes:
            lines.append(f"note: {note}")
        lines.append(f"result: {'PASS' if self.passed else 'FAIL'}")
        return "\n".join(lines)
