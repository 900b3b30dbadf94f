"""Structured premise/conclusion reports shared by all checkers.

A report lists named premise checks and named conclusion checks; the verdict
is a pure function of those: every failing premise short-circuits to
``premises_failed``, and a failing conclusion under passing premises is a
``THEOREM_VIOLATION`` (an implementation bug, since the conclusions are
proved from the premises). Reports serialize to the JSON report schema used
by the command line, and every serialized report names the convention
decisions in force.
"""

from __future__ import annotations

from typing import Any

from .fields import Record

PASS = "pass"
PREMISES_FAILED = "premises_failed"
THEOREM_VIOLATION = "THEOREM_VIOLATION"
ERROR = "error"

EXIT_CODES = {PASS: 0, PREMISES_FAILED: 1, ERROR: 2, THEOREM_VIOLATION: 3}

CONVENTIONS = {
    "lower_central_series":
        "two-sided: the next term is span(A*T + T*A)",
    "nilpotency_class":
        "class c means term c is nonzero and term c+1 is zero",
    "flag_generators":
        "the supplied generating elements; invariance under them already "
        "forces invariance under products",
    "bimodule_axioms":
        "the three product-compatibility identities; the right-right "
        "reduction is checked as a derived consequence",
    "lie_sets":
        "finite member lists compared by exact coordinates; default "
        "closure cap 1000 members",
}


class Check(Record):
    """One named check with an optional witness (on failure) and data."""

    __slots__ = ("name", "passed", "witness", "data")
    name: str
    passed: bool
    witness: Any
    data: Any

    def __init__(self, name: str, passed: bool, witness: Any = None,
                 data: Any = None):
        self.name = name
        self.passed = passed
        self.witness = witness
        self.data = data

    def to_json_dict(self) -> dict:
        out = {"name": self.name, "pass": self.passed}
        if self.witness is not None:
            out["witness"] = self.witness
        if self.data is not None:
            out["data"] = self.data
        return out


class Report(Record):
    __slots__ = ("premises", "conclusions", "data", "notes", "forced_verdict")
    premises: list
    conclusions: list
    data: dict
    notes: list
    forced_verdict: str | None

    def __init__(self, premises: list, conclusions: list,
                 data: dict | None = None, notes: list | None = None,
                 forced_verdict: str | None = None):
        self.premises = premises
        self.conclusions = conclusions
        self.data = {} if data is None else data
        self.notes = [] if notes is None else notes
        self.forced_verdict = forced_verdict

    @property
    def verdict(self) -> str:
        if self.forced_verdict is not None:
            return self.forced_verdict
        if any(not c.passed for c in self.premises):
            return PREMISES_FAILED
        if any(not c.passed for c in self.conclusions):
            return THEOREM_VIOLATION
        return PASS

    @property
    def exit_code(self) -> int:
        return EXIT_CODES[self.verdict]

    def to_json_dict(self, command: str, input_desc: Any) -> dict:
        return {
            "command": command,
            "input": input_desc,
            "premises": [c.to_json_dict() for c in self.premises],
            "conclusions": [c.to_json_dict() for c in self.conclusions],
            "verdict": self.verdict,
            "data": self.data,
            "notes": self.notes,
            "conventions": CONVENTIONS,
        }

    def render(self) -> str:
        lines = []
        for c in self.premises:
            mark = "PASS" if c.passed else "FAIL"
            extra = f"  witness: {c.witness}" if (c.witness is not None
                                                  and not c.passed) else ""
            lines.append(f"premise    {c.name}: {mark}{extra}")
        for c in self.conclusions:
            mark = "PASS" if c.passed else "FAIL"
            extra = f"  witness: {c.witness}" if (c.witness is not None
                                                  and not c.passed) else ""
            lines.append(f"conclusion {c.name}: {mark}{extra}")
        for key, value in self.data.items():
            if isinstance(value, list) and len(value) > 12:
                shown = ", ".join(str(v) for v in value[:4])
                lines.append(f"{key}: [{shown}, ... {len(value)} entries]")
            else:
                lines.append(f"{key}: {value}")
        for note in self.notes:
            lines.append(f"note: {note}")
        lines.append(f"verdict: {self.verdict}")
        return "\n".join(lines)


def error_report(message: str) -> "Report":
    """A report whose verdict is the reserved error state."""
    return Report(premises=[], conclusions=[], data={"error": message},
                  forced_verdict=ERROR)
