"""Judges for one operation's outcome.  Each returns None when the output
is correct, else the kind of failure.

Two kinds are the open defect of the enumerator (extension branches dropped
on the shallower polygon sides, and the heuristic irreducibility screen):
they lower pass_ratio but are not counted in the result's `failed`, and
they leave its `correct` flag set.  Any other kind counts in `failed` and
clears `correct`.
"""

from __future__ import annotations

import json
from pathlib import Path

KNOWN_KINDS = frozenset(("missing-branches", "missed-rejection"))


def _judge_ef(expected, deg, ef, certified):
    """ef: list of (e, f) the program reported; expected: list or None."""
    total = sum(e * f for e, f in ef)
    if expected is None:
        return "missed-rejection"
    if not certified:
        # budget ran out: e and f are lower bounds
        return None if total <= deg else "wrong-answer"
    if sorted(ef) == sorted(map(tuple, expected)) and total == deg:
        return None
    return "missing-branches" if total < deg else "wrong-answer"


def judge_enum(case, outcome):
    """case: (base, p, text, expected); outcome: a survey or an exception."""
    expected = case[3]
    if isinstance(outcome, ValueError):
        return None if expected is None else "wrong-rejection"
    if isinstance(outcome, BaseException):
        return f"exception-{type(outcome).__name__}"
    deg = sum(e * f for e, f in expected) if expected is not None else 0
    ef = [(r.e, r.f) for r in outcome.reports]
    return _judge_ef(expected, deg, ef, all(r.terminal for r in outcome.reports))


AS_INVARIANTS = {"split-p": lambda p: (1, 1, p), "inert-p": lambda p: (1, p, 1),
                 "ramified-p": lambda p: (p, 1, 1)}


def judge_as(case, outcome):
    """case: (p, text, expected case, expected w or None for w > 0)."""
    p, _, expected, w = case
    if isinstance(outcome, BaseException):
        return f"exception-{type(outcome).__name__}"
    if outcome.case.value != expected:
        return "wrong-case"
    if (outcome.e, outcome.f, outcome.g) != AS_INVARIANTS[expected](p):
        return "wrong-invariants"
    if not (outcome.w > 0 if w is None else outcome.w == w):
        return "wrong-value"
    return None


class CliJudge:
    """Checks one CLI call against its schema and its expected fields."""

    def __init__(self, schema_dir: Path):
        import jsonschema

        self._validators = {
            path.name[: -len(".schema.json")]: jsonschema.Draft7Validator(json.loads(path.read_text()))
            for path in schema_dir.glob("*.schema.json")
        }

    def __call__(self, row, code, stdout, stderr):
        argv, want_code, fields = row
        if "Traceback" in stderr:
            return "traceback"
        if code == 3:
            return "exit-3"
        try:
            out = json.loads(stdout)
        except ValueError:
            return "bad-json"
        schema = "error" if code == 2 else argv[0]
        if code not in (0, 2) or not self._validators[schema].is_valid(out):
            return "schema"
        if code != want_code:
            if want_code == 2 and argv[0] == "extensions" and out.get("all_terminal"):
                return "missed-rejection"
            return "wrong-exit-code"
        if code == 2:
            return None if out["error"]["type"] == "ValueError" else "wrong-field"
        for key, want in fields.items():
            if key == "ef":
                ef = [(b["e"], b["f"]) for b in out["branches"]]
                kind = _judge_ef(want, fields["deg"], ef, out["all_terminal"])
                if kind:
                    return kind
            elif key == "sides":
                if [[s["slope"], s["length"]] for s in out["sides"]] != want:
                    return "wrong-field"
            elif key == "entries":
                got = sorted([e["key"], e["multiplicity"], e["proposed_value"]] for e in out["entries"])
                if got != want:
                    return "wrong-field"
            elif key != "deg" and out.get(key) != want:
                return "wrong-field"
        return None
