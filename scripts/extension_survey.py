#!/usr/bin/env python3
"""Survey extension branches for a panel of polynomials.

For each (base, polynomial) pair this enumerates the branches of the
augmentation tree and prints one row per branch with its certification
status and invariants.  Optionally dumps each tree in DOT format.

    python3 scripts/extension_survey.py
    python3 scripts/extension_survey.py --base Fpt --p 2 --poly "x^2+x+1/t"
"""

import argparse
from dataclasses import dataclass
from pathlib import Path

from maclane import BaseField, enumerate_extensions, parse_polynomial

DEFAULT_PANEL = [
    ("Q", 5, "x^2+1"),
    ("Q", 3, "x^2+1"),
    ("Q", 2, "x^2+2"),
    ("Q", 3, "x^2+7"),
    ("Q", 2, "x^4+2*x^3+4*x^2+4*x+2"),
    ("Fpt", 2, "x^2+x+t"),
    ("Fpt", 2, "x^2+x+1/t"),
    ("Fpt", 2, "x^2+x+1/t^2"),
    ("Fpt", 3, "x^3+2*x+2*t"),
]


@dataclass
class SurveyConfig:
    panel: list
    dot_dir: Path | None = None


def run(config: SurveyConfig):
    for idx, (kind, p, text) in enumerate(config.panel):
        base = BaseField.of(kind, p)
        f = parse_polynomial(base, text)
        survey = enumerate_extensions(base, f)
        print(f"\n{f}  over {base}   branches={len(survey.reports)}")
        for r in survey.reports:
            cert = "certified" if r.terminal else "lower bound"
            print(f"  e={r.e} f={r.f} rounds={r.rounds} {r.reason:<16} "
                  f"({cert})  {r.chain}")
        total = sum(r.e * r.f for r in survey.reports)
        print(f"  sum e*f = {total} (deg = {f.degree()})")
        if config.dot_dir is not None:
            config.dot_dir.mkdir(parents=True, exist_ok=True)
            path = config.dot_dir / f"tree_{idx:02d}.dot"
            path.write_text(survey.tree.to_dot())
            print(f"  wrote {path}")


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--base", choices=["Q", "Fpt"])
    ap.add_argument("--p", type=int, default=2)
    ap.add_argument("--poly")
    ap.add_argument("--dot-dir", type=Path, default=None)
    args = ap.parse_args()
    if args.poly:
        panel = [(args.base or "Q", args.p, args.poly)]
    else:
        panel = DEFAULT_PANEL
    run(SurveyConfig(panel=panel, dot_dir=args.dot_dir))


if __name__ == "__main__":
    main()
