#!/usr/bin/env python3
"""Classify x^p - x - a for a grid of elements a = c * t^k.

Prints one row per input with the case, the invariants (e, f, g), the
number of witness improvements, and the maximum of S when it exists.

    python3 scripts/artin_schreier_survey.py --p 2 --kmin -6 --kmax 3
"""

import argparse
from dataclasses import dataclass

from maclane import ASCase, BaseField, classify, max_of_S, parse_element


@dataclass
class GridConfig:
    p: int = 2
    kmin: int = -6
    kmax: int = 3


def run(config: GridConfig):
    base = BaseField.rational_functions(config.p)
    print(f"x^{config.p} - x - a  over {base}")
    print(f"{'a':>12}  {'case':<20} {'e':>2} {'f':>2} {'g':>2} "
          f"{'impr':>4}  max(S)")
    for k in range(config.kmin, config.kmax + 1):
        if k == 0:
            text = "1"
        elif k == 1:
            text = "t"
        elif k == -1:
            text = "1/t"
        else:
            text = f"t^{k}" if k > 0 else f"1/t^{-k}"
        a = parse_element(base, text)
        r = classify(base, a)
        ms = "unbounded" if r.case is ASCase.SplitP else "{} at b={}".format(*max_of_S(r))
        print(f"{text:>12}  {r.case.value:<20} {r.e:>2} {r.f:>2} {r.g:>2} "
              f"{r.improvements:>4}  {ms}")


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--p", type=int, default=GridConfig.p)
    ap.add_argument("--kmin", type=int, default=GridConfig.kmin)
    ap.add_argument("--kmax", type=int, default=GridConfig.kmax)
    args = ap.parse_args()
    run(GridConfig(p=args.p, kmin=args.kmin, kmax=args.kmax))


if __name__ == "__main__":
    main()
