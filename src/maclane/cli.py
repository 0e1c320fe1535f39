"""Command line interface.

Every command prints a single JSON object to stdout, also on failure:
bad input exits 2 with {"error": {"type": "ValueError", ...}}, a broken
internal invariant exits 3.  Rationals are serialized as "a/b" strings and
infinity as "inf"; the only non-JSON outputs are the optional --svg and
--dot side files.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .base import INF, BaseField, InvariantError, format_value, parse_value
from .poly import Polynomial, parse_element, parse_polynomial, q_expansion
from .chains import MacLaneChain
from .newton import newton_polygon, polygon_svg
from . import approach as ap
from . import artin_schreier as ash


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _chain(args, base) -> MacLaneChain:
    return MacLaneChain.parse(base, args.chain)


def _stages(chain: MacLaneChain):
    return [[str(st.key), format_value(st.value)] for st in chain.stages]


def cmd_valuate(args, base):
    chain = _chain(args, base)
    f = parse_polynomial(base, args.poly)
    return {
        "base": str(base),
        "chain": str(chain),
        "poly": str(f),
        "value": format_value(chain.valuate(f)),
    }


def cmd_expand(args, base):
    f = parse_polynomial(base, args.poly)
    q = parse_polynomial(base, args.key)
    ex = q_expansion(f, q)
    return {
        "base": str(base),
        "poly": str(f),
        "key": str(q),
        "digits": [str(d) for d in ex.digits],
    }


def cmd_polygon(args, base):
    chain = _chain(args, base)
    f = parse_polynomial(base, args.poly)
    q = parse_polynomial(base, args.key)
    poly = newton_polygon(chain, q, f)
    if args.svg:
        with open(args.svg, "w") as fh:
            fh.write(polygon_svg(poly))
    out = {"base": str(base), "chain": str(chain), "poly": str(f), "key": str(q)}
    out.update(poly.to_json())
    return out


def cmd_augment(args, base):
    chain = _chain(args, base)
    q = parse_polynomial(base, args.key)
    alpha = parse_value(args.alpha)
    new = chain.augment(q, alpha)
    return {
        "base": str(base),
        "chain": str(new),
        "stages": _stages(new),
        "ramification_index": new.ramification_index(),
        "inertia_degree": new.inertia_degree(),
        "residue_field": repr(new.residue_constant_field()),
    }


def cmd_approach(args, base):
    chain = _chain(args, base)
    f = parse_polynomial(base, args.poly)
    value = chain.valuate(f)
    alpha1 = None
    if not chain.is_support() and value is not INF:
        try:
            if chain.divides_in_graded(chain.minimal_key(), f):
                alpha1 = format_value(ap.max_augmentation_value(chain, chain.minimal_key(), f))
        except ValueError:
            alpha1 = None
    return {
        "base": str(base),
        "chain": str(chain),
        "poly": str(f),
        "value": format_value(value),
        "in_vf": ap.in_VF(chain, f),
        "already_maximal": ap.already_maximal(chain, f),
        "alpha1": alpha1,
    }


def cmd_max_aug(args, base):
    chain = _chain(args, base)
    f = parse_polynomial(base, args.poly)
    q = parse_polynomial(base, args.key)
    return {
        "base": str(base),
        "chain": str(chain),
        "poly": str(f),
        "key": str(q),
        "alpha1": format_value(ap.max_augmentation_value(chain, q, f)),
    }


def cmd_factor(args, base):
    chain = _chain(args, base)
    f = parse_polynomial(base, args.poly)
    out = {"base": str(base), "chain": str(chain), "poly": str(f)}
    out.update(ap.graded_factorization(chain, f).to_json())
    return out


def cmd_extensions(args, base):
    f = parse_polynomial(base, args.poly)
    survey = ap.enumerate_extensions(base, f)
    if args.dot:
        with open(args.dot, "w") as fh:
            fh.write(survey.tree.to_dot())
    return survey.to_json()


def cmd_artin_schreier(args, base):
    return ash.classify(base, parse_element(base, args.poly)).to_json()


def build_parser() -> _Parser:
    parser = _Parser(prog="maclane", description=__doc__)
    common = _Parser(add_help=False)
    common.add_argument("--base", choices=["Q", "Fpt"], default="Q",
                        help="rationals with the p-adic value, or F_p(t) with the t-adic one")
    common.add_argument("--p", type=int, default=2, help="the prime (default 2)")
    common.add_argument("--chain", default="x:0",
                        help='augmentation chain "phi:lambda; phi:lambda" (default "x:0")')
    common.add_argument("--json", metavar="FILE", default=None,
                        help="also write the JSON output to FILE")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def add(name, fn, **need):
        sp = sub.add_parser(name, parents=[common])
        if need.get("poly"):
            sp.add_argument("--poly", required=True, help="polynomial over the base field")
        if need.get("elem"):
            sp.add_argument("--a", "--poly", dest="poly", required=True,
                            help="base field element (rational function in t)")
        if need.get("key"):
            sp.add_argument("--key", required=need["key"] == "req", default="x",
                            help="key polynomial (default x)")
        if need.get("alpha"):
            sp.add_argument("--alpha", required=True, help='augmentation value, "a/b" or "inf"')
        if need.get("svg"):
            sp.add_argument("--svg", metavar="FILE", default=None,
                            help="write an SVG rendering to FILE")
        if need.get("dot"):
            sp.add_argument("--dot", metavar="FILE", default=None,
                            help="write the augmentation tree in DOT format to FILE")
        sp.set_defaults(func=fn)
        return sp

    add("valuate", cmd_valuate, poly=True)
    add("expand", cmd_expand, poly=True, key="req")
    add("polygon", cmd_polygon, poly=True, key="opt", svg=True)
    add("augment", cmd_augment, key="req", alpha=True)
    add("approach", cmd_approach, poly=True)
    add("max-aug", cmd_max_aug, poly=True, key="req")
    add("factor", cmd_factor, poly=True)
    add("extensions", cmd_extensions, poly=True, dot=True)
    add("artin-schreier", cmd_artin_schreier, elem=True)
    return parser


def _emit(obj, args=None) -> None:
    """Write obj to the --json file, if any, then print it.  A reader that
    closed stdout early (``| head``) silences stdout instead of raising."""
    text = json.dumps(obj, indent=2)
    if args is not None and getattr(args, "json", None):
        with open(args.json, "w") as fh:
            fh.write(text + "\n")
    try:
        print(text)
        sys.stdout.flush()
    except BrokenPipeError:
        # the interpreter flushes stdout again at exit; send that to devnull
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


def main(argv=None) -> int:
    parser = build_parser()
    args = None
    try:
        args = parser.parse_args(argv)
        out, code = args.func(args, BaseField.of(args.base, args.p)), 0
    except (_UsageError, ValueError) as e:
        out, code = {"error": {"type": "ValueError", "message": str(e)}}, 2
    except InvariantError as e:
        out, code = {"error": {"type": "InvariantError", "message": str(e)}}, 3
    _emit(out, args)
    return code


if __name__ == "__main__":
    sys.exit(main())
