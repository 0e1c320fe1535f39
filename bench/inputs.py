"""Seeded input generators for the benchmark workloads, with references.

Every reference here is known by construction and computed with the small
polynomial arithmetic in this file; nothing from maclane is used to build or
to judge an input.

* Extension enumeration (``enum-qp``, ``enum-fpt``): inputs are products of
  pairwise distinct monic irreducibles over the completed base field.  An
  Eisenstein factor of degree n carries one branch with (e, f) = (n, 1).  A
  lift of a polynomial that is irreducible mod the uniformizer, of degree d,
  carries one branch (1, d).  A translate x -> x + c, and over F_p(t) the
  scaling x -> t^k x made monic again, are field isomorphisms, so they keep
  (e, f).  The expected answer is the sorted list of (e, f) over the factors,
  and sum e*f = deg.
* Artin-Schreier (``as-classify``): a = (c^p - c) + r with c a Laurent
  polynomial with poles.  x^p - x - a and x^p - x - r define the same
  extension, so r fixes the case: split if v(r) > 0, inert if r is a nonzero
  constant (y^p - y - r is irreducible over F_p), ramified with w = -m if r
  has a pole of order m prime to p.
"""

from __future__ import annotations

import itertools
import random

# -- dense polynomials in x over a coefficient ring ---------------------------


class IntRing:
    """Integer coefficients (inputs over Q)."""

    zero, one = 0, 1

    @staticmethod
    def add(a, b):
        return a + b

    @staticmethod
    def mul(a, b):
        return a * b

    @staticmethod
    def is_zero(a):
        return a == 0

    @staticmethod
    def text(a):
        return str(a)


class LaurentRing:
    """Laurent polynomials over F_p in t, as sorted ((exponent, coeff), ...)."""

    one = ((0, 1),)
    zero = ()

    def __init__(self, p):
        self.p = p

    def make(self, d):
        return tuple(sorted((k, c % self.p) for k, c in d.items() if c % self.p))

    def add(self, a, b):
        d = dict(a)
        for k, c in b:
            d[k] = d.get(k, 0) + c
        return self.make(d)

    def mul(self, a, b):
        d = {}
        for (i, x), (j, y) in itertools.product(a, b):
            d[i + j] = d.get(i + j, 0) + x * y
        return self.make(d)

    @staticmethod
    def is_zero(a):
        return not a

    @staticmethod
    def shift(a, k):
        return tuple((e + k, c) for e, c in a)

    @staticmethod
    def order(a):
        return a[0][0] if a else None

    @staticmethod
    def text(a):
        parts = []
        for e, c in reversed(a):
            if e == 0:
                parts.append(str(c))
            elif e > 0:
                head = "" if c == 1 else f"{c}*"
                parts.append(head + ("t" if e == 1 else f"t^{e}"))
            else:
                parts.append(f"{c}/t" if e == -1 else f"{c}/t^{-e}")
        return "+".join(parts) if parts else "0"


def padd(R, f, g):
    n = max(len(f), len(g))
    out = [R.add(f[i] if i < len(f) else R.zero, g[i] if i < len(g) else R.zero) for i in range(n)]
    while out and R.is_zero(out[-1]):
        out.pop()
    return out


def pmul(R, f, g):
    out = [R.zero] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            out[i + j] = R.add(out[i + j], R.mul(a, b))
    return out


def translate(R, f, c):
    """f(x + c) by Horner's rule."""
    out = []
    for a in reversed(f):
        out = padd(R, pmul(R, out, [c, R.one]) if out else [], [a])
    return out


def derivative(R, f):
    out = []
    for i in range(1, len(f)):
        c = R.zero
        for _ in range(i):
            c = R.add(c, f[i])
        out.append(c)
    while out and R.is_zero(out[-1]):
        out.pop()
    return out


def poly_text(R, f):
    """Text in the syntax of maclane's parser, highest degree first."""
    parts = []
    for i in range(len(f) - 1, -1, -1):
        c = f[i]
        if R.is_zero(c):
            continue
        xs = "" if i == 0 else ("x" if i == 1 else f"x^{i}")
        cs = R.text(c)
        if not xs:
            parts.append(f"({cs})")
        elif c == R.one:
            parts.append(xs)
        else:
            parts.append(f"({cs})*{xs}")
    return "+".join(parts)


# -- F_p[x] helpers for the irreducibility test -------------------------------


def _fp_mod(a, b, p):
    a = list(a)
    inv = pow(b[-1], -1, p)
    while len(a) >= len(b):
        c = a[-1] * inv % p
        off = len(a) - len(b)
        for i, bc in enumerate(b):
            a[off + i] = (a[off + i] - c * bc) % p
        while a and a[-1] == 0:
            a.pop()
    return a


def fp_irreducible(f, p):
    """Trial division of monic f (little-endian ints mod p) by every monic
    polynomial of degree 1 .. deg f // 2."""
    n = len(f) - 1
    for d in range(1, n // 2 + 1):
        for low in itertools.product(range(p), repeat=d):
            if not _fp_mod(f, list(low) + [1], p):
                return False
    return True


# -- extension enumeration inputs ----------------------------------------------

# One shape per operation, cycled: E<n> is an Eisenstein factor of degree n,
# U<d> an unramified one of degree d.  Total degree stays within 2..8.
ENUM_SHAPES = (
    ("E2",), ("U2",), ("E3",), ("U3",), ("E2", "U2"), ("E4",), ("E2", "E2"),
    ("U2", "E3"), ("E2", "U2", "E2"), ("U2", "U3"), ("E3", "U3"), ("U2", "U2"),
)
ENUM_PARAMS = {
    "enum-qp": {"base": "Q", "primes": [2, 3, 5], "shapes": [" ".join(s) for s in ENUM_SHAPES],
                "translate": "x -> x + c, c in -5..5, on every factor in every second cycle",
                "noise": "non-leading coefficients perturbed by p * (-9..9)"},
    "enum-fpt": {"base": "Fpt", "primes": [2, 3], "shapes": [" ".join(s) for s in ENUM_SHAPES],
                 "translate": "x -> x + c, c = a/t + b, on every factor in every second cycle",
                 "scale": "x -> t^k x made monic, k cycling -1, 0, 1 every two cycles",
                 "noise": "non-leading coefficients perturbed by t * (c0 + c1 t + c2 t^2)"},
}


def _eisenstein(R, rng, n, p, unif):
    f = [R.mul(unif, _small(R, rng, p)) for _ in range(n)] + [R.one]
    while True:
        u = _small(R, rng, p, terms=4)
        if not _reduces_to_zero(R, u, p):
            break
    f[0] = R.mul(unif, u)
    return f


def _unramified(R, rng, d, p, unif):
    while True:
        low = [rng.randrange(p) for _ in range(d)]
        if fp_irreducible(low + [1], p):
            break
    f = [R.add(_const(R, c), R.mul(unif, _small(R, rng, p))) for c in low]
    return f + [R.one]


def _const(R, c):
    return c if isinstance(R, IntRing) else R.make({0: c})


def _small(R, rng, p, terms=3):
    """A small integral coefficient: -9..9 over Q, c0 + ... + c_(terms-1) t^(terms-1)
    over F_p(t)."""
    if isinstance(R, IntRing):
        return rng.randint(-9, 9)
    return R.make({k: rng.randrange(p) for k in range(terms)})


def _reduces_to_zero(R, c, p):
    if isinstance(R, IntRing):
        return c % p == 0
    return R.order(c) != 0


def _enum_factor(R, rng, kind, p, fpt, translated, k):
    unif = R.make({1: 1}) if fpt else p
    n = int(kind[1:])
    while True:
        f = (_eisenstein if kind[0] == "E" else _unramified)(R, rng, n, p, unif)
        expected = (n, 1) if kind[0] == "E" else (1, n)
        if translated:
            if fpt:
                c = R.make({-1: rng.randrange(p), 0: rng.randrange(p)})
            else:
                c = rng.randint(-5, 5)
            f = translate(R, f, c)
        if k:
            f = [R.shift(c, k * (i - n)) for i, c in enumerate(f)]
        # irreducible, so separable exactly when the derivative is nonzero
        if derivative(R, f):
            return f, expected


def enum_case(workload, seed, index, attempt=0):
    """(base, p, text, expected, text) for operation `index` of a run.

    expected is the sorted (e, f) list, or None when the input must be
    rejected (not squarefree or not separable).
    """
    fpt = workload == "enum-fpt"
    primes = ENUM_PARAMS[workload]["primes"]
    shape = ENUM_SHAPES[index % len(ENUM_SHAPES)]
    p = primes[(index // len(ENUM_SHAPES)) % len(primes)]
    # The structure cycles too, so that the mix of costs is the same in
    # every run: only the coefficients are drawn at random.
    variant = index // (len(ENUM_SHAPES) * len(primes))
    translated = variant % 2 == 1
    k = (variant // 2) % 3 - 1 if fpt else 0
    R = LaurentRing(p) if fpt else IntRing()
    rng = random.Random(f"{workload}/{seed}/{index}/{attempt}")
    while True:
        factors, expected = [], []
        for kind in shape:
            f, ef = _enum_factor(R, rng, kind, p, fpt, translated, k)
            factors.append(f)
            expected.append(ef)
        # pairwise distinct monic irreducibles: the product is squarefree
        if len({tuple(f) for f in factors}) == len(factors):
            break
    prod = [R.one]
    for f in factors:
        prod = pmul(R, prod, f)
    text = poly_text(R, prod)
    return ("Fpt" if fpt else "Q", p, text, sorted(expected), text)


# Fixed hard and regression cases, run once in every timed phase: (base, p,
# text as a user types it, expected, coefficients).  The coefficients give
# the canonical text that keeps generated inputs distinct from these.
# Expected lists are derived by hand (see bench/NOTES.md); None means the
# input must be rejected.


def _fixed_qp():
    R = IntRing()
    phi = [1, 1, 1]
    inner = padd(R, pmul(R, phi, phi), [2])
    return (
        # the panel of scripts/extension_survey.py over Q
        ("Q", 5, "x^2+1", [(1, 1), (1, 1)], [1, 0, 1]),
        ("Q", 3, "x^2+1", [(1, 2)], [1, 0, 1]),
        ("Q", 2, "x^2+2", [(2, 1)], [2, 0, 1]),
        ("Q", 3, "x^2+7", [(1, 2)], [7, 0, 1]),
        ("Q", 2, "x^4+2*x^3+4*x^2+4*x+2", [(4, 1)], [2, 4, 4, 2, 1]),
        ("Q", 2, "((x^2+x+1)^2+2)^2+4*x", [(4, 2)], padd(R, pmul(R, inner, inner), [0, 4])),
        ("Q", 5, "x^5+50*x-1", [(1, 1), (4, 1)], [-1, 50, 0, 0, 0, 1]),
        ("Q", 2, "(x^2+2)*(x^2+6)", [(2, 1), (2, 1)], pmul(R, [2, 0, 1], [6, 0, 1])),
    )


def _fixed_fpt():
    R2, R3 = LaurentRing(2), LaurentRing(3)

    def t(R, k, c=1):
        return R.make({k: c})

    one2, one3 = R2.one, R3.one
    phi = [one2, one2, one2]
    return (
        # the panel of scripts/extension_survey.py over F_p(t)
        ("Fpt", 2, "x^2+x+t", [(1, 1), (1, 1)], [t(R2, 1), one2, one2]),
        ("Fpt", 2, "x^2+x+1/t", [(2, 1)], [t(R2, -1), one2, one2]),
        ("Fpt", 2, "x^2+x+1/t^2", [(2, 1)], [t(R2, -2), one2, one2]),
        ("Fpt", 3, "x^3+2*x+2*t", [(1, 1), (1, 1), (1, 1)],
         [t(R3, 1, 2), t(R3, 0, 2), R3.zero, one3]),
        ("Fpt", 2, "(x^2+x+1)^2+t", [(2, 2)], padd(R2, pmul(R2, phi, phi), [t(R2, 1)])),
        # not squarefree: (x+t)^2, (x-t)^3, and gcd(f, f') = x^2+t^2
        ("Fpt", 2, "x^2+t^2", None, [t(R2, 2), R2.zero, one2]),
        ("Fpt", 3, "x^3+2*t^3", None, [t(R3, 3, 2), R3.zero, R3.zero, one3]),
        ("Fpt", 2, "x^5+(1/t^2)*x^4+t^2*x^3+t^2", None,
         [t(R2, 2), R2.zero, R2.zero, t(R2, 2), t(R2, -2), one2]),
    )


def enum_fixed(workload):
    """The fixed cases as (base, p, text, expected, canonical text)."""
    cases = _fixed_qp() if workload == "enum-qp" else _fixed_fpt()
    return [(b, p, text, ef, poly_text(IntRing() if b == "Q" else LaurentRing(p), cs))
            for b, p, text, ef, cs in cases]


# -- Artin-Schreier inputs ----------------------------------------------------------

AS_PRIMES = (2, 3, 5, 7)
AS_CASES = ("split-p", "inert-p", "ramified-p")
AS_PARAMS = {
    "primes": list(AS_PRIMES),
    "cases": list(AS_CASES),
    "c": "Laurent polynomial, pole order cycling 1..5 (leading pole nonzero), degree 0..3",
    "r": "tail t^1 .. t^top, top in 4..13 prime to p, top coefficient nonzero; "
         "inert adds a nonzero constant; ramified adds a pole part led by t^-m, "
         "p does not divide m, m < p * (pole order of c)",
}


def as_case(seed, index, attempt=0):
    """(p, text of a, expected case, expected w or None)."""
    p = AS_PRIMES[index % len(AS_PRIMES)]
    case = AS_CASES[(index // len(AS_PRIMES)) % len(AS_CASES)]
    R = LaurentRing(p)
    rng = random.Random(f"as-classify/{seed}/{index}/{attempt}")
    poles = 1 + (index // (len(AS_PRIMES) * len(AS_CASES))) % 5     # cycled, like p and the case
    c = {k: rng.randrange(p) for k in range(-poles + 1, rng.randint(0, 3) + 1)}
    c[-poles] = rng.randrange(1, p)
    c = R.make(c)
    frob = tuple((p * e, v) for e, v in c)                  # c^p in char p
    wp = R.add(frob, tuple((e, -v) for e, v in c))
    # r has a random tail of positive order; its top exponent is prime to p
    top = rng.choice([k for k in range(4, 14) if k % p])
    r = {k: rng.randrange(p) for k in range(1, top)}
    r[top] = rng.randrange(1, p)
    w = None
    if case == "split-p":
        # no constant or pole, and x^p - x - a stays irreducible: r is not
        # c'^p - c' for any c' in F_p(t), as its top exponent is prime to p
        pass
    elif case == "inert-p":
        r[0] = rng.randrange(1, p)
        w = 0
    else:
        m = rng.choice([m for m in range(1, p * poles) if m % p])
        r.update({k: rng.randrange(p) for k in range(-m + 1, 1)})
        r[-m] = rng.randrange(1, p)
        w = -m
    a = R.add(wp, R.make(r))
    return p, R.text(a), case, w
