"""Dense polynomials over Z/p as integer tuples, little-endian.

Index i holds the coefficient of z^i, reduced mod p, with no trailing
zeros; the zero polynomial is the empty tuple.  Every function takes the
prime p explicitly.  These are the integer kernel under the elements of
F_p(t) (numerator and denominator in t) and of GF(p^k) (residues modulo the
field's modulus); they are not part of the public API.  ``to_str`` is the
one printer of such tuples, in the variable its caller names: t for F_p(t),
w for a field modulus, g for a GF(p^k) element.  Polynomials with
field-element coefficients are ``poly.Polynomial`` and ``ffield.FFPoly``.
"""

from __future__ import annotations


def trim(cs, p):
    cs = [c % p for c in cs]
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


def add(a, b, p):
    n = max(len(a), len(b))
    return trim([(a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0) for i in range(n)], p)


def neg(a, p):
    return tuple((-c) % p for c in a)


def sub(a, b, p):
    return add(a, neg(b, p), p)


def mul(a, b, p):
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca == 0:
            continue
        for j, cb in enumerate(b):
            out[i + j] = (out[i + j] + ca * cb) % p
    return trim(out, p)


def scal(k, a, p):
    k %= p
    return trim([k * c for c in a], p)


def div_mod(a, b, p):
    """Euclidean division; b must be nonzero."""
    if not b:
        raise ZeroDivisionError("division by zero polynomial")
    inv = pow(b[-1], -1, p)
    rem = list(a)
    q = [0] * max(0, len(a) - len(b) + 1)
    for i in range(len(a) - len(b), -1, -1):
        c = (rem[i + len(b) - 1] * inv) % p
        if c:
            q[i] = c
            for j, cb in enumerate(b):
                rem[i + j] = (rem[i + j] - c * cb) % p
    return trim(q, p), trim(rem, p)


def gcd(a, b, p):
    while b:
        a, b = b, div_mod(a, b, p)[1]
    return monic(a, p)


def monic(a, p):
    if not a:
        return ()
    return scal(pow(a[-1], -1, p), a, p)


def order(a):
    """Index of the lowest nonzero coefficient (t-adic order); zero poly is an error."""
    for i, c in enumerate(a):
        if c:
            return i
    raise ValueError("order of zero polynomial")


def to_str(cs, var):
    """cs as a polynomial in var, highest degree first: ``2*t^2+t+1``; "0" if empty."""
    parts = []
    for i in range(len(cs) - 1, -1, -1):
        c = cs[i]
        if not c:
            continue
        if i == 0:
            parts.append(str(c))
        else:
            head = "" if c == 1 else f"{c}*"
            parts.append(f"{head}{var}" + (f"^{i}" if i > 1 else ""))
    return "+".join(parts) or "0"
