"""A plain reference for the packed series kernel.

A series is a dict {GroupElement: {exponent tuple: c}} with c in 1..p-1,
and every operation is written the obvious way on group elements.  sigma is
expanded by the binomial theorem, x_i^e -> sum_k C(e, k) x_i^k t^((e-k) d_i),
rather than by powering the images the way the kernel does.
``is_pth_power`` decides the leading coefficient's p-th root for the
reference Artin-Schreier loops.
"""

from __future__ import annotations

from functools import cmp_to_key
from math import comb

from ramify.ordered_group import compare, int_scale


def decode(s):
    """The reference form of a ``SeriesElement``, read through its API."""
    return {g: dict(c.terms()) for g, c in s.terms()}


def _put(acc, gamma, exps, c, p):
    poly = acc.setdefault(gamma, {})
    v = (poly.get(exps, 0) + c) % p
    if v:
        poly[exps] = v
    else:
        poly.pop(exps, None)
        if not poly:
            del acc[gamma]


def normalize(f, p):
    out = {}
    for gamma, poly in f.items():
        for exps, c in poly.items():
            _put(out, gamma, tuple(exps), c, p)
    return out


def add(f, g, p):
    out = normalize(f, p)
    for gamma, poly in g.items():
        for exps, c in poly.items():
            _put(out, gamma, exps, c, p)
    return out


def mul(f, g, p):
    out = {}
    for g1, p1 in f.items():
        for g2, p2 in g.items():
            gamma = g1 + g2
            for e1, c1 in p1.items():
                for e2, c2 in p2.items():
                    _put(out, gamma, tuple(a + b for a, b in zip(e1, e2)), c1 * c2, p)
    return out


def sigma(f, tags, p):
    out = {}
    for gamma, poly in f.items():
        for exps, c in poly.items():
            terms = [(gamma, exps, c)]
            for i, tag in enumerate(tags):
                e = exps[i]
                if not e:
                    continue
                expanded = []
                for g, ex, cc in terms:
                    for k in range(e + 1):
                        b = comb(e, k) % p
                        if b:
                            expanded.append((g + int_scale(e - k, tag), ex[:i] + (k,) + ex[i + 1:], cc * b))
                terms = expanded
            for g, ex, cc in terms:
                _put(out, g, ex, cc, p)
    return out


def norm(f, tags, p):
    out = cur = f
    for _ in range(p - 1):
        cur = sigma(cur, tags, p)
        out = mul(out, cur, p)
    return out


def trace(f, tags, p):
    out = cur = f
    for _ in range(p - 1):
        cur = sigma(cur, tags, p)
        out = add(out, cur, p)
    return out


def valuation(f):
    return min(f, key=cmp_to_key(compare))


def is_pth_power(field, c):
    """Decide whether a coefficient polynomial is a p-th power, returning
    (flag, root); the oracle for the reference reduction loops.  Over F_p
    every coefficient is its own p-th root, so only the exponents matter.
    """
    p = field.p
    if not c:
        return True, field.zero
    out = {}
    for exps, coeff in c.terms():
        if any(e % p for e in exps):
            return False, None
        out[tuple(e // p for e in exps)] = coeff
    return True, field.ring.from_dict(out)


def t_coords(lay, T):
    """The coordinates of a packed t-exponent, one balanced base-2^tw digit
    at a time from the lowest, whatever the number of lower coordinates."""
    out = []
    for _ in range(lay.nlow):
        c = ((T + lay.half) & lay.tmask) - lay.half
        out.append(c)
        T = (T - c) >> lay.tw
    return tuple(reversed(out + [T]))
