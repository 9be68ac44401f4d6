"""Reference bracket kernel and multivector sampler, the slow paths replaced.

``poisson_bracket`` here is the flattened-monomial kernel that
``splitlie2.bracket`` ran before it worked on (kind, index, exponent)
factors: every monomial is expanded into single factors, each conjugate
pair is removed from the concatenated sequence and the rest is sorted
again.  ``random_multivector`` is the sampler ``splitlie2.multivectors``
ran before it was tuned; its rng draw sequence is the one the package
must keep.  ``test_bracket_oracle.py`` compares both exactly.  This
module is test-only; the package keeps one implementation of each.
"""

import random
from fractions import Fraction

from splitlie2.gradedpoly import (
    KIND_DEGREE,
    P,
    TH,
    THD,
    X,
    XI,
    XID,
    Chart,
    ChartMismatchError,
    Poly,
    mono_degree,
    mono_from_sequence,
)

_PAIR_SIGN = {
    (P, X): -1,
    (X, P): 1,
    (XID, XI): -1,
    (XI, XID): 1,
    (THD, TH): 1,
    (TH, THD): -1,
}


def mono_flat(m):
    """Expand a monomial into a list of single (kind, index) factors."""
    out = []
    for k, idx, e in m:
        out.extend([(k, idx)] * e)
    return out


def _mono_bracket(m1, m2, acc, coeff):
    """Accumulate the bracket of two monomials into the dict acc."""
    f1 = mono_flat(m1)
    f2 = mono_flat(m2)
    if not f1 or not f2:
        return
    d2 = mono_degree(m2)
    # degree of the suffix of f1 after position a
    suf1 = [0] * (len(f1) + 1)
    for a in range(len(f1) - 1, -1, -1):
        suf1[a] = suf1[a + 1] + KIND_DEGREE[f1[a][0]]
    pre2 = [0] * (len(f2) + 1)
    for b in range(len(f2)):
        pre2[b + 1] = pre2[b] + KIND_DEGREE[f2[b][0]]
    for a, (k1, i1) in enumerate(f1):
        for b, (k2, i2) in enumerate(f2):
            if i1 != i2:
                continue
            s0 = _PAIR_SIGN.get((k1, k2))
            if s0 is None:
                continue
            e = suf1[a + 1] * (d2 + 1) + (KIND_DEGREE[k1] + 1) * pre2[b]
            sgn = -s0 if e % 2 else s0
            seq = f1[:a] + f2[:b] + f2[b + 1 :] + f1[a + 1 :]
            s2, mono = mono_from_sequence(seq)
            if s2 == 0:
                continue
            c = acc.get(mono, 0) + sgn * s2 * coeff
            if c == 0:
                acc.pop(mono, None)
            else:
                acc[mono] = c


def poisson_bracket(f: Poly, g: Poly) -> Poly:
    """Canonical graded Poisson bracket of two polynomials on one chart."""
    if f.chart != g.chart:
        raise ChartMismatchError(f"chart mismatch: {f.chart} vs {g.chart}")
    acc = {}
    for m1, c1 in f.terms.items():
        for m2, c2 in g.terms.items():
            _mono_bracket(m1, m2, acc, c1 * c2)
    return Poly(f.chart, acc)


def random_multivector(chart: Chart, rng: random.Random, max_shifted_degree=6,
                       max_base_degree=2, terms=2):
    """Random homogeneous multivector (never the zero degree marker)."""
    deg = rng.randint(1, max_shifted_degree)
    acc = {}
    for _ in range(terms):
        d = 0
        factors = []
        guard = 0
        while d < deg and guard < 60:
            guard += 1
            k = rng.choice((XID, THD, THD))
            idx = rng.randint(1, chart.kind_rank(k)) if chart.kind_rank(k) else None
            if idx is None:
                continue
            kd = 2 if k == XID else 1
            if d + kd > deg:
                if deg - d == 1 and chart.kind_rank(THD):
                    k, kd = THD, 1
                    idx = rng.randint(1, chart.kind_rank(THD))
                else:
                    continue
            if k == THD and (THD, idx) in [(f[0], f[1]) for f in factors]:
                continue
            factors.append((k, idx, 1))
            d += kd
        if d != deg:
            continue
        for _ in range(rng.randint(0, max_base_degree)):
            if chart.base_dim:
                factors.append((X, rng.randint(1, chart.base_dim), 1))
        sign, mono = mono_from_sequence([(k, i) for k, i, _ in factors])
        if sign == 0:
            continue
        c = acc.get(mono, 0) + sign * Fraction(rng.randint(-4, 4) or 1)
        acc[mono] = c
    p = Poly(chart, acc)
    if p.is_zero or p.degree() != deg:
        return random_multivector(chart, rng, max_shifted_degree, max_base_degree, terms)
    return p
