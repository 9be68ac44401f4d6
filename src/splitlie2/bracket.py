"""The canonical degree -3 graded Poisson bracket and derived brackets.

The bracket is the graded biderivation fixed by its values on conjugate
generator pairs.  The pair signs below are the ones pinned by the
calibration suite (structure-constant dictionary, cochain calculus and the
worked examples all reproduce exactly with this table; see the test suite):

    {p_i, x^j}   = -delta,   {x^j, p_i}   = +delta
    {xi_j, xi^k} = -delta,   {xi^k, xi_j} = +delta
    {th_k, th^l} = +delta,   {th^l, th_k} = -delta

For homogeneous f, g it satisfies, with |f| the total degree,

    {f, g} = -(-1)^((|f|-3)(|g|-3)) {g, f}
    {f, gh} = {f, g} h + (-1)^((|f|-3)|g|) g {f, h}
    {f, {g, h}} = {{f, g}, h} + (-1)^((|f|-3)(|g|-3)) {g, {f, h}}

and shifts degree by -3 and the triple grading by (-1,-1,-1).
"""

from __future__ import annotations

from .gradedpoly import (
    KIND_DEGREE,
    P,
    TH,
    THD,
    X,
    XI,
    XID,
    Poly,
    mono_degree,
    mono_flat,
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


class DegreeError(ValueError):
    pass


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
        from .gradedpoly import ChartMismatchError

        raise ChartMismatchError(f"chart mismatch: {f.chart} vs {g.chart}")
    acc = {}
    for m1, c1 in f.terms.items():
        for m2, c2 in g.terms.items():
            _mono_bracket(m1, m2, acc, c1 * c2)
    return Poly(f.chart, acc)


def derived_bracket(generator: Poly, args) -> Poly:
    """Iterated bracket -{...{{generator, a1}, a2}..., am}."""
    r = generator
    for a in args:
        r = poisson_bracket(r, a)
    return -r


def nilpotency_check(q: Poly):
    """Check {q, q} = 0 for a degree-4 function.

    Returns (passed, residual, components) where components maps each
    triple grading to its part of the residual.
    """
    d = q.degree()
    if not q.is_zero and d != 4:
        raise DegreeError(f"expected a degree-4 function, got degree {d}")
    residual = poisson_bracket(q, q)
    return residual.is_zero, residual, residual.tridegree_components()
