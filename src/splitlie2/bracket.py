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

from .gradedpoly import KIND_ODD, P, TH, THD, X, XI, XID, ChartMismatchError, Poly, mono_mul

# kind -> (conjugate kind, sign of {kind, conjugate}) for each kind that pairs
_CONJ = {
    P: (X, -1),
    X: (P, 1),
    XID: (XI, -1),
    XI: (XID, 1),
    THD: (TH, 1),
    TH: (THD, -1),
}


class DegreeError(ValueError):
    pass


def _without(m, pos):
    """The monomial m with one copy of its factor at pos removed."""
    k, i, e = m[pos]
    if e == 1:
        return m[:pos] + m[pos + 1 :]
    return m[:pos] + ((k, i, e - 1),) + m[pos + 1 :]


def _right_index(g: Poly):
    """(kind, index) -> [(m without that factor, weight * coefficient)] over g.

    An odd right factor is moved to the front of its monomial, at the sign
    (-1)^(odd factors before it); an even one brings its exponent.
    """
    index = {}
    for m, c in g.terms.items():
        odd_before = 0
        for pos, (k, i, e) in enumerate(m):
            if k not in _CONJ:
                continue
            if KIND_ODD[k]:
                w = -c if odd_before else c
                odd_before ^= 1
            else:
                w = e * c
            hits = index.get((k, i))
            if hits is None:
                index[(k, i)] = [(_without(m, pos), w)]
            else:
                hits.append((_without(m, pos), w))
    return index


def poisson_bracket(f: Poly, g: Poly) -> Poly:
    """Canonical graded Poisson bracket of two polynomials on one chart.

    Each conjugate factor pair (a in a term of f, b in a term of g)
    contributes (pair sign) * (f-term without a) * (g-term without b).
    Every conjugate pair has one odd and one even partner.  An odd left
    factor is moved to the end of its monomial, at the sign (-1)^(odd
    factors after it); an even one brings its exponent as multiplicity.
    The right factors carry the mirror weights (see _right_index).
    """
    if f.chart is not g.chart and f.chart != g.chart:
        raise ChartMismatchError(f"chart mismatch: {f.chart} vs {g.chart}")
    if not f.terms or not g.terms:
        return Poly(f.chart)
    right = _right_index(g)
    acc = {}
    for m1, c1 in f.terms.items():
        odd_after = 0
        for pos in range(len(m1) - 1, -1, -1):
            k, i, e = m1[pos]
            conj = _CONJ.get(k)
            if conj is None:
                continue
            ck, s0 = conj
            if KIND_ODD[k]:
                w = -s0 if odd_after else s0
                odd_after ^= 1
            else:
                w = s0 * e
            hits = right.get((ck, i))
            if hits is None:
                continue
            a = _without(m1, pos)
            w = w * c1
            for b, v in hits:
                s, mono = mono_mul(a, b)
                if s == 0:
                    continue
                c = acc.get(mono, 0) + (w * v if s > 0 else -(w * v))
                if c == 0:
                    acc.pop(mono, None)
                else:
                    acc[mono] = c
    return Poly(f.chart, acc)


def derived_table(generator: Poly, *frames):
    """Nested table T[i][j]... = -{...{{generator, frames[0][i]}, frames[1][j]}...}.

    Each prefix bracket is taken once and shared by every entry below it;
    a zero prefix is not bracketed further, since {0, a} = 0.
    """
    if not frames:
        return -generator
    head, rest = frames[0], frames[1:]
    if not generator.terms:
        return [derived_table(generator, *rest) for _ in head]
    return [derived_table(poisson_bracket(generator, a), *rest) for a in head]


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
