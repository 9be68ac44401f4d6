"""Derived-bracket decoders that bracket every entry from scratch.

These are the loop nests ``derived_table`` replaces: each entry is one
``derived_bracket`` call, so the inner bracket ``{g, e_i}`` is recomputed
for every outer index.  ``decode_mu`` and ``decode_gamma`` are the decoders
of ``splitlie2.structures`` and ``splitlie2.twisting`` before they shared
one table; ``crosscheck`` is route (b) of ``splitlie2.lwx.build_double``
before it read its four tables, and returns the flag verdict and the full
list of mismatching entry names.  ``test_derived_table.py`` compares them
with the package.  This module is test-only; the package keeps one
implementation.
"""

from fractions import Fraction

from splitlie2.bracket import derived_bracket, poisson_bracket
from splitlie2.gradedpoly import (
    TH,
    THD,
    XI,
    XID,
    Chart,
    Poly,
    th_dn,
    th_up,
    x_,
    xi_dn,
    xi_up,
)
from splitlie2.lwx import embed1, embed2, split1, split2
from splitlie2.structures import Lie2Structure, _components_to_list
from splitlie2.twisting import validate_gamma


def decode_mu(mu: Poly, chart: Chart) -> Lie2Structure:
    """Recover the structure tensors from a degree-4 generating function."""
    n, r1, r2 = chart.base_dim, chart.rank1, chart.rank2
    mu211 = mu.project_tridegree((2, 1, 1))
    mu121 = mu.project_tridegree((1, 2, 1))
    mu031 = mu.project_tridegree((0, 3, 1))
    s = Lie2Structure.zero(chart)
    for j in range(r2):
        val = derived_bracket(mu211, [th_dn(chart, j + 1)])
        s.mu2[j] = _components_to_list(val, XID, r1)
    for j in range(r1):
        for i in range(n):
            s.mu1[j][i] = derived_bracket(mu121, [xi_dn(chart, j + 1), x_(chart, i + 1)])
    for i in range(r1):
        for j in range(r1):
            val = derived_bracket(mu121, [xi_dn(chart, i + 1), xi_dn(chart, j + 1)])
            s.mu3[i][j] = _components_to_list(val, XID, r1)
    for i in range(r1):
        for j in range(r2):
            val = derived_bracket(mu121, [xi_dn(chart, i + 1), th_dn(chart, j + 1)])
            s.mu4[i][j] = _components_to_list(val, THD, r2)
    for i in range(r1):
        for j in range(r1):
            for k in range(r1):
                val = derived_bracket(
                    mu031,
                    [xi_dn(chart, i + 1), xi_dn(chart, j + 1), xi_dn(chart, k + 1)],
                )
                s.mu5[i][j][k] = _components_to_list(val, THD, r2)
    return s


def decode_gamma(gamma: Poly, chart: Chart) -> Lie2Structure:
    """Structure tensors of a dual-type function, on the swapped chart."""
    validate_gamma(gamma)
    out_chart = chart.swapped()
    n, r1, r2 = chart.base_dim, chart.rank1, chart.rank2
    g211 = gamma.project_tridegree((2, 1, 1))
    g112 = gamma.project_tridegree((1, 1, 2))
    g013 = gamma.project_tridegree((0, 1, 3))
    s = Lie2Structure.zero(out_chart)

    def tr(p: Poly, kind, rank):
        comps = _components_to_list(p, kind, rank)
        return [c.lift(out_chart) for c in comps]

    for j in range(r1):
        val = derived_bracket(g211, [xi_up(chart, j + 1)])
        s.mu2[j] = tr(val, TH, r2)
    for j in range(r2):
        for i in range(n):
            s.mu1[j][i] = derived_bracket(
                g112, [th_up(chart, j + 1), x_(chart, i + 1)]
            ).lift(out_chart)
    for i in range(r2):
        for j in range(r2):
            val = derived_bracket(g112, [th_up(chart, i + 1), th_up(chart, j + 1)])
            s.mu3[i][j] = tr(val, TH, r2)
    for i in range(r2):
        for j in range(r1):
            val = derived_bracket(g112, [th_up(chart, i + 1), xi_up(chart, j + 1)])
            s.mu4[i][j] = tr(val, XI, r1)
    for i in range(r2):
        for j in range(r2):
            for k in range(r2):
                val = derived_bracket(
                    g013,
                    [th_up(chart, i + 1), th_up(chart, j + 1), th_up(chart, k + 1)],
                )
                s.mu5[i][j][k] = tr(val, XI, r1)
    return s


def crosscheck(pair, out):
    """Route (b) of build_double against the double ``out``: (ok, detail)."""
    ch = pair.s.chart
    n, r1, r2 = ch.base_dim, ch.rank1, ch.rank2
    d = r1 + r2
    theta = pair.theta
    t211 = theta.project_tridegree((2, 1, 1))
    tbin = theta.project_tridegree((1, 2, 1)) + theta.project_tridegree((1, 1, 2))
    tter = theta.project_tridegree((0, 3, 1)) + theta.project_tridegree((0, 1, 3))

    # the unit vectors of both frames, embedded once
    units = [[Fraction(int(q == a)) for q in range(d)] for a in range(d)]
    emb1 = [embed1(ch, v) for v in units]
    emb2 = [embed2(ch, v) for v in units]

    ok = True
    detail = []
    for m in range(d):
        got = split1(ch, derived_bracket(t211, [emb2[m]]))
        if any(u != v for u, v in zip(got, out.partial[m])):
            ok = False
            detail.append(f"partial[{m + 1}]")
    for a in range(d):
        ea = emb1[a]
        for i in range(n):
            got = derived_bracket(tbin, [ea, x_(ch, i + 1)])
            if got != out.rho[a][i]:
                ok = False
                detail.append(f"rho[{a + 1},{i + 1}]")
        for b in range(d):
            got = split1(ch, derived_bracket(tbin, [ea, emb1[b]]))
            if any(u != v for u, v in zip(got, out.c11[a][b])):
                ok = False
                detail.append(f"c11[{a + 1},{b + 1}]")
        for m in range(d):
            got = split2(ch, derived_bracket(tbin, [ea, emb2[m]]))
            if any(u != v for u, v in zip(got, out.c12[a][m])):
                ok = False
                detail.append(f"c12[{a + 1},{m + 1}]")
            got = split2(ch, derived_bracket(tbin, [emb2[m], ea]))
            if any(u != v for u, v in zip(got, out.c21[m][a])):
                ok = False
                detail.append(f"c21[{m + 1},{a + 1}]")
    for a in range(d):
        for b in range(d):
            for c in range(d):
                got = split2(
                    ch,
                    derived_bracket(
                        tter,
                        [emb1[a], emb1[b], emb1[c]],
                    ),
                )
                if any(u != v for u, v in zip(got, out.omega[a][b][c])):
                    ok = False
                    detail.append(f"omega[{a + 1},{b + 1},{c + 1}]")
    for a in range(d):
        for m in range(d):
            got = poisson_bracket(emb2[m], emb1[a])
            want = Poly.const(ch, out.pairing[a][m])
            if got != want:
                ok = False
                detail.append(f"pairing[{a + 1},{m + 1}]")
    return ok, detail
