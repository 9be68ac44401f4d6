"""Derived-bracket decoders that bracket every entry from scratch, and the
frame codec as it was before one encoder, reader and embedder served it.

``decode_mu``, ``decode_gamma`` and ``crosscheck`` are the loop nests
``derived_table`` replaces: each entry is one ``derived_bracket`` call, so
the inner bracket ``{g, e_i}`` is recomputed for every outer index.
``decode_mu`` and ``decode_gamma`` are the decoders of
``splitlie2.structures`` and ``splitlie2.twisting`` before they shared one
table; ``crosscheck`` is route (b) of ``splitlie2.lwx.build_double`` before
it read its four tables, and returns the flag verdict and the full list of
mismatching entry names.  ``test_derived_table.py`` compares them with the
package.  ``check_bialgebroid`` is the bialgebroid check of
``splitlie2.twisting`` from before its derivation loops took each unary
image once; ``test_twisting.py`` compares its records with the package.
``relative_mc_residual`` is the relative flatness residual of
``splitlie2.twisting`` from before it read the plain flatness components
of ``mc_residual``; it writes out all three components, and
``test_twisting.py`` compares their rendered residuals with the package.

``encode_mu``, ``encode_gamma``, ``validate_gamma``, ``momentum_components``
with ``_components_to_list``, ``cochain_one_form_components``, ``embed1``,
``embed2``, ``split1``, ``split2`` and ``one_form`` are copies of the package code that
``encode_frames``, ``validate_generating_function``, ``linear_components``
and the section embedders replace; ``test_frame_codec.py`` compares them.
This module is test-only; the package keeps one implementation.
"""

from fractions import Fraction

from splitlie2.bracket import derived_bracket, poisson_bracket
from splitlie2.gradedpoly import (
    P,
    TH,
    THD,
    XI,
    XID,
    Chart,
    Poly,
    mono_tridegree,
    p_,
    th_dn,
    th_up,
    x_,
    xi_dn,
    xi_up,
)
from splitlie2.multivectors import MCElement, SAlgebra, section1, section2
from splitlie2.report import CheckReport
from splitlie2.structures import GAMMA_TRIDEGREES, Lie2Structure
from splitlie2.twisting import BialgebroidPair

_DUAL_MOMENTA = (P, XI, TH)


# -- the frame codec before encode_frames ------------------------------------------


def encode_mu(s: Lie2Structure) -> Poly:
    """Degree-4 generating function of a structure (fiberwise linear)."""
    ch = s.chart
    n, r1, r2 = ch.base_dim, ch.rank1, ch.rank2
    out = Poly.zero(ch)
    for j in range(r1):
        for i in range(n):
            c = s.mu1[j][i]
            if not c.is_zero:
                out = out + c * (p_(ch, i + 1) * xi_up(ch, j + 1))
    for j in range(r2):
        for i in range(r1):
            c = s.mu2[j][i]
            if not c.is_zero:
                out = out + c * (xi_dn(ch, i + 1) * th_up(ch, j + 1))
    for i in range(r1):
        for j in range(r1):
            for k in range(r1):
                c = s.mu3[i][j][k]
                if not c.is_zero:
                    out = out + Fraction(1, 2) * c * (
                        xi_dn(ch, k + 1) * xi_up(ch, i + 1) * xi_up(ch, j + 1)
                    )
    for i in range(r1):
        for j in range(r2):
            for k in range(r2):
                c = s.mu4[i][j][k]
                if not c.is_zero:
                    out = out + c * (th_dn(ch, k + 1) * xi_up(ch, i + 1) * th_up(ch, j + 1))
    for i in range(r1):
        for j in range(r1):
            for k in range(r1):
                for l in range(r2):
                    c = s.mu5[i][j][k][l]
                    if not c.is_zero:
                        out = out + Fraction(1, 6) * c * (
                            th_dn(ch, l + 1)
                            * xi_up(ch, i + 1)
                            * xi_up(ch, j + 1)
                            * xi_up(ch, k + 1)
                        )
    return out


def momentum_components(f: Poly, kind: int):
    """Split a polynomial linear in one momentum kind into index -> base part."""
    comps = {}
    for m, c in f.terms.items():
        hits = [(pos, idx, e) for pos, (k, idx, e) in enumerate(m) if k == kind]
        if len(hits) != 1 or hits[0][2] != 1:
            raise ValueError(f"polynomial is not linear in kind {kind}: {f.render()}")
        pos, idx, _ = hits[0]
        rest = tuple(fct for q, fct in enumerate(m) if q != pos)
        base = comps.setdefault(idx, {})
        base[rest] = base.get(rest, 0) + c
    return {idx: Poly(f.chart, d) for idx, d in comps.items()}


def _components_to_list(f: Poly, kind: int, rank: int):
    out = [Poly.zero(f.chart) for _ in range(rank)]
    if f.is_zero:
        return out
    for idx, base in momentum_components(f, kind).items():
        out[idx - 1] = base
    return out


def validate_gamma(gamma: Poly):
    """A dual-type function is degree 4, linear in the dual momenta, and
    supported in the three dual gradings."""
    if gamma.is_zero:
        return
    if gamma.degree() != 4:
        raise ValueError(f"dual generating function must have degree 4, got {gamma.degree()}")
    for mono in gamma.terms:
        td = mono_tridegree(mono)
        if td not in GAMMA_TRIDEGREES:
            raise ValueError(f"inadmissible dual tridegree component {td}")
        w = sum(e for k, _, e in mono if k in _DUAL_MOMENTA)
        if w != 1:
            raise ValueError("dual generating function must be fiberwise linear")


def encode_gamma(dual: Lie2Structure, chart: Chart) -> Poly:
    """Dual-type generating function of a structure on the swapped chart."""
    if dual.chart.rank1 != chart.rank2 or dual.chart.rank2 != chart.rank1:
        raise ValueError("dual structure ranks do not match the base chart")
    n, r1, r2 = chart.base_dim, chart.rank1, chart.rank2
    out = Poly.zero(chart)

    def lift(c: Poly) -> Poly:
        return c.lift(chart)

    for j in range(r2):
        for i in range(n):
            c = lift(dual.mu1[j][i])
            if not c.is_zero:
                out = out + c * (p_(chart, i + 1) * th_dn(chart, j + 1))
    for j in range(r1):
        for i in range(r2):
            c = lift(dual.mu2[j][i])
            if not c.is_zero:
                out = out + c * (th_up(chart, i + 1) * xi_dn(chart, j + 1))
    for i in range(r2):
        for j in range(r2):
            for k in range(r2):
                c = lift(dual.mu3[i][j][k])
                if not c.is_zero:
                    out = out + Fraction(1, 2) * c * (
                        th_up(chart, k + 1) * th_dn(chart, i + 1) * th_dn(chart, j + 1)
                    )
    for i in range(r2):
        for j in range(r1):
            for k in range(r1):
                c = lift(dual.mu4[i][j][k])
                if not c.is_zero:
                    out = out + c * (
                        xi_up(chart, k + 1) * xi_dn(chart, j + 1) * th_dn(chart, i + 1)
                    )
    for i in range(r2):
        for j in range(r2):
            for k in range(r2):
                for l in range(r1):
                    c = lift(dual.mu5[i][j][k][l])
                    if not c.is_zero:
                        out = out + Fraction(1, 6) * c * (
                            xi_up(chart, l + 1)
                            * th_dn(chart, i + 1)
                            * th_dn(chart, j + 1)
                            * th_dn(chart, k + 1)
                        )
    return out


def cochain_one_form_components(alpha: Poly, kind: int, rank: int):
    """Base components of a one-form given as a fiber-linear polynomial."""
    out = [Poly.zero(alpha.chart) for _ in range(rank)]
    for m, c in alpha.terms.items():
        hits = [(pos, idx) for pos, (k, idx, e) in enumerate(m) if k == kind]
        if not hits:
            continue
        pos, idx = hits[0]
        rest = tuple(f for q, f in enumerate(m) if q != pos)
        out[idx - 1] = out[idx - 1] + Poly(alpha.chart, {rest: c})
    return out


def embed1(chart: Chart, uv) -> Poly:
    """E_-1 vector as a polynomial: momentum frame plus coordinate duals."""
    r1, r2 = chart.rank1, chart.rank2
    out = section1(chart, uv[:r1])
    for k in range(r2):
        c = uv[r1 + k]
        c = c if isinstance(c, Poly) else Poly.const(chart, c)
        out = out + c * th_up(chart, k + 1)
    return out


def embed2(chart: Chart, wv) -> Poly:
    r1, r2 = chart.rank1, chart.rank2
    out = section2(chart, wv[:r2])
    for j in range(r1):
        c = wv[r2 + j]
        c = c if isinstance(c, Poly) else Poly.const(chart, c)
        out = out + c * xi_up(chart, j + 1)
    return out


def split1(chart: Chart, p: Poly):
    """Inverse of embed1 for polynomials linear in (xi_, th)."""
    r1, r2 = chart.rank1, chart.rank2
    a = cochain_one_form_components(p, XID, r1)
    b = cochain_one_form_components(p, TH, r2)
    return a + b


def split2(chart: Chart, p: Poly):
    r1, r2 = chart.rank1, chart.rank2
    a = cochain_one_form_components(p, THD, r2)
    b = cochain_one_form_components(p, XI, r1)
    return a + b


def one_form(chart: Chart, a1=None, a2=None) -> Poly:
    """Cochain of a dual section: a1 over the xi frame, a2 over th."""
    out = Poly.zero(chart)
    for j, c in enumerate(a1 or []):
        term = c if isinstance(c, Poly) else Poly.const(chart, c)
        out = out + term * xi_up(chart, j + 1)
    for j, c in enumerate(a2 or []):
        term = c if isinstance(c, Poly) else Poly.const(chart, c)
        out = out + term * th_up(chart, j + 1)
    return out


# -- per-entry decoders -------------------------------------------------------------


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


def check_bialgebroid(pair: BialgebroidPair, derivation_checks=True) -> CheckReport:
    """Nilpotency of the combined function, plus the derivation criterion,
    with every unary image bracketed again for each index pair."""
    rep = CheckReport("bialgebroid")
    combined = poisson_bracket(pair.theta, pair.theta)
    rep.add("bi.nilpotency", "{mu + gamma - shared, same} = 0", combined)
    for td, part in combined.tridegree_components().items():
        rep.add(f"bi.component{list(td)}", f"component {td}", part)
    if not derivation_checks:
        return rep

    s, ch = pair.s, pair.chart
    alg = SAlgebra(s)
    gamma = pair.gamma
    g112 = gamma.project_tridegree((1, 1, 2))

    def delta_star(p: Poly) -> Poly:
        return poisson_bracket(gamma, p)

    def delta(p: Poly) -> Poly:
        return poisson_bracket(alg.mu, p)

    def b2_dual(a: Poly, b: Poly) -> Poly:
        return derived_bracket(g112, [a, b])

    sections = [(xi_dn(ch, i + 1), 2) for i in range(ch.rank1)] + [
        (th_dn(ch, j + 1), 1) for j in range(ch.rank2)
    ]
    for i, (xp, dx) in enumerate(sections):
        for j, (yp, dy) in enumerate(sections):
            lhs = delta_star(alg.b2(xp, yp))
            rhs = -alg.b2(delta_star(xp), yp) + (-1 if dx % 2 else 1) * alg.b2(
                xp, delta_star(yp)
            )
            rep.add(
                f"bi.derivation1[{i + 1},{j + 1}]",
                "delta*[X,Y] = -[delta* X, Y] + (-1)^|X| [X, delta* Y]",
                lhs - rhs,
            )
    duals = [(xi_up(ch, i + 1), 1) for i in range(ch.rank1)] + [
        (th_up(ch, j + 1), 2) for j in range(ch.rank2)
    ]
    for i, (ap, da) in enumerate(duals):
        for j, (bp, db) in enumerate(duals):
            lhs = delta(b2_dual(ap, bp))
            rhs = -b2_dual(delta(ap), bp) + (-1 if da % 2 else 1) * b2_dual(ap, delta(bp))
            rep.add(
                f"bi.derivation2[{i + 1},{j + 1}]",
                "delta[a,b]* = -[delta a, b]* + (-1)^|a| [a, delta b]*",
                lhs - rhs,
            )
    # mixed consequence: the dual binary bracket against exact one-forms
    for mdx in range(ch.base_dim):
        f = x_(ch, mdx + 1)
        dstar_f = poisson_bracket(g112, f)
        for i in range(ch.rank1):
            xp = xi_dn(ch, i + 1)
            lhs = -alg.b2(xp, dstar_f)
            rhs = -poisson_bracket(
                poisson_bracket(g112, poisson_bracket(alg.mu121, f)), xp
            )
            rep.add(
                f"bi.mixed[{mdx + 1},{i + 1}]",
                "L2*_(d f) X = -[X, d* f]",
                lhs - rhs,
            )
    return rep


# -- relative flatness before it read the plain flatness components ---------------


def relative_mc_residual(pair: BialgebroidPair, m: MCElement):
    """Components of the flatness equation twisted by the dual coboundary.

    Normalized so that for the trivial dual the three components reduce
    exactly to the plain flatness components.
    """
    alg = pair.alg
    gamma = pair.gamma
    g211 = gamma.project_tridegree((2, 1, 1))
    g112 = gamma.project_tridegree((1, 1, 2))
    g013 = gamma.project_tridegree((0, 1, 3))
    hp, kp = m.h_poly(), m.k_poly()
    r1 = -poisson_bracket(g211, hp)
    r2 = (
        -poisson_bracket(g211, kp)
        - poisson_bracket(g112, hp)
        + Fraction(1, 2) * alg.b2(hp, hp)
    )
    r3 = (
        -poisson_bracket(g013, hp)
        - poisson_bracket(g112, kp)
        + alg.b2(hp, kp)
        + Fraction(1, 6) * alg.b3(hp, hp, hp)
    )
    return r1, r2, r3
