"""Twisting by degree-3 elements and the dual-structure machinery.

A flat element H + K produces a second generating function

    gamma = mu^(2,1,1) + {mu^(1,2,1), H} + {mu^(1,2,1), K}
            + 1/2 {{mu^(0,3,1), H}, H}

supported in the dual triple gradings (2,1,1), (1,1,2), (0,1,3).  Decoding
a dual-type function yields structure tensors over the role-swapped chart;
for a pair (mu, gamma) sharing the (2,1,1) component the compatibility is
the vanishing of {mu + gamma - mu^(2,1,1), itself}, checked both directly
and through the coboundary-derivation criterion.
"""

from __future__ import annotations

from fractions import Fraction

from .bracket import derived_bracket, poisson_bracket
from .cochains import Calculus, one_form
from .gradedpoly import (
    P,
    TH,
    XI,
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
from .multivectors import MCElement, SAlgebra, mc_residual, section1, section2
from .report import CheckReport
from .structures import (
    GAMMA_TRIDEGREES,
    Lie2Ops,
    Lie2Structure,
    check_lie2_axioms,
    decode_frames,
)

_DUAL_MOMENTA = (P, XI, TH)


def twist_gamma(s: Lie2Structure, m: MCElement) -> Poly:
    """Dual generating function produced by a degree-3 element."""
    alg = SAlgebra(s)
    hp, kp = m.h_poly(), m.k_poly()
    return (
        alg.mu211
        + poisson_bracket(alg.mu121, hp)
        + poisson_bracket(alg.mu121, kp)
        + Fraction(1, 2) * poisson_bracket(poisson_bracket(alg.mu031, hp), hp)
    )


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


def decode_gamma(gamma: Poly, chart: Chart) -> Lie2Structure:
    """Structure tensors of a dual-type function, on the swapped chart.

    The decoded structure has degree -1 frame of size rank2 (the dual of
    the original degree -2 slot) and degree -2 frame of size rank1.
    """
    validate_gamma(gamma)
    return decode_frames(
        [gamma.project_tridegree(t) for t in GAMMA_TRIDEGREES],
        [th_up(chart, j + 1) for j in range(chart.rank2)],
        [xi_up(chart, i + 1) for i in range(chart.rank1)],
        [x_(chart, i + 1) for i in range(chart.base_dim)],
        (TH, XI),
        chart.swapped(),
    )


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


def abelian_gamma(s: Lie2Structure) -> Poly:
    """Dual function of the trivial twist: just the shared component."""
    return SAlgebra(s).mu211


# -- induced dual structure -----------------------------------------------------


def dual_structure_formulas(s: Lie2Structure, m: MCElement) -> Lie2Structure:
    """Componentwise construction of the twisted dual structure.

    Built with the calculus operators only (no decoding), so it can be
    compared against the decoded twist as an independent route:

      unary    = transpose of the original unary map
      binary   (a2, b2)  = L1_(H#a2) b2 - L1_(H#b2) a2
      binary   (a2, b1)  = L1_(H#a2) b1 - L2_(Hn b1) a2 - d H(a2, b1)
      ternary  (a2,b2,c2) = -sum_cyc L2_(Kb(a2,b2)) c2 - 2 d K(a2,b2,c2)
                            + sum_cyc L3_(H#a2, H#b2) c2
      anchor   = a o H#
    """
    ch = s.chart
    n, r1, r2 = ch.base_dim, ch.rank1, ch.rank2
    out = Lie2Structure.zero(ch.swapped())
    calc = Calculus(s)
    ops = Lie2Ops(s)
    ktens = m.k_tensor()

    def th_comps(phi: Poly):
        from .multivectors import cochain_one_form_components

        return [c.lift(out.chart) for c in cochain_one_form_components(phi, TH, r2)]

    def xi_comps(phi: Poly):
        from .multivectors import cochain_one_form_components

        return [c.lift(out.chart) for c in cochain_one_form_components(phi, XI, r1)]

    theta = lambda i: one_form(ch, a2=[1 if q == i else 0 for q in range(r2)])
    xi = lambda j: one_form(ch, a1=[1 if q == j else 0 for q in range(r1)])
    # the sections H#, Hn and K(a, b) the Lie derivatives run along
    hs = [section1(ch, m.h_sharp(i)) for i in range(r2)]
    hn = [section2(ch, m.h_nat(j)) for j in range(r1)]
    kv = [[section2(ch, ktens[a][b]) for b in range(r2)] for a in range(r2)]

    for j in range(r1):
        # dual unary map: transpose of mu2
        for i in range(r2):
            out.mu2[j][i] = s.mu2[i][j].lift(out.chart)
    for i in range(r2):
        hs_i = m.h_sharp(i)
        for mdx in range(n):
            out.mu1[i][mdx] = ops.anchor(hs_i, x_(ch, mdx + 1)).lift(out.chart)
        for j in range(r2):
            val = calc.lie1(hs[i], theta(j)) - calc.lie1(hs[j], theta(i))
            out.mu3[i][j] = th_comps(val)
        for j in range(r1):
            hpair = m.h[j][i]  # H evaluated on the (i, j) dual frame pair
            val = (
                calc.lie1(hs[i], xi(j))
                - calc.lie2(hn[j], theta(i))
                - calc.d(hpair)
            )
            out.mu4[i][j] = xi_comps(val)
        for j in range(r2):
            for k in range(r2):
                val = (
                    -calc.lie2(kv[i][j], theta(k))
                    - calc.lie2(kv[k][i], theta(j))
                    - calc.lie2(kv[j][k], theta(i))
                    - 2 * calc.d(ktens[i][j][k])
                    + calc.lie3(hs[i], hs[j], theta(k))
                    + calc.lie3(hs[j], hs[k], theta(i))
                    + calc.lie3(hs[k], hs[i], theta(j))
                )
                out.mu5[i][j][k] = xi_comps(val)
    return out


def induced_dual_structure(s: Lie2Structure, m: MCElement, require_flat=True):
    """Twisted dual structure, decoded and cross-checked.

    Returns (structure, report); the report includes the flatness gate,
    the dual nilpotency, and the componentwise-formula comparison.
    """
    rep = CheckReport("induced-dual")
    res = mc_residual(s, m)
    flat = all(r.is_zero for r in res)
    rep.add_flag("dual.flat", "twisting element satisfies the flatness equation", flat,
                 "; ".join(r.render() for r in res if not r.is_zero))
    if require_flat and not flat:
        raise ValueError("twisting element is not flat")
    gamma = twist_gamma(s, m)
    rep.add("dual.nilpotency", "{gamma, gamma} = 0", poisson_bracket(gamma, gamma))
    decoded = decode_gamma(gamma, s.chart)
    direct = dual_structure_formulas(s, m)
    rep.add_flag(
        "dual.formulas",
        "decoded twist equals the componentwise construction",
        decoded.equals(direct),
        "tensor mismatch between decode and calculus formulas",
    )
    axioms = check_lie2_axioms(decoded)
    rep.add_flag("dual.axioms", "twisted dual satisfies the structure axioms",
                 axioms.passed, "; ".join(r.check_id for r in axioms.failures[:5]))
    return decoded, rep


# -- compatible pairs -----------------------------------------------------------


class BialgebroidPair:
    """A structure and a dual structure sharing the (2,1,1) component."""

    def __init__(self, s: Lie2Structure, dual: Lie2Structure):
        self.s = s
        self.dual = dual
        self.chart = s.chart
        if dual.chart != s.chart.swapped():
            raise ValueError("dual structure must live on the swapped chart")
        self.mu = SAlgebra(s).mu
        self.gamma = encode_gamma(dual, s.chart)
        self.mu211 = self.mu.project_tridegree((2, 1, 1))
        g211 = self.gamma.project_tridegree((2, 1, 1))
        if self.mu211 != g211:
            raise ValueError("pair does not share its (2,1,1) component")
        self.theta = self.mu + self.gamma - self.mu211

    @staticmethod
    def from_twist(s: Lie2Structure, m: MCElement) -> "BialgebroidPair":
        dual, _ = induced_dual_structure(s, m)
        return BialgebroidPair(s, dual)

    @staticmethod
    def abelian(s: Lie2Structure) -> "BialgebroidPair":
        return BialgebroidPair(s, decode_gamma(abelian_gamma(s), s.chart))


def check_bialgebroid(pair: BialgebroidPair, derivation_checks=True) -> CheckReport:
    """Nilpotency of the combined function, plus the derivation criterion."""
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
    g013 = gamma.project_tridegree((0, 1, 3))

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


def mce1_condition_check(s: Lie2Structure, m: MCElement) -> CheckReport:
    """The three bracket conditions for a flat twist to give a compatible pair."""
    rep = CheckReport("twist-compatibility")
    alg = SAlgebra(s)
    hp, kp = m.h_poly(), m.k_poly()
    rep.add(
        "mce1.1",
        "{shared, {ternary-part, H}} = 0",
        poisson_bracket(alg.mu211, poisson_bracket(alg.mu031, hp)),
    )
    rep.add(
        "mce1.2",
        "{binary-part, {ternary-part, H}} = 0",
        poisson_bracket(alg.mu121, poisson_bracket(alg.mu031, hp)),
    )
    rep.add(
        "mce1.3",
        "{ternary-part, {shared, K}} = 0",
        poisson_bracket(alg.mu031, poisson_bracket(alg.mu211, kp)),
    )
    return rep


# -- relative flatness over a pair ----------------------------------------------


def relative_mc_residual(pair: BialgebroidPair, m: MCElement):
    """Components of the flatness equation twisted by the dual coboundary.

    Normalized so that for the trivial dual the three components reduce
    exactly to the plain flatness components.
    """
    alg = SAlgebra(pair.s)
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


def relative_mc_report(pair: BialgebroidPair, m: MCElement) -> CheckReport:
    rep = CheckReport("relative-maurer-cartan")
    r1, r2, r3 = relative_mc_residual(pair, m)
    rep.add("gmc.1", "unary twist component vanishes", r1)
    rep.add("gmc.2", "-d* K - d* H + 1/2 [H,H] component vanishes", r2)
    rep.add("gmc.3", "cubic component vanishes", r3)
    return rep


def lambda_function(pair: BialgebroidPair, m: MCElement) -> Poly:
    return pair.gamma + twist_gamma(pair.s, m) - pair.mu211


def lambda_nilpotency(pair: BialgebroidPair, m: MCElement):
    """Combined twist function; returns (report, decoded structure or None)."""
    rep = CheckReport("combined-twist")
    lam = lambda_function(pair, m)
    residual = poisson_bracket(lam, lam)
    rep.add("lambda.nilpotency", "{Lambda, Lambda} = 0", residual)
    decoded = None
    if residual.is_zero:
        decoded = decode_gamma(lam, pair.chart)
        axioms = check_lie2_axioms(decoded)
        rep.add_flag(
            "lambda.axioms",
            "decoded combined twist satisfies the structure axioms",
            axioms.passed,
            "; ".join(r.check_id for r in axioms.failures[:5]),
        )
    return rep, decoded
