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

from .bracket import poisson_bracket
from .gradedpoly import (
    TH,
    XI,
    Chart,
    Poly,
    th_dn,
    th_up,
    x_,
    xi_dn,
    xi_up,
)
from .multivectors import BracketMemo, MCElement, SAlgebra, mc_residual, section1, section2
from .report import CheckReport
from .structures import (
    GAMMA_TRIDEGREES,
    Lie2Ops,
    Lie2Structure,
    check_lie2_axioms,
    decode_frames,
    encode_frames,
    linear_components,
    validate_generating_function,
)


def twist_gamma(alg: SAlgebra, m: MCElement) -> Poly:
    """Dual generating function produced by a degree-3 element, bracketed
    through the algebra's memo; induced_dual_structure runs mc_residual
    first, which puts {mu121, H} and {{mu031, H}, H} there."""
    hp, kp = m.h_poly(), m.k_poly()
    return (
        alg.mu211
        + alg.d_part(hp)
        + alg.d_part(kp)
        + Fraction(1, 2) * alg.nested(alg.mu031, hp, hp)
    )


def decode_gamma(gamma: Poly, chart: Chart) -> Lie2Structure:
    """Structure tensors of a dual-type function, on the swapped chart.

    The decoded structure has degree -1 frame of size rank2 (the dual of
    the original degree -2 slot) and degree -2 frame of size rank1.
    """
    validate_generating_function(gamma, GAMMA_TRIDEGREES, "dual ")
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
    return encode_frames(dual, chart, th_dn, xi_dn, th_up, xi_up)


# -- induced dual structure -----------------------------------------------------


def dual_structure_formulas(alg: SAlgebra, m: MCElement) -> Lie2Structure:
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
    s = alg.s
    ch = s.chart
    n, r1, r2 = ch.base_dim, ch.rank1, ch.rank2
    out = Lie2Structure.zero(ch.swapped())
    ops = Lie2Ops(s)
    # the Lie derivatives L1, L2, L3 and d (see SAlgebra)
    lie1, lie2, lie3, d = alg.b2, alg.b2, alg.b3, alg.d_part
    ktens = m.k_tensor()

    th_comps = lambda phi: linear_components(phi, TH, r2, out.chart)
    xi_comps = lambda phi: linear_components(phi, XI, r1, out.chart)
    theta = lambda i: th_up(ch, i + 1)
    xi = lambda j: xi_up(ch, j + 1)
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
            val = lie1(hs[i], theta(j)) - lie1(hs[j], theta(i))
            out.mu3[i][j] = th_comps(val)
        for j in range(r1):
            hpair = m.h[j][i]  # H evaluated on the (i, j) dual frame pair
            val = (
                lie1(hs[i], xi(j))
                - lie2(hn[j], theta(i))
                - d(hpair)
            )
            out.mu4[i][j] = xi_comps(val)
        for j in range(r2):
            for k in range(r2):
                val = (
                    -lie2(kv[i][j], theta(k))
                    - lie2(kv[k][i], theta(j))
                    - lie2(kv[j][k], theta(i))
                    - 2 * d(ktens[i][j][k])
                    + lie3(hs[i], hs[j], theta(k))
                    + lie3(hs[j], hs[k], theta(i))
                    + lie3(hs[k], hs[i], theta(j))
                )
                out.mu5[i][j][k] = xi_comps(val)
    return out


def induced_dual_structure(alg: SAlgebra, m: MCElement):
    """Twisted dual structure, decoded and cross-checked.

    Returns (structure, gamma, report): gamma is the twisted generating
    function the structure decodes from; the report includes the flatness
    gate, the dual nilpotency, and the componentwise-formula comparison.
    Raises ValueError when m is not flat.
    """
    rep = CheckReport("induced-dual")
    res = mc_residual(alg, m)
    flat = all(r.is_zero for r in res)
    rep.add_flag("dual.flat", "twisting element satisfies the flatness equation", flat,
                 "; ".join(r.render() for r in res if not r.is_zero))
    if not flat:
        raise ValueError("twisting element is not flat")
    gamma = twist_gamma(alg, m)
    rep.add("dual.nilpotency", "{gamma, gamma} = 0", poisson_bracket(gamma, gamma))
    decoded = decode_gamma(gamma, alg.chart)
    direct = dual_structure_formulas(alg, m)
    rep.add_flag(
        "dual.formulas",
        "decoded twist equals the componentwise construction",
        decoded.equals(direct),
        "tensor mismatch between decode and calculus formulas",
    )
    axioms = check_lie2_axioms(decoded)
    rep.add_flag("dual.axioms", "twisted dual satisfies the structure axioms",
                 axioms.passed, "; ".join(r.check_id for r in axioms.failures[:5]))
    return decoded, gamma, rep


# -- compatible pairs -----------------------------------------------------------


class BialgebroidPair(BracketMemo):
    """A structure and a dual structure sharing the (2,1,1) component.

    alg is the SAlgebra of the structure, shared by the checks of the pair;
    its memo keys the structure's generating functions.  The dual's, gamma
    and its components g112 and g013, go through the pair's own memo
    (nested), which lives and dies with the pair.
    """

    def __init__(self, alg: SAlgebra, dual: Lie2Structure):
        super().__init__()
        self.alg = alg
        self.s = alg.s
        self.dual = dual
        self.chart = alg.chart
        if dual.chart != self.chart.swapped():
            raise ValueError("dual structure must live on the swapped chart")
        self.mu211 = alg.mu211
        self.gamma = encode_gamma(dual, self.chart)
        if self.gamma.project_tridegree((2, 1, 1)) != self.mu211:
            raise ValueError("pair does not share its (2,1,1) component")
        self.g112 = self.gamma.project_tridegree((1, 1, 2))
        self.g013 = self.gamma.project_tridegree((0, 1, 3))
        self.theta = alg.mu + self.gamma - self.mu211

    @staticmethod
    def from_twist(s: Lie2Structure, m: MCElement) -> "BialgebroidPair":
        alg = SAlgebra(s)
        return BialgebroidPair(alg, induced_dual_structure(alg, m)[0])

    @staticmethod
    def abelian(s: Lie2Structure) -> "BialgebroidPair":
        """The trivial dual: its function is just the shared component."""
        alg = SAlgebra(s)
        return BialgebroidPair(alg, decode_gamma(alg.mu211, s.chart))


def check_bialgebroid(pair: BialgebroidPair, derivation_checks=True) -> CheckReport:
    """Nilpotency of the combined function, plus the derivation criterion."""
    rep = CheckReport("bialgebroid")
    combined = poisson_bracket(pair.theta, pair.theta)
    rep.add("bi.nilpotency", "{mu + gamma - shared, same} = 0", combined)
    for td, part in combined.tridegree_components().items():
        rep.add(f"bi.component{list(td)}", f"component {td}", part)
    if not derivation_checks:
        return rep

    ch, alg, g112 = pair.chart, pair.alg, pair.g112
    dstar = lambda p: pair.nested(pair.gamma, p)  # delta* = {gamma, .}
    delta = lambda p: alg.nested(alg.mu, p)
    sections = [(xi_dn(ch, i + 1), 2) for i in range(ch.rank1)] + [
        (th_dn(ch, j + 1), 1) for j in range(ch.rank2)
    ]
    for i, (xp, dx) in enumerate(sections):
        for j, (yp, _) in enumerate(sections):
            lhs = dstar(alg.b2(xp, yp))
            rhs = -alg.b2(dstar(xp), yp) + (-1 if dx % 2 else 1) * alg.b2(xp, dstar(yp))
            rep.add(
                f"bi.derivation1[{i + 1},{j + 1}]",
                "delta*[X,Y] = -[delta* X, Y] + (-1)^|X| [X, delta* Y]",
                lhs - rhs,
            )
    # [a, b]* = -{{g112, a}, b}
    duals = [(xi_up(ch, i + 1), 1) for i in range(ch.rank1)] + [
        (th_up(ch, j + 1), 2) for j in range(ch.rank2)
    ]
    for i, (ap, da) in enumerate(duals):
        for j, (bp, _) in enumerate(duals):
            lhs = delta(-pair.nested(g112, ap, bp))
            rhs = pair.nested(g112, delta(ap), bp) - (-1 if da % 2 else 1) * pair.nested(
                g112, ap, delta(bp))
            rep.add(
                f"bi.derivation2[{i + 1},{j + 1}]",
                "delta[a,b]* = -[delta a, b]* + (-1)^|a| [a, delta b]*",
                lhs - rhs,
            )
    # mixed consequence: the dual binary bracket against exact one-forms
    for mdx in range(ch.base_dim):
        f = x_(ch, mdx + 1)
        dstar_f = pair.nested(g112, f)
        df = alg.d_part(f)
        for i in range(ch.rank1):
            xp = xi_dn(ch, i + 1)
            lhs = -alg.b2(xp, dstar_f)
            rhs = -pair.nested(g112, df, xp)
            rep.add(
                f"bi.mixed[{mdx + 1},{i + 1}]",
                "L2*_(d f) X = -[X, d* f]",
                lhs - rhs,
            )
    return rep


def mce1_condition_check(alg: SAlgebra, m: MCElement) -> CheckReport:
    """The three bracket conditions for a flat twist to give a compatible pair."""
    rep = CheckReport("twist-compatibility")
    hp, kp = m.h_poly(), m.k_poly()
    ternary_h = alg.nested(alg.mu031, hp)
    rep.add("mce1.1", "{shared, {ternary-part, H}} = 0", alg.nested(alg.mu211, ternary_h))
    rep.add("mce1.2", "{binary-part, {ternary-part, H}} = 0", alg.d_part(ternary_h))
    rep.add("mce1.3", "{ternary-part, {shared, K}} = 0",
            alg.nested(alg.mu031, alg.nested(alg.mu211, kp)))
    return rep


# -- relative flatness over a pair ----------------------------------------------


def relative_mc_residual(pair: BialgebroidPair, m: MCElement):
    """Components of the flatness equation twisted by the dual coboundary.

    The plain flatness components minus the dual pieces {g112, H} and
    {g013, H} + {g112, K}; the pair shares its (2,1,1) component, so the
    first component is the plain one, and for the trivial dual all three
    are.
    """
    hp, kp = m.h_poly(), m.k_poly()
    r1, r2, r3 = mc_residual(pair.alg, m)
    return (
        r1,
        r2 - pair.nested(pair.g112, hp),
        r3 - pair.nested(pair.g013, hp) - pair.nested(pair.g112, kp),
    )


def relative_mc_report(pair: BialgebroidPair, m: MCElement) -> CheckReport:
    rep = CheckReport("relative-maurer-cartan")
    r1, r2, r3 = relative_mc_residual(pair, m)
    rep.add("gmc.1", "unary twist component vanishes", r1)
    rep.add("gmc.2", "-d* K - d* H + 1/2 [H,H] component vanishes", r2)
    rep.add("gmc.3", "cubic component vanishes", r3)
    return rep


def lambda_function(pair: BialgebroidPair, m: MCElement) -> Poly:
    return pair.gamma + twist_gamma(pair.alg, m) - pair.mu211


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
