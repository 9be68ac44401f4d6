"""The pair checks as they bracketed before the pair kept a memo.

``twist_gamma``, ``mce1_condition_check``, ``check_bialgebroid`` and
``relative_mc_residual`` are verbatim copies of the functions of
``splitlie2.twisting`` that took every bracket whose first argument is a
generating function with a raw ``poisson_bracket`` call, and kept the unary
images of ``check_bialgebroid`` in hand-written prefix lists.  The
package now takes those brackets through ``SAlgebra.nested`` and
``BialgebroidPair.nested``; ``test_twisting.py`` compares the reports and
residuals of both on the builtin pairs, on perturbed duals and on a
seeded dual.  This module is test-only; the package keeps one
implementation.
"""

from fractions import Fraction

from splitlie2.bracket import poisson_bracket
from splitlie2.gradedpoly import Poly, th_dn, th_up, x_, xi_dn, xi_up
from splitlie2.multivectors import MCElement, SAlgebra, mc_residual
from splitlie2.report import CheckReport
from splitlie2.twisting import BialgebroidPair


def twist_gamma(alg: SAlgebra, m: MCElement) -> Poly:
    """Dual generating function produced by a degree-3 element."""
    hp, kp = m.h_poly(), m.k_poly()
    return (
        alg.mu211
        + poisson_bracket(alg.mu121, hp)
        + poisson_bracket(alg.mu121, kp)
        + Fraction(1, 2) * poisson_bracket(poisson_bracket(alg.mu031, hp), hp)
    )


def check_bialgebroid(pair: BialgebroidPair, derivation_checks=True) -> CheckReport:
    """Nilpotency of the combined function, plus the derivation criterion."""
    rep = CheckReport("bialgebroid")
    combined = poisson_bracket(pair.theta, pair.theta)
    rep.add("bi.nilpotency", "{mu + gamma - shared, same} = 0", combined)
    for td, part in combined.tridegree_components().items():
        rep.add(f"bi.component{list(td)}", f"component {td}", part)
    if not derivation_checks:
        return rep

    ch, alg = pair.chart, pair.alg
    gamma = pair.gamma
    g112 = gamma.project_tridegree((1, 1, 2))

    # every unary image is taken once per call, as a list over its frame
    sections = [(xi_dn(ch, i + 1), 2) for i in range(ch.rank1)] + [
        (th_dn(ch, j + 1), 1) for j in range(ch.rank2)
    ]
    dstar_img = [poisson_bracket(gamma, xp) for xp, _ in sections]
    for i, (xp, dx) in enumerate(sections):
        for j, (yp, _) in enumerate(sections):
            lhs = poisson_bracket(gamma, alg.b2(xp, yp))
            rhs = -alg.b2(dstar_img[i], yp) + (-1 if dx % 2 else 1) * alg.b2(xp, dstar_img[j])
            rep.add(
                f"bi.derivation1[{i + 1},{j + 1}]",
                "delta*[X,Y] = -[delta* X, Y] + (-1)^|X| [X, delta* Y]",
                lhs - rhs,
            )
    # [a, b]* = -{{g112, a}, b}, with the prefix {g112, a} shared
    duals = [(xi_up(ch, i + 1), 1) for i in range(ch.rank1)] + [
        (th_up(ch, j + 1), 2) for j in range(ch.rank2)
    ]
    delta_img = [poisson_bracket(alg.mu, ap) for ap, _ in duals]
    g_img = [poisson_bracket(g112, ap) for ap, _ in duals]
    g_delta_img = [poisson_bracket(g112, v) for v in delta_img]
    for i, (_, da) in enumerate(duals):
        for j, (bp, _) in enumerate(duals):
            lhs = poisson_bracket(alg.mu, -poisson_bracket(g_img[i], bp))
            rhs = poisson_bracket(g_delta_img[i], bp) - (-1 if da % 2 else 1) * poisson_bracket(
                g_img[i], delta_img[j])
            rep.add(
                f"bi.derivation2[{i + 1},{j + 1}]",
                "delta[a,b]* = -[delta a, b]* + (-1)^|a| [a, delta b]*",
                lhs - rhs,
            )
    # mixed consequence: the dual binary bracket against exact one-forms
    for mdx in range(ch.base_dim):
        f = x_(ch, mdx + 1)
        dstar_f = poisson_bracket(g112, f)
        g_df = poisson_bracket(g112, poisson_bracket(alg.mu121, f))
        for i in range(ch.rank1):
            xp = xi_dn(ch, i + 1)
            lhs = -alg.b2(xp, dstar_f)
            rhs = -poisson_bracket(g_df, xp)
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


def relative_mc_residual(pair: BialgebroidPair, m: MCElement):
    """Components of the flatness equation twisted by the dual coboundary.

    The plain flatness components minus the dual pieces {g112, H} and
    {g013, H} + {g112, K}; the pair shares its (2,1,1) component, so the
    first component is the plain one, and for the trivial dual all three
    are.
    """
    g112 = pair.gamma.project_tridegree((1, 1, 2))
    g013 = pair.gamma.project_tridegree((0, 1, 3))
    hp, kp = m.h_poly(), m.k_poly()
    r1, r2, r3 = mc_residual(pair.alg, m)
    return (
        r1,
        r2 - poisson_bracket(g112, hp),
        r3 - poisson_bracket(g013, hp) - poisson_bracket(g112, kp),
    )
