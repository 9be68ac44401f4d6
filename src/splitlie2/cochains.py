"""Differential calculus on fiber-coordinate polynomials (cochains).

A cochain is a polynomial in the base variables and the two coordinate
frames xi (wedge slots, odd) and th (symmetric slots, even); a (p, q)
cochain has p wedge slots, q symmetric slots and total degree p + 2q.
The operators are those of SAlgebra: delta = {mu, .}, whose triple-grading
pieces move (p, q) by (-1, +1), (+1, 0) (this one is d_part) and (+3, -1),
and the Lie derivatives L0 = b1, L1 = L2 = b2, L3 = b3 along embedded
sections.  Here are the slot contraction iota, cochain generators, and
verify_calculus_identities, which checks every identity as a residual.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .bracket import poisson_bracket
from .gradedpoly import (
    TH,
    X,
    XI,
    Chart,
    Poly,
    mono_from_sequence,
    th_up,
    x_,
    xi_up,
)
from .multivectors import SAlgebra, contract, frame_section, section1, section2
from .report import CheckReport
from .structures import Lie2Ops, Lie2Structure


def bidegree(p: Poly):
    """(wedge, symmetric) bidegree of a homogeneous cochain, else None."""
    seen = set()
    for m in p.terms:
        pq = (
            sum(e for k, _, e in m if k == XI),
            sum(e for k, _, e in m if k == TH),
        )
        seen.add(pq)
    if not seen:
        return (0, 0)
    return seen.pop() if len(seen) == 1 else None


def one_form(chart: Chart, a1=None, a2=None) -> Poly:
    """Cochain of a dual section: a1 over the xi frame, a2 over th."""
    return frame_section(chart, a1 or (), xi_up) + frame_section(chart, a2 or (), th_up)


def iota(xv, mv, phi: Poly) -> Poly:
    """Slot contraction of phi with the section (xv, mv); either may be None."""
    return contract(phi, {k: v for k, v in ((XI, xv), (TH, mv)) if v is not None})


def random_cochain(chart: Chart, rng: random.Random):
    """Up to three random monomials of degree <= 5 and base degree <= 2; never 0."""
    acc = {}
    for _ in range(rng.randint(1, 3)):
        deg = rng.randint(0, 5)
        d = 0
        factors = []
        guard = 0
        while d < deg and guard < 50:
            guard += 1
            k = rng.choice((XI, TH, XI))
            if chart.kind_rank(k) == 0:
                continue
            idx = rng.randint(1, chart.kind_rank(k))
            kd = 1 if k == XI else 2
            if d + kd > deg:
                continue
            if k == XI and (XI, idx) in factors:
                continue
            factors.append((k, idx))
            d += kd
        if d != deg:
            continue
        for _ in range(rng.randint(0, 2)):
            if chart.base_dim:
                factors.append((X, rng.randint(1, chart.base_dim)))
        sign, mono = mono_from_sequence(factors)
        if sign == 0:
            continue
        acc[mono] = acc.get(mono, 0) + sign * Fraction(rng.randint(-4, 4) or 1)
    p = Poly(chart, acc)
    return p if not p.is_zero else Poly.const(chart, 1)


def monomial_cochains(chart: Chart, max_degree=5):
    """All fiber-coordinate monomials of total degree <= max_degree."""
    gens = [(XI, i, 1) for i in range(1, chart.rank1 + 1)] + [
        (TH, i, 2) for i in range(1, chart.rank2 + 1)
    ]
    out = [Poly.const(chart, 1)]
    seen = set()
    frontier = [((), 0)]
    while frontier:
        pairs, deg = frontier.pop()
        for k, idx, kd in gens:
            if deg + kd > max_degree:
                continue
            seq = list(pairs) + [(k, idx)]
            sign, m2 = mono_from_sequence(seq)
            if sign == 0 or m2 in seen:
                continue
            seen.add(m2)
            out.append(Poly(chart, {m2: Fraction(1)}))
            frontier.append((tuple(sorted(seq)), deg + kd))
    return out


def verify_calculus_identities(s: Lie2Structure, cochain_count=50, seed=0) -> CheckReport:
    """All operator identities of the calculus, on frames and random cochains."""
    rep = CheckReport("calculus-identities")
    alg = SAlgebra(s)
    ops = Lie2Ops(s)
    # the Lie derivatives L0..L3 and d (see SAlgebra)
    lie0, lie1, lie2, lie3, d = alg.b1, alg.b2, alg.b2, alg.b3, alg.d_part
    ch = s.chart
    r1, r2, n = ch.rank1, ch.rank2, ch.base_dim
    rng = random.Random(seed)
    # frame vectors, and the sections the Lie derivatives run along, built once
    units = ops.units  # the brackets of the unit frames: the tensors of s
    e, f = units.b1, units.b2
    se = [section1(ch, v) for v in e]
    sf = [section2(ch, v) for v in f]
    # function-linearity rules, f running over 1 and the coordinates
    fns = [Poly.const(ch, 1)] + [x_(ch, m + 1) for m in range(n)]
    fse = [[fn * x for x in se] for fn in fns]  # the sections f e_i
    fsf = [[fn * m for m in sf] for fn in fns]
    l11, l12 = units.l11, units.l12
    s11 = [[section1(ch, v) for v in row] for row in l11]
    s12 = [[section2(ch, v) for v in row] for row in l12]
    sd = [section1(ch, v) for v in units.l1]

    # square-zero on all low-degree monomial cochains
    for t, phi in enumerate(monomial_cochains(ch, max_degree=5)):
        rep.add(f"delta.square[{t}]", "delta(delta(phi)) = 0", alg.delta(alg.delta(phi)))

    # graded pieces move the bidegree as stated
    probe = monomial_cochains(ch, max_degree=4)
    for t, phi in enumerate(probe):
        pq = bidegree(phi)
        for name, gen, shift in (
            ("bar", alg.mu211, (-1, 1)),
            ("d", alg.mu121, (1, 0)),
            ("hat", alg.mu031, (3, -1)),
        ):
            img = poisson_bracket(gen, phi)
            if img.is_zero:
                continue
            ok = bidegree(img) == (pq[0] + shift[0], pq[1] + shift[1])
            rep.add_flag(
                f"delta.{name}.bidegree[{t}]",
                f"{name}-piece shifts the bidegree by {shift}",
                ok,
                img.render(),
            )

    cochains = [random_cochain(ch, rng) for _ in range(cochain_count)]
    for t, phi in enumerate(cochains):
        alg.clear_memo()
        psi = cochains[(t + 1) % len(cochains)]
        k = phi.degree()
        if k == "inhomogeneous":
            continue
        sgn = -1 if k % 2 else 1
        rep.add(
            f"delta.derivation[{t}]",
            "delta(phi psi) = delta(phi) psi + (-1)^k phi delta(psi)",
            alg.delta(phi * psi) - (alg.delta(phi) * psi + sgn * (phi * alg.delta(psi))),
        )
        for i in range(r1):
            rep.add(
                f"cartan.L1[{t},{i + 1}]",
                "L1_x phi = i_x d phi + d i_x phi",
                lie1(se[i], phi) - (iota(e[i], None, d(phi)) + d(iota(e[i], None, phi))),
            )
            rep.add(
                f"lie.L1.derivation[{t},{i + 1}]",
                "L1_x (phi psi) = (L1_x phi) psi + phi (L1_x psi)",
                lie1(se[i], phi * psi)
                - (lie1(se[i], phi) * psi + phi * lie1(se[i], psi)),
            )
            j2 = (i + 1) % r1
            rep.add(
                f"lie.L3.derivation[{t},{i + 1}]",
                "L3_(x,y) (phi psi) = (L3 phi) psi + (-1)^k phi (L3 psi)",
                lie3(se[i], se[j2], phi * psi)
                - (lie3(se[i], se[j2], phi) * psi + sgn * (phi * lie3(se[i], se[j2], psi))),
            )
        for j in range(r2):
            rep.add(
                f"cartan.L2[{t},{j + 1}]",
                "L2_m phi = i_m d phi - d i_m phi",
                lie2(sf[j], phi) - (iota(None, f[j], d(phi)) - d(iota(None, f[j], phi))),
            )
            rep.add(
                f"lie.L2.derivation[{t},{j + 1}]",
                "L2_m (phi psi) = (L2_m phi) psi + (-1)^k phi (L2_m psi)",
                lie2(sf[j], phi * psi)
                - (lie2(sf[j], phi) * psi + sgn * (phi * lie2(sf[j], psi))),
            )
        for fi, fn in enumerate(fns):
            for i in range(r1):
                rep.add(
                    f"lie.L1.fun[{t},{fi},{i + 1}]",
                    "L1_x (f phi) = f L1_x phi + a(x)(f) phi",
                    lie1(se[i], fn * phi)
                    - (fn * lie1(se[i], phi) + ops.anchor(e[i], fn) * phi),
                )
                rep.add(
                    f"lie.L1.fsec[{t},{fi},{i + 1}]",
                    "L1_(f x) phi = f L1_x phi + d f * i_x phi",
                    lie1(fse[fi][i], phi)
                    - (fn * lie1(se[i], phi) + d(fn) * iota(e[i], None, phi)),
                )
            for j in range(r2):
                rep.add(
                    f"lie.L2.fun[{t},{fi},{j + 1}]",
                    "L2_m (f phi) = f L2_m phi",
                    lie2(sf[j], fn * phi) - fn * lie2(sf[j], phi),
                )
                rep.add(
                    f"lie.L2.fsec[{t},{fi},{j + 1}]",
                    "L2_(f m) phi = f L2_m phi - d f * i_m phi",
                    lie2(fsf[fi][j], phi)
                    - (fn * lie2(sf[j], phi) - d(fn) * iota(None, f[j], phi)),
                )
    # mixed commutator identities on frame sections and random cochains
    for t in range(min(cochain_count, 12)):
        alg.clear_memo()
        phi = cochains[t % len(cochains)]
        for i in range(r1):
            for j in range(r1):
                lhs = (
                    lie1(s11[i][j], phi)
                    - lie1(se[i], lie1(se[j], phi))
                    + lie1(se[j], lie1(se[i], phi))
                )
                rhs = -lie3(se[i], se[j], lie0(phi)) - lie0(lie3(se[i], se[j], phi))
                rep.add(
                    f"lie.commutator11[{t},{i + 1},{j + 1}]",
                    "L1_(l2(x,y)) - [L1_x, L1_y] = -L3_(x,y) L0 - L0 L3_(x,y)",
                    lhs - rhs,
                )
        for i in range(r1):
            for j in range(r2):
                lhs = (
                    lie2(s12[i][j], phi)
                    - lie1(se[i], lie2(sf[j], phi))
                    + lie2(sf[j], lie1(se[i], phi))
                )
                rhs = -lie3(sd[j], se[i], phi)
                rep.add(
                    f"lie.commutator12[{t},{i + 1},{j + 1}]",
                    "L2_(l2(x,m)) - [L1_x, L2_m] = -L3_(d m, x)",
                    lhs - rhs,
                )
    # contraction identities on dual frame sections
    alphas = [xi_up(ch, a + 1) for a in range(r1)]
    betas = [th_up(ch, b + 1) for b in range(r2)]
    d_alphas = [d(alpha) for alpha in alphas]
    d_betas = [d(beta) for beta in betas]
    for i in range(r1):
        for j in range(r1):
            for a, (alpha, d_alpha) in enumerate(zip(alphas, d_alphas)):
                lhs = (
                    iota(l11[i][j], None, d_alpha)
                    - lie1(se[i], iota(e[j], None, d_alpha))
                    + iota(e[j], None, lie1(se[i], d_alpha))
                )
                rhs = -lie3(se[i], se[j], lie0(alpha))
                rep.add(
                    f"iota.rel1[{i + 1},{j + 1},{a + 1}]",
                    "i_(l2(x,y)) d a1 - L1_x i_y d a1 + i_y L1_x d a1 = -L3_(x,y) L0 a1",
                    lhs - rhs,
                )
            for b, (beta, d_beta) in enumerate(zip(betas, d_betas)):
                lhs = (
                    iota(l11[i][j], None, d_beta)
                    - lie1(se[i], iota(e[j], None, d_beta))
                    + iota(e[j], None, lie1(se[i], d_beta))
                )
                rhs = -lie0(lie3(se[i], se[j], beta))
                rep.add(
                    f"iota.rel2[{i + 1},{j + 1},{b + 1}]",
                    "i_(l2(x,y)) d a2 - L1_x i_y d a2 + i_y L1_x d a2 = -L0 L3_(x,y) a2",
                    lhs - rhs,
                )
    for i in range(r1):
        for j in range(r2):
            for b, (beta, d_beta) in enumerate(zip(betas, d_betas)):
                lhs = (
                    iota(None, l12[i][j], d_beta)
                    - lie1(se[i], iota(None, f[j], d_beta))
                    + iota(None, f[j], lie1(se[i], d_beta))
                )
                rhs = -lie3(sd[j], se[i], beta)
                rep.add(
                    f"iota.rel3[{i + 1},{j + 1},{b + 1}]",
                    "i_(l2(x,m)) d a2 - L1_x i_m d a2 + i_m L1_x d a2 = -L3_(d m, x) a2",
                    lhs - rhs,
                )
    return rep

