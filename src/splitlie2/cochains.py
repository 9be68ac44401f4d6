"""Differential calculus on fiber-coordinate polynomials (cochains).

A cochain is a polynomial in the base variables and the two coordinate
frames xi (wedge slots, odd) and th (symmetric slots, even); a (p, q)
cochain has p wedge slots, q symmetric slots and total degree p + 2q.
The coboundary is the bracket with the generating function and splits by
the triple grading into three pieces moving (p, q) by (-1, +1), (+1, 0)
and (+3, -1).  Lie derivatives along sections and the slot contraction
complete the calculus; every identity they satisfy is available as a
runnable residual check.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .bracket import poisson_bracket
from .gradedpoly import (
    TH,
    THD,
    UNK,
    X,
    XI,
    XID,
    Chart,
    Poly,
    mono_from_sequence,
    th_up,
    x_,
    xi_up,
)
from .multivectors import SAlgebra, contract, section1, section2
from .report import CheckReport
from .structures import Lie2Ops, Lie2Structure, basis_vector

COCHAIN_KINDS = {X, XI, TH, UNK}


class CochainError(ValueError):
    pass


def is_cochain(p: Poly) -> bool:
    return p.kinds_used() <= COCHAIN_KINDS


def _require_cochain(p: Poly):
    if not is_cochain(p):
        raise CochainError("momentum variable present in a cochain")


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
    out = Poly.zero(chart)
    for j, c in enumerate(a1 or []):
        term = c if isinstance(c, Poly) else Poly.const(chart, c)
        out = out + term * xi_up(chart, j + 1)
    for j, c in enumerate(a2 or []):
        term = c if isinstance(c, Poly) else Poly.const(chart, c)
        out = out + term * th_up(chart, j + 1)
    return out


def coboundary(s: Lie2Structure, phi: Poly, part: str = "all") -> Poly:
    """delta(phi) = {mu, phi}, or one of its graded pieces."""
    _require_cochain(phi)
    alg = SAlgebra(s)
    gen = {
        "all": alg.mu,
        "bar": alg.mu211,
        "d": alg.mu121,
        "hat": alg.mu031,
    }[part]
    return poisson_bracket(gen, phi)


class Calculus:
    """Cached operators of one structure acting on cochains."""

    def __init__(self, s: Lie2Structure):
        self.s = s
        self.chart = s.chart
        self.alg = SAlgebra(s)
        self.ops = Lie2Ops(s)

    # coboundary pieces
    def delta(self, phi):
        _require_cochain(phi)
        return poisson_bracket(self.alg.mu, phi)

    def dbar(self, phi):
        _require_cochain(phi)
        return poisson_bracket(self.alg.mu211, phi)

    def d(self, phi):
        _require_cochain(phi)
        return poisson_bracket(self.alg.mu121, phi)

    def dhat(self, phi):
        _require_cochain(phi)
        return poisson_bracket(self.alg.mu031, phi)

    # Lie derivatives along embedded sections: x, y = section1(chart, xv),
    # m = section2(chart, mv); the caller embeds a section once and reuses it
    def lie0(self, phi):
        _require_cochain(phi)
        return self.alg.b1(phi)

    def lie1(self, x: Poly, phi):
        _require_cochain(phi)
        return self.alg.b2(x, phi)

    def lie2(self, m: Poly, phi):
        _require_cochain(phi)
        return self.alg.b2(m, phi)

    def lie3(self, x: Poly, y: Poly, phi):
        _require_cochain(phi)
        return self.alg.b3(x, y, phi)

    def iota(self, xv, mv, phi):
        """Slot contraction with the section (xv, mv)."""
        comp = {}
        if xv is not None:
            comp[XI] = xv
        if mv is not None:
            comp[TH] = mv
        return contract(phi, comp)


def lie_derivative(s: Lie2Structure, which: str, args, phi: Poly) -> Poly:
    """Dispatch for the four Lie derivatives: L0, L1, L2, L3, along
    sections given as coefficient vectors over the frames."""
    c = Calculus(s)
    ch = s.chart
    if which == "L0":
        return c.lie0(phi)
    if which == "L1":
        (xv,) = args
        return c.lie1(section1(ch, xv), phi)
    if which == "L2":
        (mv,) = args
        return c.lie2(section2(ch, mv), phi)
    if which == "L3":
        xv, yv = args
        return c.lie3(section1(ch, xv), section1(ch, yv), phi)
    raise ValueError(f"unknown Lie derivative {which!r}")


def random_cochain(chart: Chart, rng: random.Random, max_degree=5, max_base_degree=2):
    acc = {}
    for _ in range(rng.randint(1, 3)):
        deg = rng.randint(0, max_degree)
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
        for _ in range(rng.randint(0, max_base_degree)):
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
    c = Calculus(s)
    ch = s.chart
    r1, r2, n = ch.rank1, ch.rank2, ch.base_dim
    rng = random.Random(seed)
    # frame vectors, and the sections the Lie derivatives run along, built once
    e = [basis_vector(ch, r1, i) for i in range(r1)]
    f = [basis_vector(ch, r2, j) for j in range(r2)]
    se = [section1(ch, v) for v in e]
    sf = [section2(ch, v) for v in f]
    # function-linearity rules, f running over 1 and the coordinates
    fns = [Poly.const(ch, 1)] + [x_(ch, m + 1) for m in range(n)]
    fse = [[fn * x for x in se] for fn in fns]  # the sections f e_i
    fsf = [[fn * m for m in sf] for fn in fns]
    l11 = [[c.ops.l2_11(e[i], e[j]) for j in range(r1)] for i in range(r1)]
    l12 = [[c.ops.l2_12(e[i], f[j]) for j in range(r2)] for i in range(r1)]
    s11 = [[section1(ch, v) for v in row] for row in l11]
    s12 = [[section2(ch, v) for v in row] for row in l12]
    sd = [section1(ch, c.ops.l1(f[j])) for j in range(r2)]

    # square-zero on all low-degree monomial cochains
    for t, phi in enumerate(monomial_cochains(ch, max_degree=5)):
        rep.add(f"delta.square[{t}]", "delta(delta(phi)) = 0", c.delta(c.delta(phi)))

    # graded pieces move the bidegree as stated
    probe = monomial_cochains(ch, max_degree=4)
    for t, phi in enumerate(probe):
        pq = bidegree(phi)
        for name, op, shift in (
            ("bar", c.dbar, (-1, 1)),
            ("d", c.d, (1, 0)),
            ("hat", c.dhat, (3, -1)),
        ):
            img = op(phi)
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
        c.alg.clear_memo()
        psi = cochains[(t + 1) % len(cochains)]
        k = phi.degree()
        if k == "inhomogeneous":
            continue
        sgn = -1 if k % 2 else 1
        rep.add(
            f"delta.derivation[{t}]",
            "delta(phi psi) = delta(phi) psi + (-1)^k phi delta(psi)",
            c.delta(phi * psi) - (c.delta(phi) * psi + sgn * (phi * c.delta(psi))),
        )
        for i in range(r1):
            rep.add(
                f"cartan.L1[{t},{i + 1}]",
                "L1_x phi = i_x d phi + d i_x phi",
                c.lie1(se[i], phi) - (c.iota(e[i], None, c.d(phi)) + c.d(c.iota(e[i], None, phi))),
            )
            rep.add(
                f"lie.L1.derivation[{t},{i + 1}]",
                "L1_x (phi psi) = (L1_x phi) psi + phi (L1_x psi)",
                c.lie1(se[i], phi * psi)
                - (c.lie1(se[i], phi) * psi + phi * c.lie1(se[i], psi)),
            )
            j2 = (i + 1) % r1
            rep.add(
                f"lie.L3.derivation[{t},{i + 1}]",
                "L3_(x,y) (phi psi) = (L3 phi) psi + (-1)^k phi (L3 psi)",
                c.lie3(se[i], se[j2], phi * psi)
                - (c.lie3(se[i], se[j2], phi) * psi + sgn * (phi * c.lie3(se[i], se[j2], psi))),
            )
        for j in range(r2):
            rep.add(
                f"cartan.L2[{t},{j + 1}]",
                "L2_m phi = i_m d phi - d i_m phi",
                c.lie2(sf[j], phi) - (c.iota(None, f[j], c.d(phi)) - c.d(c.iota(None, f[j], phi))),
            )
            rep.add(
                f"lie.L2.derivation[{t},{j + 1}]",
                "L2_m (phi psi) = (L2_m phi) psi + (-1)^k phi (L2_m psi)",
                c.lie2(sf[j], phi * psi)
                - (c.lie2(sf[j], phi) * psi + sgn * (phi * c.lie2(sf[j], psi))),
            )
        for fi, fn in enumerate(fns):
            for i in range(r1):
                rep.add(
                    f"lie.L1.fun[{t},{fi},{i + 1}]",
                    "L1_x (f phi) = f L1_x phi + a(x)(f) phi",
                    c.lie1(se[i], fn * phi)
                    - (fn * c.lie1(se[i], phi) + c.ops.anchor(e[i], fn) * phi),
                )
                rep.add(
                    f"lie.L1.fsec[{t},{fi},{i + 1}]",
                    "L1_(f x) phi = f L1_x phi + d f * i_x phi",
                    c.lie1(fse[fi][i], phi)
                    - (fn * c.lie1(se[i], phi) + c.d(fn) * c.iota(e[i], None, phi)),
                )
            for j in range(r2):
                rep.add(
                    f"lie.L2.fun[{t},{fi},{j + 1}]",
                    "L2_m (f phi) = f L2_m phi",
                    c.lie2(sf[j], fn * phi) - fn * c.lie2(sf[j], phi),
                )
                rep.add(
                    f"lie.L2.fsec[{t},{fi},{j + 1}]",
                    "L2_(f m) phi = f L2_m phi - d f * i_m phi",
                    c.lie2(fsf[fi][j], phi)
                    - (fn * c.lie2(sf[j], phi) - c.d(fn) * c.iota(None, f[j], phi)),
                )
    # mixed commutator identities on frame sections and random cochains
    for t in range(min(cochain_count, 12)):
        c.alg.clear_memo()
        phi = cochains[t % len(cochains)]
        for i in range(r1):
            for j in range(r1):
                lhs = (
                    c.lie1(s11[i][j], phi)
                    - c.lie1(se[i], c.lie1(se[j], phi))
                    + c.lie1(se[j], c.lie1(se[i], phi))
                )
                rhs = -c.lie3(se[i], se[j], c.lie0(phi)) - c.lie0(c.lie3(se[i], se[j], phi))
                rep.add(
                    f"lie.commutator11[{t},{i + 1},{j + 1}]",
                    "L1_(l2(x,y)) - [L1_x, L1_y] = -L3_(x,y) L0 - L0 L3_(x,y)",
                    lhs - rhs,
                )
        for i in range(r1):
            for j in range(r2):
                lhs = (
                    c.lie2(s12[i][j], phi)
                    - c.lie1(se[i], c.lie2(sf[j], phi))
                    + c.lie2(sf[j], c.lie1(se[i], phi))
                )
                rhs = -c.lie3(sd[j], se[i], phi)
                rep.add(
                    f"lie.commutator12[{t},{i + 1},{j + 1}]",
                    "L2_(l2(x,m)) - [L1_x, L2_m] = -L3_(d m, x)",
                    lhs - rhs,
                )
    # contraction identities on dual frame sections
    alphas = [one_form(ch, a1=[1 if q == a else 0 for q in range(r1)]) for a in range(r1)]
    betas = [one_form(ch, a2=[1 if q == b else 0 for q in range(r2)]) for b in range(r2)]
    d_alphas = [c.d(alpha) for alpha in alphas]
    d_betas = [c.d(beta) for beta in betas]
    for i in range(r1):
        for j in range(r1):
            for a, (alpha, d_alpha) in enumerate(zip(alphas, d_alphas)):
                lhs = (
                    c.iota(l11[i][j], None, d_alpha)
                    - c.lie1(se[i], c.iota(e[j], None, d_alpha))
                    + c.iota(e[j], None, c.lie1(se[i], d_alpha))
                )
                rhs = -c.lie3(se[i], se[j], c.lie0(alpha))
                rep.add(
                    f"iota.rel1[{i + 1},{j + 1},{a + 1}]",
                    "i_(l2(x,y)) d a1 - L1_x i_y d a1 + i_y L1_x d a1 = -L3_(x,y) L0 a1",
                    lhs - rhs,
                )
            for b, (beta, d_beta) in enumerate(zip(betas, d_betas)):
                lhs = (
                    c.iota(l11[i][j], None, d_beta)
                    - c.lie1(se[i], c.iota(e[j], None, d_beta))
                    + c.iota(e[j], None, c.lie1(se[i], d_beta))
                )
                rhs = -c.lie0(c.lie3(se[i], se[j], beta))
                rep.add(
                    f"iota.rel2[{i + 1},{j + 1},{b + 1}]",
                    "i_(l2(x,y)) d a2 - L1_x i_y d a2 + i_y L1_x d a2 = -L0 L3_(x,y) a2",
                    lhs - rhs,
                )
    for i in range(r1):
        for j in range(r2):
            for b, (beta, d_beta) in enumerate(zip(betas, d_betas)):
                lhs = (
                    c.iota(None, l12[i][j], d_beta)
                    - c.lie1(se[i], c.iota(None, f[j], d_beta))
                    + c.iota(None, f[j], c.lie1(se[i], d_beta))
                )
                rhs = -c.lie3(sd[j], se[i], beta)
                rep.add(
                    f"iota.rel3[{i + 1},{j + 1},{b + 1}]",
                    "i_(l2(x,m)) d a2 - L1_x i_m d a2 + i_m L1_x d a2 = -L3_(d m, x) a2",
                    lhs - rhs,
                )
    return rep


def contraction(section, phi: Poly) -> Poly:
    """Slot contraction, dispatching on which space phi lives in.

    For a fiber-coordinate polynomial the section is a pair (xv, mv) of
    coefficient vectors over the two frames; for a momentum polynomial it
    is a pair (a1, a2) of dual-component vectors.
    """
    from .multivectors import contract as _contract, is_multivector
    from .gradedpoly import THD, XID

    first, second = section
    if is_cochain(phi):
        comp = {}
        if first is not None:
            comp[XI] = first
        if second is not None:
            comp[TH] = second
        return _contract(phi, comp)
    if is_multivector(phi):
        comp = {}
        if first is not None:
            comp[XID] = first
        if second is not None:
            comp[THD] = second
        return _contract(phi, comp)
    raise ValueError("argument is neither a cochain nor a multivector")
