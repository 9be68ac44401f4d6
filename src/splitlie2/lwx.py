"""Metric doubles: pairing, binary operation, curvature 3-form, Dirac tests.

The double of a compatible pair lives on E_-1 = A_-1 (+) A*_-2 and
E_-2 = A_-2 (+) A*_-1 with the hyperbolic pairing.  Its operation and
3-form are built twice: once from the componentwise displays through the
calculus of both structures, once as derived brackets of the combined
generating function; the two must agree exactly.  Axioms are checked on
frame tuples, with coordinate functions injected wherever a function slot
appears.  Subbundles are constant-coefficient; strict closure and the
weak (morphism-based) condition are both decided by exact linear algebra.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .bracket import derived_table, poisson_bracket
from .cochains import iota, one_form
from .gradedpoly import (
    TH,
    THD,
    XI,
    XID,
    Chart,
    Poly,
    th_up,
    x_,
    xi_up,
)
from .linalg import invert, rank, row_reduce
from .multivectors import MCElement, SAlgebra, section1, section2
from .report import CheckReport
from .structures import (
    FrameTables,
    Lie2Ops,
    Lie2Structure,
    MorphismData,
    alternation_failures,
    basis_vector,
    check_leibniz2_axioms,
    check_lie2_axioms,
    check_morphism,
    combine,
    const_frame,
    linear_components,
    map_sections,
    map_tensor,
    nonzero_coords,
    point_value,
    pull_back,
    transport,
    vec_add,
    vec_nonzero,
    vec_sub,
)
from .twisting import (
    BialgebroidPair,
    check_bialgebroid,
    decode_gamma,
    lambda_function,
    relative_mc_residual,
)


def hyperbolic_pairing(r1: int, r2: int):
    """S[a][m] for frames E_-1 = [A_-1 | A*_-2], E_-2 = [A_-2 | A*_-1]."""
    d = r1 + r2
    s = [[Fraction(0)] * d for _ in range(d)]
    for i in range(r1):
        s[i][r2 + i] = Fraction(1)
    for k in range(r2):
        s[r1 + k][k] = Fraction(1)
    return s


def pairing_gram(us, pairing, ws):
    """The matrix S(u_i, w_j) = sum u_i[a] S[a][m] w_j[m] of two lists of
    rational rows; zero entries are skipped."""
    gram = []
    for u in us:
        su = {}  # the nonzero entries of u S
        for a, ua in enumerate(u):
            if ua:
                for m, q in enumerate(pairing[a]):
                    if q:
                        su[m] = su.get(m, 0) + ua * q
        gram.append([sum(c * w[m] for m, c in su.items() if c) for w in ws])
    return gram


def lwx_layout(chart: Chart):
    """(name, shape, alternating slots) of the double's tensors, in file
    order, on the chart of its underlying half: both frames have
    d = rank1 + rank2 vectors, c11 alternates in its first 2 slots and omega
    in its first 3."""
    n, d = chart.base_dim, chart.rank1 + chart.rank2
    return (("partial", (d, d), 0), ("rho", (d, n), 0), ("c11", (d, d, d), 2),
            ("c12", (d, d, d), 0), ("c21", (d, d, d), 0), ("omega", (d, d, d, d), 3))


@dataclass
class LWXStructure:
    chart: Chart  # chart of the underlying half; frames have size r1 + r2
    partial: list  # d2 x d1 entries
    rho: list  # d1 x n entries
    c11: list  # d1 x d1 -> d1 vectors
    c12: list  # d1 x d2 -> d2 vectors
    c21: list  # d2 x d1 -> d2 vectors
    omega: list  # d1 x d1 x d1 -> d2 vectors
    pairing: list  # d1 x d2 rationals

    @property
    def d1(self):
        return self.chart.rank1 + self.chart.rank2

    @property
    def d2(self):
        return self.chart.rank1 + self.chart.rank2

    def equals(self, other: "LWXStructure") -> bool:
        return (self.chart == other.chart and self.pairing == other.pairing
                and all(getattr(self, name) == getattr(other, name)
                        for name, _, _ in lwx_layout(self.chart)))

    def map_entries(self, fn) -> "LWXStructure":
        """The structure with fn applied to every tensor entry."""
        return LWXStructure(self.chart, *[map_tensor(fn, getattr(self, name))
                                          for name, _, _ in lwx_layout(self.chart)], self.pairing)


class LWXOps(Lie2Ops):
    """Section calculus of a metric double: the Lie2Ops kernels on its
    tensors, plus the pairing and D.  It overrides only the two mixed
    kernels, add_l2_12 and add_l2_21, which also add the pairing-dual D
    terms; without an anchor (over a point base) D is zero and they are
    skipped.  D has a kernel of its own, add_dmap.  Its coefficients are
    those of the tensors, as in Lie2Ops."""

    def __init__(self, e: LWXStructure):
        self.e = e
        sinv = invert(e.pairing)
        if sinv is None:
            raise ValueError("pairing must be nondegenerate")
        # c21 is stored [m][a]; the tables take both mixed brackets x slot first
        c21 = [[e.c21[m][a] for m in range(e.d2)] for a in range(e.d1)]
        self._tables(e.chart, e.d1, e.d2, e.rho, e.partial, e.c11, e.c12, c21, e.omega)
        # integral pairing entries as ints, so that products of plain-number
        # coefficients with them stay ints (a Poly product coerces them anyway)
        pairing = [[int(q) if q.denominator == 1 else q for q in map(Fraction, row)]
                   for row in e.pairing]
        self._pair_rows = [[(m, s) for m, s in enumerate(row) if s] for row in pairing]
        self._pair_cols = [[(a, row[m]) for a, row in enumerate(pairing) if row[m]]
                           for m in range(self.r2)]
        self._sinv_rows = [[(a, c) for a, c in enumerate(row) if c] for row in sinv]

    def pair(self, uv, wv) -> Poly:
        out = self._zero
        for a, u in nonzero_coords(uv):
            for m, s in self._pair_rows[a]:
                if wv[m]:
                    out = out + u * wv[m] * s
        return out

    def add_dmap(self, out, w, f):
        """out += w * D f, where D f is the pairing-dual of the anchor
        derivative of f."""
        if not self._anchor_vars or not f or not w:
            return
        grad = self._gradient(f)
        rhs = {}
        for a, row in enumerate(self._anchor):
            acc = self._zero
            for i, r in row:
                acc = acc + r * grad[i]
            if acc:
                rhs[a] = acc
        for m, row in enumerate(self._sinv_rows):
            acc = self._zero
            for a, c in row:
                if a in rhs:
                    acc = acc + rhs[a] * c
            if acc:
                out[m] = out[m] + (acc if w is self._one else w * acc)

    def dmap(self, f: Poly):
        out = [self._zero] * self.r2
        self.add_dmap(out, self._one, f)
        return out

    def add_l2_12(self, out, sign, us, ws):
        """Lie2Ops.add_l2_12 plus sign * S(e_a, w) D(u_a) over the nonzero
        u_a; without an anchor D is zero."""
        super().add_l2_12(out, sign, us, ws)
        if self._anchor_vars:
            wd = dict(ws)
            for a, u in us:
                c = sum((wd[m] * s for m, s in self._pair_rows[a] if m in wd), self._zero)
                self.add_dmap(out, c if sign > 0 else -c, u)

    def add_l2_21(self, out, sign, ws, us):
        """Lie2Ops.add_l2_21 minus sign * S(u, e_a) D(w_a) over the nonzero
        w_a."""
        super().add_l2_21(out, sign, ws, us)
        if self._anchor_vars:
            ud = dict(us)
            for a, w in ws:
                c = sum((ud[m] * s for m, s in self._pair_cols[a] if m in ud), self._zero)
                self.add_dmap(out, -c if sign > 0 else c, w)


# -- embeddings for the derived-bracket route ------------------------------------


def embed1(chart: Chart, uv) -> Poly:
    """E_-1 vector as a polynomial: momentum frame plus coordinate duals."""
    return section1(chart, uv[:chart.rank1]) + one_form(chart, a2=uv[chart.rank1:])


def embed2(chart: Chart, wv) -> Poly:
    return section2(chart, wv[:chart.rank2]) + one_form(chart, a1=wv[chart.rank2:])


# -- the double ------------------------------------------------------------------


def build_double(pair: BialgebroidPair, cross_check=True):
    """Double of a compatible pair; returns (structure, report).

    Route (a) evaluates the componentwise displays: the blocks within one
    half are that half's tensors, the mixed ones come from the calculus
    (SAlgebra) of both halves.  Route (b) uses derived brackets of the
    combined function.
    The report records their exact agreement and the compatibility gate.
    """
    rep = CheckReport("double")
    bi = check_bialgebroid(pair, derivation_checks=False)
    rep.add_flag("double.pair", "pair satisfies the compatibility equation",
                 bi.passed, "; ".join(r.check_id for r in bi.failures[:3]))
    s, dual = pair.s, pair.dual
    ch = s.chart
    chd = dual.chart
    n, r1, r2 = ch.base_dim, ch.rank1, ch.rank2
    d = r1 + r2
    # the Lie derivatives and d of each half (see SAlgebra)
    alg, algd = pair.alg, SAlgebra(dual)

    lift = lambda p: p.lift(ch)
    liftv = lambda v: [lift(c) for c in v]
    zeros = lambda k: [Poly.zero(ch)] * k

    th_comps = lambda phi: linear_components(phi, TH, r2, ch)
    xi_comps = lambda phi: linear_components(phi, XI, r1, ch)
    # dual-side xi and th components represent degree -2 and -1 sections of the base
    dual_a1 = lambda phi: linear_components(phi, XI, r2, ch)
    dual_a2 = lambda phi: linear_components(phi, TH, r1, ch)

    e1 = [basis_vector(ch, r1, i) for i in range(r1)]  # degree -1 frame of the base
    f1 = [basis_vector(ch, r2, j) for j in range(r2)]  # degree -2 frame of the base
    ed = [basis_vector(chd, r2, i) for i in range(r2)]  # dual degree -1 frame
    fd = [basis_vector(chd, r1, j) for j in range(r1)]  # dual degree -2 frame
    # the same frames embedded, for the Lie derivatives of each half
    se1 = [section1(ch, v) for v in e1]
    sf1 = [section2(ch, v) for v in f1]
    sed = [section1(chd, v) for v in ed]
    sfd = [section2(chd, v) for v in fd]
    # and the base frames as cochains of the dual half
    dc1 = [th_up(chd, i + 1) for i in range(r1)]
    dc2 = [xi_up(chd, j + 1) for j in range(r2)]
    th_of = [th_up(ch, i + 1) for i in range(r2)]
    xi_of = [xi_up(ch, j + 1) for j in range(r1)]

    # frame vector a of E_-1 as (base part, dual part), one of them None;
    # the same for frame vector m of E_-2.  A bracket of unit frame vectors
    # within one half is that half's tensor: no anchor term survives.
    slot1 = lambda a: (e1[a], None) if a < r1 else (None, ed[a - r1])
    slot2 = lambda m: (f1[m], None) if m < r2 else (None, fd[m - r2])

    # unary map and anchor
    def partial(m):
        if m < r2:
            return liftv(s.mu2[m]) + zeros(r2)
        return zeros(r1) + liftv(dual.mu2[m - r2])

    def rho(a, i):
        return s.mu1[a][i] if a < r1 else lift(dual.mu1[a - r1][i])

    # binary operation on the degree -1 frame
    def c11(a, b):
        xpart = zeros(r1)
        tpart = zeros(r2)
        (xv, av), (yv, bv) = slot1(a), slot1(b)
        if xv and yv:
            xpart = vec_add(xpart, liftv(s.mu3[a][b]))
        if xv and bv is not None:
            tpart = vec_add(tpart, th_comps(alg.b2(se1[a], th_of[b - r1])))
        if yv and av is not None:
            tpart = vec_sub(tpart, th_comps(alg.b2(se1[b], th_of[a - r1])))
        if av is not None and bv is not None:
            tpart = vec_add(tpart, liftv(dual.mu3[a - r1][b - r1]))
        if av is not None and yv:
            xpart = vec_add(xpart, dual_a2(algd.b2(sed[a - r1], dc1[b])))
        if bv is not None and xv:
            xpart = vec_sub(xpart, dual_a2(algd.b2(sed[b - r1], dc1[a])))
        return xpart + tpart

    # mixed operations
    def c12(a, m):
        mpart = zeros(r2)
        xipart = zeros(r1)
        (xv, av), (wv, bv) = slot1(a), slot2(m)
        if xv and wv:
            mpart = vec_add(mpart, liftv(s.mu4[a][m]))
        if xv and bv is not None:
            xipart = vec_add(xipart, xi_comps(alg.b2(se1[a], xi_of[m - r2])))
        if wv and av is not None:
            xipart = vec_add(xipart, xi_comps(iota(None, wv, alg.d_part(th_of[a - r1]))))
        if av is not None and bv is not None:
            xipart = vec_add(xipart, liftv(dual.mu4[a - r1][m - r2]))
        if av is not None and wv:
            mpart = vec_add(mpart, dual_a1(algd.b2(sed[a - r1], dc2[m])))
        if bv is not None and xv:
            mpart = vec_add(mpart, dual_a1(iota(None, fd[m - r2], algd.d_part(dc1[a]))))
        return mpart + xipart

    def c21(m, a):
        mpart = zeros(r2)
        xipart = zeros(r1)
        (xv, av), (wv, bv) = slot1(a), slot2(m)
        if wv and xv:
            mpart = vec_add(mpart, liftv(s.mu4[a][m]))
        if bv is not None and av is not None:
            xipart = vec_add(xipart, liftv(dual.mu4[a - r1][m - r2]))
        if wv and av is not None:
            # dual L2 along the degree -2 frame of the dual half
            xipart = vec_add(xipart, xi_comps(alg.b2(sf1[m], th_of[a - r1])))
        if bv is not None and xv:
            xipart = vec_add(xipart, xi_comps(iota(xv, None, alg.d_part(xi_of[m - r2]))))
        if xv and bv is not None:
            mpart = vec_add(mpart, dual_a1(algd.b2(sfd[m - r2], dc1[a])))
        if av is not None and wv:
            mpart = vec_add(mpart, dual_a1(iota(ed[a - r1], None, algd.d_part(dc2[m]))))
        return mpart + xipart

    # curvature 3-form
    def omega(a, b, c):
        mpart = zeros(r2)
        xipart = zeros(r1)
        qs = (a, b, c)
        xs = [e1[q] if q < r1 else None for q in qs]
        als = [q - r1 if q >= r1 else None for q in qs]
        if all(v is not None for v in xs):
            mpart = vec_add(mpart, liftv(s.mu5[a][b][c]))
        # L3 terms: two base sections against one dual frame
        for (p, q, rr) in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
            if xs[p] is not None and xs[q] is not None and als[rr] is not None:
                xipart = vec_add(
                    xipart,
                    xi_comps(alg.b3(se1[qs[p]], se1[qs[q]], th_of[als[rr]])),
                )
            if als[p] is not None and als[q] is not None and xs[rr] is not None:
                mpart = vec_add(
                    mpart, dual_a1(algd.b3(sed[als[p]], sed[als[q]], dc1[qs[rr]]))
                )
        if all(v is not None for v in als):
            xipart = vec_add(xipart, liftv(dual.mu5[als[0]][als[1]][als[2]]))
        return mpart + xipart

    out = LWXStructure(
        ch,
        [partial(m) for m in range(d)],
        [[rho(a, i) for i in range(n)] for a in range(d)],
        [[c11(a, b) for b in range(d)] for a in range(d)],
        [[c12(a, m) for m in range(d)] for a in range(d)],
        [[c21(m, a) for a in range(d)] for m in range(d)],
        [[[omega(a, b, c) for c in range(d)] for b in range(d)] for a in range(d)],
        hyperbolic_pairing(r1, r2),
    )

    if not cross_check:
        return out, rep

    detail = derived_mismatches(pair.theta, out)
    rep.add_flag(
        "double.crosscheck",
        "componentwise and derived-bracket constructions agree",
        not detail,
        ", ".join(detail[:8]),
    )
    return out, rep


def derived_mismatches(theta: Poly, out: LWXStructure):
    """Route (b): the names of the entries of out that differ from the
    derived brackets of the combined generating function theta."""
    ch = out.chart
    n, d = ch.base_dim, out.d1
    t211 = theta.project_tridegree((2, 1, 1))
    tbin = theta.project_tridegree((1, 2, 1)) + theta.project_tridegree((1, 1, 2))
    tter = theta.project_tridegree((0, 3, 1)) + theta.project_tridegree((0, 1, 3))

    # the unit vectors of both frames, embedded once
    units = [[Fraction(int(q == a)) for q in range(d)] for a in range(d)]
    emb1 = [embed1(ch, v) for v in units]
    emb2 = [embed2(ch, v) for v in units]
    unary = derived_table(t211, emb2)
    rows = derived_table(tbin, emb1, [x_(ch, i + 1) for i in range(n)] + emb1 + emb2)
    c21 = derived_table(tbin, emb2, emb1)
    ternary = derived_table(tter, emb1, emb1, emb1)

    r1, r2 = ch.rank1, ch.rank2

    def split1(p):
        return linear_components(p, XID, r1, ch) + linear_components(p, TH, r2, ch)

    def split2(p):
        return linear_components(p, THD, r2, ch) + linear_components(p, XI, r1, ch)

    detail = [f"partial[{m + 1}]" for m in range(d) if split1(unary[m]) != out.partial[m]]
    for a in range(d):
        row = rows[a]
        detail += [f"rho[{a + 1},{i + 1}]" for i in range(n) if row[i] != out.rho[a][i]]
        detail += [f"c11[{a + 1},{b + 1}]" for b in range(d)
                   if split1(row[n + b]) != out.c11[a][b]]
        for m in range(d):
            if split2(row[n + d + m]) != out.c12[a][m]:
                detail.append(f"c12[{a + 1},{m + 1}]")
            if split2(c21[m][a]) != out.c21[m][a]:
                detail.append(f"c21[{m + 1},{a + 1}]")
    detail += [f"omega[{a + 1},{b + 1},{c + 1}]"
               for a in range(d) for b in range(d) for c in range(d)
               if split2(ternary[a][b][c]) != out.omega[a][b][c]]
    detail += [f"pairing[{a + 1},{m + 1}]" for a in range(d) for m in range(d)
               if poisson_bracket(emb2[m], emb1[a]) != Poly.const(ch, out.pairing[a][m])]
    return detail


# -- axioms ------------------------------------------------------------------


def check_lwx_axioms(e: LWXStructure) -> CheckReport:
    """Axioms of a metric double on frame tuples, with coordinate probes.

    Each bracket of frame vectors, and each mixed bracket of a frame vector
    with a probe-scaled one, is evaluated once; block (i) shares the frame
    tables.  A bracket or pairing with a zero argument is not evaluated.
    Over a point base the tensor entries are taken as plain numbers (see
    structures.point_value), and the only probe is 1.
    """
    rep = CheckReport("lwx-axioms")
    if not e.chart.base_dim:
        e = e.map_entries(point_value)
    ops = LWXOps(e)
    ch = e.chart
    d, n = e.d1, ch.base_dim
    zero = ops._zero
    zero_vec = [zero] * d
    t = ops.units
    u = t.b1
    probes = [ops._one] + [x_(ch, i + 1) for i in range(n)]
    # scaled[c][fi] = f u_c; p12[a][c][fi] = u_a * f u_c; p21[c][a][fi] = f u_c * u_a
    scaled = [[[f if q == c else zero for q in range(d)] for f in probes] for c in range(d)]
    p12 = [[[t.l12[a][c]] + [ops.l2_12(u[a], v) for v in scaled[c][1:]] for c in range(d)]
           for a in range(d)]
    p21 = [[[t.l21[c][a]] + [ops.l2_21(v, u[a]) for v in scaled[c][1:]] for a in range(d)]
           for c in range(d)]

    def pair(v, w):
        return ops.pair(v, w) if vec_nonzero(v) and vec_nonzero(w) else zero

    def anchor(v, f):
        return ops.anchor(v, f) if f and vec_nonzero(v) else zero

    def dmap(f):
        return ops.dmap(f) if f else zero_vec

    # (i) the underlying two-term bracket system
    check_leibniz2_axioms(ops, rep, "lwx.i")

    # (ii) symmetrized mixed operation is the pairing gradient
    for a in range(d):
        for m in range(d):
            for fi in range(len(probes)):
                lhs = vec_sub(p12[a][m][fi], p21[m][a][fi])
                rhs = dmap(pair(u[a], scaled[m][fi]))
                rep.add(
                    f"lwx.ii[{a + 1},{m + 1},f{fi}]",
                    "e1 * e2 - e2 * e1 = D S(e1, e2)",
                    vec_sub(lhs, rhs),
                )
    # (iii) the unary map is self-adjoint
    for m1 in range(d):
        for m2 in range(d):
            rep.add(
                f"lwx.iii[{m1 + 1},{m2 + 1}]",
                "S(partial e, e') = S(e, partial e')",
                pair(t.l1[m1], u[m2]) - pair(t.l1[m2], u[m1]),
            )
    # (iv) the anchor differentiates the pairing; f-probes exercise the
    # derivative terms since the pairing of plain frames is constant
    for a in range(d):
        for b in range(d):
            for c in range(d):
                for fi, e3 in enumerate(scaled[c]):
                    lhs = anchor(u[a], pair(u[b], e3))
                    rhs = pair(t.l11[a][b], e3) + pair(u[b], p12[a][c][fi])
                    rep.add(
                        f"lwx.iv.112[{a + 1},{b + 1},{c + 1},f{fi}]",
                        "rho(e1) S(e2,e3) = S(e1*e2, e3) + S(e2, e1*e3)",
                        lhs - rhs,
                    )
                lhs = anchor(u[a], pair(u[c], u[b]))
                rhs = pair(u[c], t.l12[a][b]) + pair(t.l11[a][c], u[b])
                rep.add(
                    f"lwx.iv.121[{a + 1},{b + 1},{c + 1}]",
                    "rho(e1) S(e2,e3) = S(e1*e2, e3) + S(e2, e1*e3), mixed order",
                    lhs - rhs,
                )
                rep.add(
                    f"lwx.iv.211[{a + 1},{b + 1},{c + 1}]",
                    "S(e1*e2, e3) + S(e2, e1*e3) = 0 for degree -2 e1",
                    pair(u[c], t.l21[a][b]) + pair(u[b], t.l21[a][c]),
                )
    # (v) the 3-form is self-adjoint up to sign in its last two slots;
    # s3[a][b][c][w] = S(e_w, Omega(e_a, e_b, e_c))
    s3 = map_sections(lambda v: [pair(uw, v) for uw in u], t.l3, 3)
    for a in range(d):
        for b in range(d):
            for c in range(d):
                for w in range(d):
                    rep.add(
                        f"lwx.v[{a + 1},{b + 1},{c + 1},{w + 1}]",
                        "S(Omega(e1,e2,e3), e4) = -S(e3, Omega(e1,e2,e4))",
                        s3[a][b][c][w] + s3[a][b][w][c],
                    )
    # enforced shape conditions
    failures = {name: alternation_failures(getattr(e, name), shape, alt)
                for name, shape, alt in lwx_layout(e.chart) if alt}
    rep.add_flag("lwx.skew", "binary operation is skew on the degree -1 frame",
                 not failures["c11"], "c11 not skew")
    rep.add_flag("lwx.alternating", "3-form is alternating", not failures["omega"],
                 "omega not alternating")

    # consequences
    for m in range(d):
        for i in range(n):
            res = anchor(t.l1[m], probes[i + 1])
            rep.add(f"lwx.rho-partial[{m + 1},{i + 1}]", "rho(partial e) = 0", res)
    for fi, f in enumerate(probes[1:], start=1):
        df = ops.dmap(f)
        nonzero = vec_nonzero(df)
        rep.add(f"lwx.partial-D[f{fi}]", "partial(D f) = 0",
                ops.l1(df) if nonzero else zero_vec)
        for a in range(d):
            lhs = ops.l2_12(u[a], df) if nonzero else zero_vec
            rhs = dmap(pair(u[a], df))
            rep.add(f"lwx.e-Df[{a + 1},f{fi}]", "e * D f = D S(e, D f)",
                    vec_sub(lhs, rhs))
            rep.add(f"lwx.Df-e[{a + 1},f{fi}]", "D f * e = 0",
                    ops.l2_21(df, u[a]) if nonzero else zero_vec)
    return rep


# -- subbundles and strict closure ------------------------------------------------


@dataclass
class Subbundle:
    """Constant-coefficient subbundle of a double, one basis per degree."""

    basis1: list  # vectors of length d1 (rationals)
    basis2: list  # vectors of length d2

    @staticmethod
    def canonical_half(chart: Chart) -> "Subbundle":
        r1, r2 = chart.rank1, chart.rank2
        d = r1 + r2
        b1 = [[Fraction(int(j == i)) for j in range(d)] for i in range(r1)]
        b2 = [[Fraction(int(j == i)) for j in range(d)] for i in range(r2)]
        return Subbundle(b1, b2)

    @staticmethod
    def canonical_dual_half(chart: Chart) -> "Subbundle":
        r1, r2 = chart.rank1, chart.rank2
        d = r1 + r2
        b1 = [[Fraction(int(j == r1 + i)) for j in range(d)] for i in range(r2)]
        b2 = [[Fraction(int(j == r2 + i)) for j in range(d)] for i in range(r1)]
        return Subbundle(b1, b2)


def polyvec_expander(basis, d, chart):
    """The map from a vector of d base polynomials to its coefficients in the
    rational basis, or None where it leaves their span.

    Each monomial's coefficients are the particular solution expand_in_basis
    gives (free unknowns zero).  The basis is row-reduced once: the
    elimination of [basis columns | identity] leaves, in its right block,
    the row operations E, and E applied to a vector is what reducing it
    alongside the basis would give.
    """
    k = len(basis)
    aug = [[Fraction(b[a]) for b in basis] + [Fraction(int(a == q)) for q in range(d)]
           for a in range(d)]
    pivots = row_reduce(aug, k)
    r = len(pivots)
    ops_cols = [[row[k + q] for row in aug] for q in range(d)]  # columns of E

    def expand(vec):
        reduced = combine(vec, ops_cols, d, chart)
        if any(c.terms for c in reduced[r:]):
            return None
        coeffs = [Poly.zero(chart)] * k
        for i, c in enumerate(pivots):
            coeffs[c] = reduced[i]
        return coeffs

    return expand


def check_strict_dirac(e: LWXStructure, sub: Subbundle):
    """Isotropy, maximality and closure; returns (report, restriction|None).

    The brackets on the subbundle frame are evaluated and expanded in the
    subbundle bases once: the closure tests and the restriction read the
    same tables."""
    rep = CheckReport("strict-dirac")
    ch = e.chart
    d = e.d1
    b1, b2 = sub.basis1, sub.basis2
    rep.add_flag("dirac.independent", "subbundle bases are linearly independent",
                 rank(b1) == len(b1) and rank(b2) == len(b2), "dependent basis")
    iso = all(v == 0 for row in pairing_gram(b1, e.pairing, b2) for v in row)
    rep.add_flag("dirac.isotropic", "subbundle is isotropic", iso, "pairing not zero")
    rep.add_flag(
        "dirac.maximal",
        "degree dimensions add up to the frame size",
        len(b1) + len(b2) == d,
        f"dim {len(b1)}+{len(b2)} != {d}",
    )
    x = _subbundle_tables(e, sub)
    detail = [f"partial[{i + 1}]" for i, c in enumerate(x.l1) if c is None]
    rep.add_flag("dirac.partial", "unary map preserves the subbundle", not detail,
                 ", ".join(detail))
    detail = []
    for i in range(len(b1)):
        detail += [f"11[{i + 1},{j + 1}]" for j, c in enumerate(x.l11[i]) if c is None]
        for j in range(len(b2)):
            if x.l12[i][j] is None:
                detail.append(f"12[{i + 1},{j + 1}]")
            if x.l21[j][i] is None:
                detail.append(f"21[{i + 1},{j + 1}]")
    rep.add_flag("dirac.closure", "binary operation preserves the subbundle",
                 not detail, ", ".join(detail[:6]))
    detail = [f"3[{i + 1},{j + 1},{k + 1}]" for i, plane in enumerate(x.l3)
              for j, row in enumerate(plane) for k, c in enumerate(row) if c is None]
    rep.add_flag("dirac.threeform", "3-form preserves the subbundle", not detail,
                 ", ".join(detail[:6]))
    if not rep.passed:
        return rep, None
    restricted = _restriction(x, ch)
    ax = check_lie2_axioms(restricted)
    rep.add_flag("dirac.restriction", "restriction satisfies the structure axioms",
                 ax.passed, "; ".join(r.check_id for r in ax.failures[:4]))
    return rep, restricted


def _subbundle_tables(e: LWXStructure, sub: Subbundle) -> FrameTables:
    """The frame tables of a subbundle, each section value expanded in its
    bases: base-polynomial coefficients, or None where it leaves them."""
    ch, b1, b2 = e.chart, sub.basis1, sub.basis2
    return pull_back(LWXOps(e), const_frame(ch, b1), const_frame(ch, b2),
                     polyvec_expander(b1, e.d1, ch), polyvec_expander(b2, e.d2, ch))


def _restriction(x: FrameTables, ch: Chart) -> Lie2Structure:
    """The structure a closed subbundle carries, from _subbundle_tables."""
    r1, r2 = len(x.b1), len(x.b2)
    if any(x.l12[i][j] != x.l21[j][i] for i in range(r1) for j in range(r2)):
        raise ValueError("mixed operation is not symmetric on the subbundle")
    och = Chart(ch.base_dim, r1, r2)

    def lift(c):
        if c is None:
            raise ValueError("value leaves the subbundle")
        return [q.lift(och) for q in c]

    return Lie2Structure(och, [lift(row) for row in x.anchor], map_sections(lift, x.l1, 1),
                         map_sections(lift, x.l11, 2), map_sections(lift, x.l12, 2),
                         map_sections(lift, x.l3, 3))


# -- Manin extraction -------------------------------------------------------------


def extract_bialgebroid(e: LWXStructure, sub_a: Subbundle, sub_b: Subbundle):
    """Two transversal strict halves determine a compatible pair.

    Returns (pair, report).  The second half is renormalized through the
    pairing so it acts as the dual of the first: its restriction is carried
    to the normalized frame by a constant frame change.
    """
    rep = CheckReport("manin-extraction")
    d = e.d1
    ra1, ra2 = len(sub_a.basis1), len(sub_a.basis2)
    rb1, rb2 = len(sub_b.basis1), len(sub_b.basis2)
    trans1 = rank(sub_a.basis1 + sub_b.basis1) == d and ra1 + rb1 == d
    trans2 = rank(sub_a.basis2 + sub_b.basis2) == d and ra2 + rb2 == d
    rep.add_flag("manin.transversal", "halves are transversal in each degree",
                 trans1 and trans2, f"got dims ({ra1},{rb1}) and ({ra2},{rb2})")
    if not (trans1 and trans2):
        raise ValueError("subbundles are not transversal")
    ra, s_a = check_strict_dirac(e, sub_a)
    rb, s_b = check_strict_dirac(e, sub_b)
    rep.add_flag("manin.strictA", "first half is strictly closed", ra.passed,
                 "; ".join(r.check_id for r in ra.failures[:3]))
    rep.add_flag("manin.strictB", "second half is strictly closed", rb.passed,
                 "; ".join(r.check_id for r in rb.failures[:3]))
    if not (ra.passed and rb.passed):
        raise ValueError("both subbundles must be strictly closed")

    # normalize the second half so S(a1_i, b2_j) = delta and S(b1_k, a2_l) = delta
    inv1 = invert(pairing_gram(sub_a.basis1, e.pairing, sub_b.basis2))
    inv2 = invert(pairing_gram(sub_b.basis1, e.pairing, sub_a.basis2))
    rep.add_flag("manin.nondegenerate", "pairing between the halves is nondegenerate",
                 inv1 is not None and inv2 is not None, "singular cross pairing")
    if inv1 is None or inv2 is None:
        raise ValueError("halves do not pair nondegenerately")
    # new b1_k = sum_q inv2[k][q] b1_q and new b2_j = sum_q inv1[q][j] b2_q:
    # rows of inv2 and columns of inv1, a constant frame change inside the
    # second half, so its restriction is carried over rather than rebuilt
    s_b = transport(s_b, inv2, [list(col) for col in zip(*inv1)])
    if s_b.chart.rank1 != s_a.chart.rank2 or s_b.chart.rank2 != s_a.chart.rank1:
        raise ValueError("halves do not have dual ranks")
    pair = BialgebroidPair(SAlgebra(s_a), s_b)
    bi = check_bialgebroid(pair, derivation_checks=False)
    rep.add_flag("manin.pair", "extracted pair satisfies the compatibility equation",
                 bi.passed, "; ".join(r.check_id for r in bi.failures[:3]))
    return pair, rep


# -- graphs and the weak condition -------------------------------------------------


@dataclass
class GraphSubbundle:
    basis1: list  # d1-vectors: dual degree -1 frame shifted by the pairing map
    basis2: list  # d2-vectors
    f3: list  # morphism corrector from the cubic component


def build_graph(pair: BialgebroidPair, m: MCElement):
    """Graph of a relatively flat element, with its carried structure.

    Returns (graph, structure, report): the graph frames inside the double,
    the structure they carry (the combined-twist decode), and the checks.
    """
    rep = CheckReport("graph")
    ch = pair.chart
    r1, r2 = ch.rank1, ch.rank2
    d = r1 + r2
    res = relative_mc_residual(pair, m)
    flat = all(r.is_zero for r in res)
    rep.add_flag("graph.flat", "element is flat relative to the pair", flat,
                 "; ".join(r.render() for r in res if not r.is_zero))
    if not flat:
        raise ValueError("element is not relatively flat")
    for row in m.h:
        for c in row:
            if not c.is_zero and c.degree() != 0:
                raise ValueError("graph frames need constant coefficients")
    hconst = [[c.coefficient(()) for c in row] for row in m.h]
    ktens = m.k_tensor()

    basis1 = []
    for al in range(r2):
        v = [Fraction(0)] * d
        for i in range(r1):
            v[i] = hconst[i][al]
        v[r1 + al] = Fraction(1)
        basis1.append(v)
    basis2 = []
    for be in range(r1):
        v = [Fraction(0)] * d
        for j in range(r2):
            v[j] = -hconst[be][j]
        v[r2 + be] = Fraction(1)
        basis2.append(v)

    f3 = [[[Fraction(0)] * d for _ in range(r2)] for _ in range(r2)]
    for al in range(r2):
        for be in range(r2):
            for q in range(r2):
                val = ktens[al][be][q]
                if not val.is_zero:
                    if val.degree() != 0:
                        raise ValueError("graph corrector needs constant coefficients")
                    f3[al][be][q] = -val.coefficient(())
    graph = GraphSubbundle(basis1, basis2, f3)

    lam = lambda_function(pair, m)
    carried = decode_gamma(lam, ch)
    ax = check_lie2_axioms(carried)
    rep.add_flag("graph.axioms", "carried structure satisfies the axioms", ax.passed,
                 "; ".join(r.check_id for r in ax.failures[:4]))

    # the graph is isotropic whenever the pairing tensor is used symmetrically
    gram = pairing_gram(basis1, hyperbolic_pairing(r1, r2), basis2)
    iso = all(v == 0 for row in gram for v in row)
    rep.add_flag("graph.isotropic", "graph is isotropic", iso, "pairing not zero")
    return graph, carried, rep


def check_weak_dirac(e: LWXStructure, struct: Lie2Structure, fdata: MorphismData) -> CheckReport:
    """Injective image, maximal isotropy, morphism property, matching anchors."""
    rep = CheckReport("weak-dirac")
    d = e.d1
    rL1, rL2 = struct.chart.rank1, struct.chart.rank2
    cols1 = [[fdata.f1[a][i] for a in range(d)] for i in range(rL1)]
    cols2 = [[fdata.f2[mm][j] for mm in range(d)] for j in range(rL2)]
    rep.add_flag("weak.injective", "frame maps are injective",
                 rank(cols1) == rL1 and rank(cols2) == rL2, "rank drop")
    iso = all(v == 0 for row in pairing_gram(cols1, e.pairing, cols2) for v in row)
    rep.add_flag("weak.isotropic", "image is isotropic", iso, "pairing not zero")
    rep.add_flag("weak.maximal", "image dimensions add up to the frame size",
                 rL1 + rL2 == d, f"dim {rL1}+{rL2} != {d}")
    mor = check_morphism(fdata, Lie2Ops(struct), LWXOps(e))
    rep.extend(mor)
    return rep


def graph_morphism_data(e: LWXStructure, graph: GraphSubbundle) -> MorphismData:
    d = e.d1
    f1 = [[graph.basis1[i][a] for i in range(len(graph.basis1))] for a in range(d)]
    f2 = [[graph.basis2[j][mm] for j in range(len(graph.basis2))] for mm in range(d)]
    return MorphismData(f1, f2, graph.f3)
