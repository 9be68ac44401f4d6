"""Direct axiom suites and frame pull-backs without frame tables.

These are the slow paths the frame tables of ``splitlie2.structures``
replace: every bracket, inner or outer, is a fresh evaluation on fresh
frame vectors, zero arguments included.  ``check_leibniz2_axioms`` is the
suite from before the inner brackets went into tables;
``check_lie2_axioms``, ``check_lwx_axioms``, ``check_strict_dirac``,
``restrict_to_subbundle``, ``transport`` and ``lwx_transport`` are the
versions from before they read ``frame_tables``, and ``polyvec_in_span``
the closure test ``check_strict_dirac`` used before the closure tests and
the restriction shared one expansion.  ``test_axiom_tables.py``
compares them with the package record by record and tensor by tensor.
This module is test-only; the package keeps one implementation.
"""

import itertools
from fractions import Fraction

from splitlie2.gradedpoly import Chart, Poly, x_
from splitlie2.linalg import in_span, invert, rank
from splitlie2.lwx import LWXOps, LWXStructure, Subbundle, _polyvec_rows, polyvec_expand
from splitlie2.report import CheckReport
from splitlie2.structures import (
    Lie2Ops,
    Lie2Structure,
    basis_vector,
    vec_add,
    vec_scale,
    vec_sub,
)


def _vecstr(v):
    """The residual text the package rendered before report.add took vectors."""
    parts = [f"[{i + 1}] {p.render()}" for i, p in enumerate(v) if not p.is_zero]
    return "; ".join(parts)


def check_leibniz2_axioms(ops, report: CheckReport, tag: str = "leibniz2"):
    """Axioms of a 2-term bracket system, on all frame tuples."""
    r1, r2 = ops.r1, ops.r2
    ch = ops.chart
    e = lambda i: basis_vector(ch, r1, i)
    f = lambda j: basis_vector(ch, r2, j)

    for i in range(r1):
        for j in range(r2):
            x, m = e(i), f(j)
            res = vec_sub(ops.l1(ops.l2_12(x, m)), ops.l2_11(x, ops.l1(m)))
            report.add(f"{tag}.a[{i + 1},{j + 1}]", "d l2(x,m) = l2(x, d m)", _vecstr(res))
            res = vec_add(ops.l1(ops.l2_21(m, x)), ops.l2_11(ops.l1(m), x))
            report.add(f"{tag}.b[{i + 1},{j + 1}]", "d l2(m,x) = -l2(d m, x)", _vecstr(res))
    for i in range(r2):
        for j in range(r2):
            m, n_ = f(i), f(j)
            res = vec_add(ops.l2_12(ops.l1(m), n_), ops.l2_21(m, ops.l1(n_)))
            report.add(f"{tag}.c[{i + 1},{j + 1}]", "l2(d m, n) = -l2(m, d n)", _vecstr(res))
    for i in range(r1):
        for j in range(r1):
            for k in range(r1):
                x, y, z = e(i), e(j), e(k)
                lhs = ops.l1(ops.l3(x, y, z))
                rhs = vec_sub(
                    vec_sub(ops.l2_11(x, ops.l2_11(y, z)), ops.l2_11(ops.l2_11(x, y), z)),
                    ops.l2_11(y, ops.l2_11(x, z)),
                )
                report.add(
                    f"{tag}.d[{i + 1},{j + 1},{k + 1}]",
                    "d l3(x,y,z) = l2(x,l2(y,z)) - l2(l2(x,y),z) - l2(y,l2(x,z))",
                    _vecstr(vec_sub(lhs, rhs)),
                )
    for i in range(r1):
        for j in range(r1):
            for k in range(r2):
                x, y, m = e(i), e(j), f(k)
                lhs = ops.l3(x, y, ops.l1(m))
                rhs = vec_sub(
                    vec_sub(ops.l2_12(x, ops.l2_12(y, m)), ops.l2_12(ops.l2_11(x, y), m)),
                    ops.l2_12(y, ops.l2_12(x, m)),
                )
                report.add(
                    f"{tag}.e1[{i + 1},{j + 1},{k + 1}]",
                    "l3(x,y,d m) = l2(x,l2(y,m)) - l2(l2(x,y),m) - l2(y,l2(x,m))",
                    _vecstr(vec_sub(lhs, rhs)),
                )
                lhs = vec_scale(ops.l3(x, ops.l1(m), y), -1)
                rhs = vec_sub(
                    vec_sub(ops.l2_12(x, ops.l2_21(m, y)), ops.l2_21(ops.l2_12(x, m), y)),
                    ops.l2_21(m, ops.l2_11(x, y)),
                )
                report.add(
                    f"{tag}.e2[{i + 1},{j + 1},{k + 1}]",
                    "-l3(x,d m,y) = l2(x,l2(m,y)) - l2(l2(x,m),y) - l2(m,l2(x,y))",
                    _vecstr(vec_sub(lhs, rhs)),
                )
                lhs = vec_scale(ops.l3(ops.l1(m), x, y), -1)
                rhs = vec_sub(
                    vec_add(ops.l2_21(m, ops.l2_11(x, y)), ops.l2_21(ops.l2_21(m, x), y)),
                    ops.l2_12(x, ops.l2_21(m, y)),
                )
                report.add(
                    f"{tag}.e3[{i + 1},{j + 1},{k + 1}]",
                    "-l3(d m,x,y) = l2(m,l2(x,y)) + l2(l2(m,x),y) - l2(x,l2(m,y))",
                    _vecstr(vec_sub(lhs, rhs)),
                )
    for i in range(r1):
        for j in range(r1):
            for k in range(r1):
                for w in range(r1):
                    xv, yv, zv, wv = e(i), e(j), e(k), e(w)
                    total = ops.l2_12(xv, ops.l3(yv, zv, wv))
                    total = vec_sub(total, ops.l2_12(yv, ops.l3(xv, zv, wv)))
                    total = vec_add(total, ops.l2_12(zv, ops.l3(xv, yv, wv)))
                    total = vec_sub(total, ops.l2_21(ops.l3(xv, yv, zv), wv))
                    total = vec_sub(total, ops.l3(ops.l2_11(xv, yv), zv, wv))
                    total = vec_sub(total, ops.l3(yv, ops.l2_11(xv, zv), wv))
                    total = vec_sub(total, ops.l3(yv, zv, ops.l2_11(xv, wv)))
                    total = vec_add(total, ops.l3(xv, ops.l2_11(yv, zv), wv))
                    total = vec_add(total, ops.l3(xv, zv, ops.l2_11(yv, wv)))
                    total = vec_sub(total, ops.l3(xv, yv, ops.l2_11(zv, wv)))
                    report.add(
                        f"{tag}.f[{i + 1},{j + 1},{k + 1},{w + 1}]",
                        "jacobiator of l2 against l3 vanishes",
                        _vecstr(total),
                    )
    return report


def check_lie2_axioms(s: Lie2Structure) -> CheckReport:
    """Direct axiom check: bracket axioms plus the two anchor conditions."""
    report = CheckReport("lie2-axioms")
    for bad in s.symmetry_violations():
        report.add_flag("symmetry", "mu3/mu5 alternating", False, bad)
    ops = Lie2Ops(s)
    check_leibniz2_axioms(ops, report)
    ch = s.chart
    r1, r2, n = ch.rank1, ch.rank2, ch.base_dim
    for j in range(r2):
        v = ops.l1(basis_vector(ch, r2, j))
        for m in range(n):
            res = ops.anchor(v, x_(ch, m + 1))
            report.add(f"anchor.al1[{j + 1},{m + 1}]", "a(d m) = 0", res)
    for i in range(r1):
        for j in range(r1):
            xv, yv = basis_vector(ch, r1, i), basis_vector(ch, r1, j)
            for m in range(n):
                fm = x_(ch, m + 1)
                lhs = ops.anchor(ops.l2_11(xv, yv), fm)
                rhs = ops.anchor(xv, ops.anchor(yv, fm)) - ops.anchor(yv, ops.anchor(xv, fm))
                report.add(
                    f"anchor.morphism[{i + 1},{j + 1},{m + 1}]",
                    "a(l2(x,y)) = [a(x), a(y)]",
                    lhs - rhs,
                )
    return report


def transport(s: Lie2Structure, t1, t2) -> Lie2Structure:
    """Structure in a new frame; rows of t1/t2 are the new frame vectors."""
    ch = s.chart
    r1, r2, n = ch.rank1, ch.rank2, ch.base_dim
    ops = Lie2Ops(s)
    inv1 = invert(t1)
    inv2 = invert(t2)
    if inv1 is None or inv2 is None:
        raise ValueError("frame change must be invertible")
    new = Lie2Structure.zero(ch)
    bas1 = [[Poly.const(ch, t1[i][j]) for j in range(r1)] for i in range(r1)]
    bas2 = [[Poly.const(ch, t2[i][j]) for j in range(r2)] for i in range(r2)]

    def re1(vec):
        # express a constant-free poly vector in the new degree -1 frame
        return [
            sum((vec[b] * Fraction(inv1[b][a]) for b in range(r1)), Poly.zero(ch))
            for a in range(r1)
        ]

    def re2(vec):
        return [
            sum((vec[b] * Fraction(inv2[b][a]) for b in range(r2)), Poly.zero(ch))
            for a in range(r2)
        ]

    for j in range(r1):
        for i in range(n):
            new.mu1[j][i] = ops.anchor(bas1[j], x_(ch, i + 1))
    for j in range(r2):
        new.mu2[j] = re1(ops.l1(bas2[j]))
    for i in range(r1):
        for j in range(r1):
            new.mu3[i][j] = re1(ops.l2_11(bas1[i], bas1[j]))
    for i in range(r1):
        for j in range(r2):
            new.mu4[i][j] = re2(ops.l2_12(bas1[i], bas2[j]))
    for i, j, k in itertools.product(range(r1), repeat=3):
        new.mu5[i][j][k] = re2(ops.l3(bas1[i], bas1[j], bas1[k]))
    return new


def check_lwx_axioms(e: LWXStructure) -> CheckReport:
    """Axioms of a metric double on frame tuples, with coordinate probes."""
    rep = CheckReport("lwx-axioms")
    ops = LWXOps(e)
    ch = e.chart
    d, n = e.d1, ch.base_dim
    u = lambda a: basis_vector(ch, d, a)
    probes = [Poly.const(ch, 1)] + [x_(ch, i + 1) for i in range(n)]

    def vecstr(v):
        parts = [f"[{i + 1}] {p.render()}" for i, p in enumerate(v) if not p.is_zero]
        return "; ".join(parts)

    # (i) the underlying two-term bracket system
    check_leibniz2_axioms(ops, rep, tag="lwx.i")

    # (ii) symmetrized mixed operation is the pairing gradient
    for a in range(d):
        for m in range(d):
            for fi, f in enumerate(probes):
                e1v = u(a)
                e2v = [f if q == m else Poly.zero(ch) for q in range(d)]
                lhs = vec_sub(ops.l2_12(e1v, e2v), ops.l2_21(e2v, e1v))
                rhs = vec_scale(ops.dmap(ops.pair(e1v, e2v)), 1)
                rep.add(
                    f"lwx.ii[{a + 1},{m + 1},f{fi}]",
                    "e1 * e2 - e2 * e1 = D S(e1, e2)",
                    vecstr(vec_sub(lhs, rhs)),
                )
    # (iii) the unary map is self-adjoint
    for m1 in range(d):
        for m2 in range(d):
            lhs = ops.pair(ops.l1(u(m1)), u(m2))
            rhs = ops.pair(ops.l1(u(m2)), u(m1))
            rep.add(
                f"lwx.iii[{m1 + 1},{m2 + 1}]",
                "S(partial e, e') = S(e, partial e')",
                lhs - rhs,
            )
    # (iv) the anchor differentiates the pairing; f-probes exercise the
    # derivative terms since the pairing of plain frames is constant
    for a in range(d):
        for b in range(d):
            for c in range(d):
                for fi, f in enumerate(probes):
                    e3 = [f if q == c else Poly.zero(ch) for q in range(d)]
                    lhs = ops.anchor(u(a), ops.pair(u(b), e3))
                    rhs = ops.pair(ops.l2_11(u(a), u(b)), e3) + ops.pair(
                        u(b), ops.l2_12(u(a), e3)
                    )
                    rep.add(
                        f"lwx.iv.112[{a + 1},{b + 1},{c + 1},f{fi}]",
                        "rho(e1) S(e2,e3) = S(e1*e2, e3) + S(e2, e1*e3)",
                        lhs - rhs,
                    )
                lhs = ops.anchor(u(a), ops.pair(u(c), u(b)))
                rhs = ops.pair(u(c), ops.l2_12(u(a), u(b))) + ops.pair(
                    ops.l2_11(u(a), u(c)), u(b)
                )
                rep.add(
                    f"lwx.iv.121[{a + 1},{b + 1},{c + 1}]",
                    "rho(e1) S(e2,e3) = S(e1*e2, e3) + S(e2, e1*e3), mixed order",
                    lhs - rhs,
                )
                res = ops.pair(u(c), ops.l2_21(u(a), u(b))) + ops.pair(
                    u(b), ops.l2_21(u(a), u(c))
                )
                rep.add(
                    f"lwx.iv.211[{a + 1},{b + 1},{c + 1}]",
                    "S(e1*e2, e3) + S(e2, e1*e3) = 0 for degree -2 e1",
                    res,
                )
    # (v) the 3-form is self-adjoint up to sign in its last two slots
    for a in range(d):
        for b in range(d):
            for c in range(d):
                for w in range(d):
                    lhs = ops.pair(u(w), ops.l3(u(a), u(b), u(c)))
                    rhs = -ops.pair(u(c), ops.l3(u(a), u(b), u(w)))
                    rep.add(
                        f"lwx.v[{a + 1},{b + 1},{c + 1},{w + 1}]",
                        "S(Omega(e1,e2,e3), e4) = -S(e3, Omega(e1,e2,e4))",
                        lhs - rhs,
                    )
    # enforced shape conditions
    skew = all(
        all((e.c11[a][b][k] + e.c11[b][a][k]).is_zero for k in range(d))
        for a in range(d)
        for b in range(d)
    )
    rep.add_flag("lwx.skew", "binary operation is skew on the degree -1 frame", skew,
                 "c11 not skew")
    alt = True
    for a in range(d):
        for b in range(d):
            for c in range(d):
                for k in range(d):
                    v = e.omega[a][b][c][k]
                    if not (v + e.omega[b][a][c][k]).is_zero:
                        alt = False
                    if not (v + e.omega[a][c][b][k]).is_zero:
                        alt = False
    rep.add_flag("lwx.alternating", "3-form is alternating", alt, "omega not alternating")

    # consequences
    for m in range(d):
        for i in range(n):
            res = ops.anchor(ops.l1(u(m)), x_(ch, i + 1))
            rep.add(f"lwx.rho-partial[{m + 1},{i + 1}]", "rho(partial e) = 0", res)
    for fi, f in enumerate(probes[1:], start=1):
        df = ops.dmap(f)
        rep.add(f"lwx.partial-D[f{fi}]", "partial(D f) = 0", vecstr(ops.l1(df)))
        for a in range(d):
            lhs = ops.l2_12(u(a), df)
            rhs = ops.dmap(ops.pair(u(a), df))
            rep.add(f"lwx.e-Df[{a + 1},f{fi}]", "e * D f = D S(e, D f)",
                    vecstr(vec_sub(lhs, rhs)))
            rep.add(f"lwx.Df-e[{a + 1},f{fi}]", "D f * e = 0",
                    vecstr(ops.l2_21(df, u(a))))
    return rep


def polyvec_in_span(basis, vec) -> bool:
    for _, row in _polyvec_rows(vec).items():
        if not in_span(basis, row):
            return False
    return True


def _const_vec(chart, rational_vec):
    return [Poly.const(chart, c) for c in rational_vec]


def check_strict_dirac(e: LWXStructure, sub: Subbundle):
    """Isotropy, maximality and closure; returns (report, restriction|None)."""
    rep = CheckReport("strict-dirac")
    ops = LWXOps(e)
    ch = e.chart
    d = e.d1
    b1, b2 = sub.basis1, sub.basis2
    rep.add_flag("dirac.independent", "subbundle bases are linearly independent",
                 rank(b1) == len(b1) and rank(b2) == len(b2), "dependent basis")
    iso = all(
        sum(u[a] * e.pairing[a][m] * w[m] for a in range(d) for m in range(d)) == 0
        for u in b1
        for w in b2
    )
    rep.add_flag("dirac.isotropic", "subbundle is isotropic", iso, "pairing not zero")
    rep.add_flag(
        "dirac.maximal",
        "degree dimensions add up to the frame size",
        len(b1) + len(b2) == d,
        f"dim {len(b1)}+{len(b2)} != {d}",
    )
    closed = True
    detail = []
    for i, w in enumerate(b2):
        val = ops.l1(_const_vec(ch, w))
        if not polyvec_in_span(b1, val):
            closed = False
            detail.append(f"partial[{i + 1}]")
    rep.add_flag("dirac.partial", "unary map preserves the subbundle", closed,
                 ", ".join(detail))
    closed11 = True
    closed12 = True
    detail = []
    for i, uu in enumerate(b1):
        for j, vv in enumerate(b1):
            val = ops.l2_11(_const_vec(ch, uu), _const_vec(ch, vv))
            if not polyvec_in_span(b1, val):
                closed11 = False
                detail.append(f"11[{i + 1},{j + 1}]")
        for j, ww in enumerate(b2):
            val = ops.l2_12(_const_vec(ch, uu), _const_vec(ch, ww))
            if not polyvec_in_span(b2, val):
                closed12 = False
                detail.append(f"12[{i + 1},{j + 1}]")
            val = ops.l2_21(_const_vec(ch, ww), _const_vec(ch, uu))
            if not polyvec_in_span(b2, val):
                closed12 = False
                detail.append(f"21[{i + 1},{j + 1}]")
    rep.add_flag("dirac.closure", "binary operation preserves the subbundle",
                 closed11 and closed12, ", ".join(detail[:6]))
    closed3 = True
    detail = []
    for i, uu in enumerate(b1):
        for j, vv in enumerate(b1):
            for k, zz in enumerate(b1):
                val = ops.l3(_const_vec(ch, uu), _const_vec(ch, vv), _const_vec(ch, zz))
                if not polyvec_in_span(b2, val):
                    closed3 = False
                    detail.append(f"3[{i + 1},{j + 1},{k + 1}]")
    rep.add_flag("dirac.threeform", "3-form preserves the subbundle", closed3,
                 ", ".join(detail[:6]))
    if not rep.passed:
        return rep, None
    restricted = restrict_to_subbundle(e, sub)
    ax = check_lie2_axioms(restricted)
    rep.add_flag("dirac.restriction", "restriction satisfies the structure axioms",
                 ax.passed, "; ".join(r.check_id for r in ax.failures[:4]))
    return rep, restricted


def restrict_to_subbundle(e: LWXStructure, sub: Subbundle) -> Lie2Structure:
    """Structure carried by a closed maximal isotropic subbundle."""
    ops = LWXOps(e)
    ch = e.chart
    r1, r2 = len(sub.basis1), len(sub.basis2)
    out = Lie2Structure.zero(Chart(ch.base_dim, r1, r2))
    och = out.chart
    b1, b2 = sub.basis1, sub.basis2

    def re1(vec):
        c = polyvec_expand(b1, vec, ch)
        if c is None:
            raise ValueError("value leaves the subbundle")
        return [q.lift(och) for q in c]

    def re2(vec):
        c = polyvec_expand(b2, vec, ch)
        if c is None:
            raise ValueError("value leaves the subbundle")
        return [q.lift(och) for q in c]

    for j, w in enumerate(b2):
        out.mu2[j] = re1(ops.l1(_const_vec(ch, w)))
    for i, uu in enumerate(b1):
        for mdx in range(ch.base_dim):
            out.mu1[i][mdx] = ops.anchor(_const_vec(ch, uu), x_(ch, mdx + 1)).lift(och)
        for j, vv in enumerate(b1):
            out.mu3[i][j] = re1(ops.l2_11(_const_vec(ch, uu), _const_vec(ch, vv)))
        for j, ww in enumerate(b2):
            a = ops.l2_12(_const_vec(ch, uu), _const_vec(ch, ww))
            b = ops.l2_21(_const_vec(ch, ww), _const_vec(ch, uu))
            if any(x != y for x, y in zip(a, b)):
                raise ValueError("mixed operation is not symmetric on the subbundle")
            out.mu4[i][j] = re2(a)
    for i, uu in enumerate(b1):
        for j, vv in enumerate(b1):
            for k, zz in enumerate(b1):
                out.mu5[i][j][k] = re2(
                    ops.l3(_const_vec(ch, uu), _const_vec(ch, vv), _const_vec(ch, zz))
                )
    return out


def lwx_transport(e: LWXStructure, t1, t2) -> LWXStructure:
    """Structure tensors in new frames (rows of t1, t2); the pairing of the
    new frames must again be the canonical hyperbolic one."""
    ops = LWXOps(e)
    ch = e.chart
    d = e.d1
    inv1 = invert(t1)
    inv2 = invert(t2)
    if inv1 is None or inv2 is None:
        raise ValueError("frame change must be invertible")
    out = LWXStructure.empty(ch)
    for a in range(d):
        for mm in range(d):
            val = sum(
                t1[a][x] * e.pairing[x][y] * t2[mm][y] for x in range(d) for y in range(d)
            )
            if val != out.pairing[a][mm]:
                raise ValueError("frame change does not preserve the canonical pairing")
    b1 = [_const_vec(ch, t1[a]) for a in range(d)]
    b2 = [_const_vec(ch, t2[mm]) for mm in range(d)]

    def re1(vec):
        return [
            sum((vec[y] * Fraction(inv1[y][x]) for y in range(d)), Poly.zero(ch))
            for x in range(d)
        ]

    def re2(vec):
        return [
            sum((vec[y] * Fraction(inv2[y][x]) for y in range(d)), Poly.zero(ch))
            for x in range(d)
        ]

    for mm in range(d):
        out.partial[mm] = re1(ops.l1(b2[mm]))
    for a in range(d):
        for i in range(ch.base_dim):
            out.rho[a][i] = ops.anchor(b1[a], x_(ch, i + 1))
    for a in range(d):
        for b in range(d):
            out.c11[a][b] = re1(ops.l2_11(b1[a], b1[b]))
            out.c12[a][b] = re2(ops.l2_12(b1[a], b2[b]))
            out.c21[b][a] = re2(ops.l2_21(b2[b], b1[a]))
    for a in range(d):
        for b in range(d):
            for c in range(d):
                out.omega[a][b][c] = re2(ops.l3(b1[a], b1[b], b1[c]))
    return out
