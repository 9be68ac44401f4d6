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

The linear algebra (``rank``, ``invert``, ``solve_affine``, ``in_span``,
``expand_in_basis``) is the package's from before its three elimination
loops became one; ``polyvec_expand`` is the expansion that row-reduced the
basis again for every monomial; ``check_morphism`` with ``_push`` and
``_apply_f3`` is the morphism check from before it read frame tables, and
``check_weak_dirac`` and ``extract_bialgebroid`` are the versions with
their own pairing sums.  ``test_frame_algebra.py`` compares them.
This module is test-only; the package keeps one implementation.
"""

import itertools
from fractions import Fraction

from splitlie2.gradedpoly import Chart, Poly, x_
from splitlie2.lwx import LWXOps, LWXStructure, Subbundle
from splitlie2.report import CheckReport
from splitlie2.structures import (
    Lie2Ops,
    Lie2Structure,
    MorphismData,
    ShapeError,
    basis_vector,
    vec_add,
    vec_scale,
    vec_sub,
)
from splitlie2.twisting import BialgebroidPair, check_bialgebroid


def _frac_matrix(rows):
    return [[Fraction(v) for v in row] for row in rows]


def rank(rows) -> int:
    m = _frac_matrix(rows)
    if not m:
        return 0
    nrow, ncol = len(m), len(m[0])
    r = 0
    for c in range(ncol):
        piv = next((i for i in range(r, nrow) if m[i][c] != 0), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        inv = 1 / m[r][c]
        m[r] = [v * inv for v in m[r]]
        for i in range(nrow):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        r += 1
        if r == nrow:
            break
    return r


def invert(rows):
    """Inverse of a square rational matrix, or None if singular."""
    m = _frac_matrix(rows)
    n = len(m)
    aug = [m[i] + [Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    for c in range(n):
        piv = next((i for i in range(c, n) if aug[i][c] != 0), None)
        if piv is None:
            return None
        aug[c], aug[piv] = aug[piv], aug[c]
        inv = 1 / aug[c][c]
        aug[c] = [v * inv for v in aug[c]]
        for i in range(n):
            if i != c and aug[i][c] != 0:
                f = aug[i][c]
                aug[i] = [a - f * b for a, b in zip(aug[i], aug[c])]
    return [row[n:] for row in aug]


def solve_affine(a_rows, b_col):
    """Solve A x = b exactly.

    Returns (particular, nullspace_basis) or None when inconsistent.
    A zero-column system (no unknowns) is consistent iff b = 0.
    """
    nrow = len(a_rows)
    ncol = len(a_rows[0]) if a_rows else 0
    aug = [[Fraction(v) for v in a_rows[i]] + [Fraction(b_col[i])] for i in range(nrow)]
    pivots = []
    r = 0
    for c in range(ncol):
        piv = next((i for i in range(r, nrow) if aug[i][c] != 0), None)
        if piv is None:
            continue
        aug[r], aug[piv] = aug[piv], aug[r]
        inv = 1 / aug[r][c]
        aug[r] = [v * inv for v in aug[r]]
        for i in range(nrow):
            if i != r and aug[i][c] != 0:
                f = aug[i][c]
                aug[i] = [a - f * b for a, b in zip(aug[i], aug[r])]
        pivots.append(c)
        r += 1
        if r == nrow:
            break
    for i in range(r, nrow):
        if aug[i][ncol] != 0:
            return None
    particular = [Fraction(0)] * ncol
    for i, c in enumerate(pivots):
        particular[c] = aug[i][ncol]
    free = [c for c in range(ncol) if c not in pivots]
    basis = []
    for fc in free:
        v = [Fraction(0)] * ncol
        v[fc] = Fraction(1)
        for i, c in enumerate(pivots):
            v[c] = -aug[i][fc]
        basis.append(v)
    return particular, basis


def in_span(basis_vectors, vector) -> bool:
    """Exact membership of a rational vector in the span of basis vectors."""
    if all(v == 0 for v in vector):
        return True
    if not basis_vectors:
        return False
    cols = list(zip(*basis_vectors))
    sol = solve_affine([list(row) for row in cols], list(vector))
    return sol is not None


def expand_in_basis(basis_vectors, vector):
    """Coefficients expressing vector in the given basis, or None."""
    if not basis_vectors:
        return None if any(v != 0 for v in vector) else []
    cols = list(zip(*basis_vectors))
    sol = solve_affine([list(row) for row in cols], list(vector))
    return None if sol is None else sol[0]


def _polyvec_rows(vec):
    """Monomial -> rational coefficient row for a vector of base polys."""
    rows = {}
    width = len(vec)
    for pos, p in enumerate(vec):
        for mono, c in p.terms.items():
            rows.setdefault(mono, [Fraction(0)] * width)[pos] = c
    return rows


def polyvec_expand(basis, vec, chart):
    """Base-polynomial coefficients expressing vec in the rational basis."""
    coeffs = [Poly.zero(chart) for _ in basis]
    for mono, row in _polyvec_rows(vec).items():
        sol = expand_in_basis(basis, row)
        if sol is None:
            return None
        for i, c in enumerate(sol):
            if c:
                coeffs[i] = coeffs[i] + Poly(chart, {mono: c})
    return coeffs


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


def _push(matrix, vec, chart):
    out_dim = len(matrix)
    out = [Poly.zero(chart) for _ in range(out_dim)]
    for a in range(out_dim):
        for b in range(len(vec)):
            c = matrix[a][b]
            if c:
                out[a] = out[a] + vec[b].lift(chart) * Fraction(c)
    return out


def _apply_f3(f3, xv, yv, chart, out_dim):
    out = [Poly.zero(chart) for _ in range(out_dim)]
    for a in range(len(xv)):
        for b in range(len(yv)):
            c = xv[a] * yv[b]
            if c.is_zero:
                continue
            c = c.lift(chart)
            for k in range(out_dim):
                if f3[a][b][k]:
                    out[k] = out[k] + c * Fraction(f3[a][b][k])
    return out


def check_morphism(fdata: MorphismData, dom_ops, cod_ops) -> CheckReport:
    """Morphism equations from one 2-term bracket system to another.

    The codomain may be any ops object (a Lie structure, a Leibniz variant,
    or the section calculus of a metric double); the domain supplies the
    brackets being transported.
    """
    report = CheckReport("morphism")
    ch = dom_ops.chart
    cch = cod_ops.chart
    if ch.base_dim != cch.base_dim:
        raise ShapeError("domain and codomain live over different bases")
    r1d, r2d = dom_ops.r1, dom_ops.r2
    r1c, r2c = cod_ops.r1, cod_ops.r2
    if len(fdata.f1) != r1c or (fdata.f1 and len(fdata.f1[0]) != r1d):
        raise ShapeError("f1 has wrong shape")
    if len(fdata.f2) != r2c or (fdata.f2 and len(fdata.f2[0]) != r2d):
        raise ShapeError("f2 has wrong shape")
    e = lambda i: basis_vector(ch, r1d, i)
    f = lambda j: basis_vector(ch, r2d, j)
    push1 = lambda v: _push(fdata.f1, v, cch)
    push2 = lambda v: _push(fdata.f2, v, cch)
    f3 = lambda u, v: _apply_f3(fdata.f3, u, v, cch, r2c)

    # reported, not required: some targets only need a Leibniz-style morphism
    report.meta["f3_skew"] = fdata.is_f3_skew()

    for j in range(r2d):
        m = f(j)
        res = vec_sub(push1(dom_ops.l1(m)), cod_ops.l1(push2(m)))
        report.add(f"morphism.chain[{j + 1}]", "F1 d = d' F2", res)
    for i in range(r1d):
        for j in range(r1d):
            x, y = e(i), e(j)
            res = vec_sub(push1(dom_ops.l2_11(x, y)), cod_ops.l2_11(push1(x), push1(y)))
            res = vec_sub(res, cod_ops.l1(f3(x, y)))
            report.add(
                f"morphism.sq11[{i + 1},{j + 1}]",
                "F1 l2(x,y) - l2'(F1x,F1y) = d' F3(x,y)",
                res,
            )
    for i in range(r1d):
        for j in range(r2d):
            x, m = e(i), f(j)
            res = vec_sub(push2(dom_ops.l2_12(x, m)), cod_ops.l2_12(push1(x), push2(m)))
            res = vec_sub(res, f3(x, dom_ops.l1(m)))
            report.add(
                f"morphism.sq12[{i + 1},{j + 1}]",
                "F2 l2(x,m) - l2'(F1x,F2m) = F3(x, d m)",
                res,
            )
            res = vec_sub(push2(dom_ops.l2_21(m, x)), cod_ops.l2_21(push2(m), push1(x)))
            res = vec_add(res, f3(dom_ops.l1(m), x))
            report.add(
                f"morphism.sq21[{i + 1},{j + 1}]",
                "F2 l2(m,x) - l2'(F2m,F1x) = -F3(d m, x)",
                res,
            )
    for i in range(r1d):
        for j in range(r1d):
            for k in range(r1d):
                x, y, z = e(i), e(j), e(k)
                total = vec_scale(push2(dom_ops.l3(x, y, z)), -1)
                total = vec_add(total, cod_ops.l2_12(push1(x), f3(y, z)))
                total = vec_sub(total, cod_ops.l2_12(push1(y), f3(x, z)))
                total = vec_add(total, cod_ops.l2_21(f3(x, y), push1(z)))
                total = vec_sub(total, f3(dom_ops.l2_11(x, y), z))
                total = vec_add(total, f3(x, dom_ops.l2_11(y, z)))
                total = vec_sub(total, f3(y, dom_ops.l2_11(x, z)))
                total = vec_add(total, cod_ops.l3(push1(x), push1(y), push1(z)))
                report.add(
                    f"morphism.hept[{i + 1},{j + 1},{k + 1}]",
                    "heptagon relation between l3, l3' and F3",
                    total,
                )
    for i in range(r1d):
        for m in range(ch.base_dim):
            res = cod_ops.anchor(push1(e(i)), x_(cch, m + 1)) - dom_ops.anchor(
                e(i), x_(ch, m + 1)
            ).lift(cch)
            report.add(f"morphism.anchor[{i + 1},{m + 1}]", "a' F1 = a", res)
    return report


def check_weak_dirac(e: LWXStructure, struct: Lie2Structure, fdata: MorphismData) -> CheckReport:
    """Injective image, maximal isotropy, morphism property, matching anchors."""
    rep = CheckReport("weak-dirac")
    d = e.d1
    rL1, rL2 = struct.chart.rank1, struct.chart.rank2
    cols1 = [[fdata.f1[a][i] for a in range(d)] for i in range(rL1)]
    cols2 = [[fdata.f2[mm][j] for mm in range(d)] for j in range(rL2)]
    rep.add_flag("weak.injective", "frame maps are injective",
                 rank(cols1) == rL1 and rank(cols2) == rL2, "rank drop")
    iso = all(
        sum(u[a] * e.pairing[a][mm] * w[mm] for a in range(d) for mm in range(d)) == 0
        for u in cols1
        for w in cols2
    )
    rep.add_flag("weak.isotropic", "image is isotropic", iso, "pairing not zero")
    rep.add_flag("weak.maximal", "image dimensions add up to the frame size",
                 rL1 + rL2 == d, f"dim {rL1}+{rL2} != {d}")
    mor = check_morphism(fdata, Lie2Ops(struct), LWXOps(e))
    rep.extend(mor)
    return rep


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
    gram1 = [
        [
            sum(sub_a.basis1[i][x] * e.pairing[x][y] * sub_b.basis2[j][y]
                for x in range(d) for y in range(d))
            for j in range(rb2)
        ]
        for i in range(ra1)
    ]
    gram2 = [
        [
            sum(sub_b.basis1[k][x] * e.pairing[x][y] * sub_a.basis2[l][y]
                for x in range(d) for y in range(d))
            for l in range(ra2)
        ]
        for k in range(rb1)
    ]
    inv1 = invert(gram1)
    inv2 = invert(gram2)
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
    pair = BialgebroidPair(s_a, s_b)
    bi = check_bialgebroid(pair, derivation_checks=False)
    rep.add_flag("manin.pair", "extracted pair satisfies the compatibility equation",
                 bi.passed, "; ".join(r.check_id for r in bi.failures[:3]))
    return pair, rep
