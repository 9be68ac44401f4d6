"""Direct axiom suite without frame tables, the slow path the tables replace.

``check_leibniz2_axioms`` here is the suite ``splitlie2.structures`` ran
before it evaluated each inner frame bracket once into local tables: every
bracket, inner or outer, is a fresh evaluation on fresh frame vectors.
``test_axiom_tables.py`` compares the two record by record.  This module
is test-only; the package keeps one implementation.
"""

from splitlie2.report import CheckReport
from splitlie2.structures import _vecstr, basis_vector, vec_add, vec_scale, vec_sub


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
