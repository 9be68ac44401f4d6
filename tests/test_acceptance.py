"""Acceptance suite: one test per criterion, one printed verdict line each.

Every comparison is exact (rational arithmetic, residuals equal to zero);
there are no numeric tolerances anywhere.  Run with `pytest -v -s
tests/test_acceptance.py` to see the verdict lines.
"""

import random
from fractions import Fraction

import pytest

from splitlie2.builtin import builtin_example, lsa3, string_sl2
from splitlie2.cochains import verify_calculus_identities
from splitlie2.gradedpoly import Poly
from splitlie2.multivectors import (
    MCElement,
    mc_residual,
    solve_linear_mc,
    verify_hp_axioms,
)
from splitlie2.randomsuite import structure_suite
from splitlie2.sfile import mc_blocks, parse_structure_file, render_structure
from splitlie2.structures import (
    MorphismData,
    check_lie2_axioms,
    cross_check_mu_equivalence,
    decode_mu,
    encode_mu,
    mu_nilpotency_report,
)
from splitlie2.twisting import (
    BialgebroidPair,
    check_bialgebroid,
    induced_dual_structure,
    lambda_nilpotency,
    mce1_condition_check,
    relative_mc_residual,
)
from splitlie2.lwx import (
    LWXOps,
    Subbundle,
    build_double,
    build_graph,
    check_lwx_axioms,
    check_strict_dirac,
    check_weak_dirac,
    extract_bialgebroid,
    graph_morphism_data,
)

BUILTINS = ["abelian(2,1)", "lsa3", "string_sl2", "crossed_sl2", "semidirect_poly"]


def _verdict(number, ok, text):
    print(f"acceptance {number:2d}: {'PASS' if ok else 'FAIL'} - {text}")
    assert ok, f"criterion {number} failed: {text}"


def test_criterion_01_lsa3_induced_dual_ternary_values():
    ok = True
    for k0 in (1, 5):
        ex = lsa3(k0)
        dual, rep = induced_dual_structure(ex["structure"], ex["mc"])
        ok &= rep.passed
        ch = dual.chart
        want = Poly.const(ch, Fraction(-4 * k0))
        perms = {(0, 1, 2): 1, (1, 2, 0): 1, (2, 0, 1): 1,
                 (1, 0, 2): -1, (0, 2, 1): -1, (2, 1, 0): -1}
        for i in range(3):
            for j in range(3):
                for k in range(3):
                    for l in range(3):
                        got = dual.mu5[i][j][k][l]
                        if len({i, j, k}) == 3 and l == 0:
                            ok &= got == want * perms[(i, j, k)]
                        else:
                            ok &= got.is_zero
    _verdict(1, ok, "twisted dual of the 3-dim left-symmetric example has the "
                    "ternary values -4*k0 on the first dual frame, for k0 in {1, 5}")


def test_criterion_02_lsa3_flatness_and_free_volume_slot():
    ex = lsa3()
    s = ex["structure"]
    residuals = mc_residual(s, ex["mc"])
    ok = all(r.is_zero for r in residuals)
    h = [[Fraction(int(i == j)) for j in range(3)] for i in range(3)]
    sol = solve_linear_mc(s, h, {(1, 2, 3): None})
    ok &= (not sol.is_empty) and sol.dimension == 1
    _verdict(2, ok, "identity pairing plus volume element is exactly flat and the "
                    "volume slot solves to a 1-dimensional affine family")


def test_criterion_03_string_example_values():
    exs = string_sl2()
    s, c, b = exs["structure"], exs["brackets"], exs["bilinear_form"]
    ok = True
    for m in exs["mc_family"]:
        ok &= all(r.is_zero for r in mc_residual(s, m))
        dual, rep = induced_dual_structure(s, m)
        ok &= rep.passed
        hvec = [m.h[a][0] for a in range(3)]
        for j in range(3):
            for k in range(3):
                expect = Poly.zero(dual.chart)
                for a in range(3):
                    expect = expect + hvec[a].lift(dual.chart) * (-c[a][k][j])
                ok &= dual.mu4[0][j][k] == expect
    # double of the pair induced by the first basis element: the 3-form
    # matches the displayed pair of components exactly
    pair = BialgebroidPair.from_twist(s, exs["mc"])
    e, rep = build_double(pair)
    ok &= rep.passed
    ops = LWXOps(e)
    ch = e.chart
    import itertools

    def e1(x3, s1):
        return [Poly.const(ch, q) for q in list(x3) + [s1]]

    def bsharp(v):
        return [sum(b[k][q] * v[q] for q in range(3)) for k in range(3)]

    def brk(u, v):
        return [sum(u[i] * v[j] * c[i][j][k] for i in range(3) for j in range(3))
                for k in range(3)]

    for x in itertools.product((0, 1), repeat=3):
        for y in itertools.product((0, 1), repeat=3):
            for z in ((1, 0, 0), (0, 1, 0), (0, 0, 1)):
                for (s1, t1, r1) in ((0, 0, 0), (1, 0, 0), (0, 1, 1), (1, 1, 1)):
                    got = ops.l3(e1(x, s1), e1(y, t1), e1(z, r1))
                    first = sum(b[i][mq] * c[j][k][mq] * x[i] * y[j] * z[k]
                                for i in range(3) for j in range(3)
                                for k in range(3) for mq in range(3))
                    second = [-r1 * bsharp(brk(x, y))[k] - s1 * bsharp(brk(y, z))[k]
                              - t1 * bsharp(brk(z, x))[k] for k in range(3)]
                    want = [Poly.const(ch, first)] + [Poly.const(ch, q) for q in second]
                    ok &= got == want
    _verdict(3, ok, "quadratic example: every basis twist and a rational "
                    "combination are flat, the induced binary bracket is the "
                    "coadjoint action, and the double's 3-form matches the "
                    "displayed components exactly")


def test_criterion_04_direct_axioms_equal_nilpotency_on_fifty():
    suite = structure_suite(50, seed=11)
    ok = True
    for s, expected in suite:
        rep = cross_check_mu_equivalence(s)
        ok &= rep.passed
        if expected is True:
            ok &= rep.meta["direct_passed"]
    _verdict(4, ok, "direct axiom checker and generating-function nilpotency "
                    "agree on all 50 generated structures (25 valid, 25 perturbed)")


def test_criterion_05_homotopy_poisson_identities():
    ok = True
    for name in BUILTINS:
        s = builtin_example(name)["structure"]
        rep = verify_hp_axioms(s, count=100, seed=3)
        ok &= rep.passed
    _verdict(5, ok, "symmetry, derivation and higher Jacobi identities vanish on "
                    "100 random multivector tuples per builtin structure")


def test_criterion_06_calculus_identities():
    ok = True
    for name in BUILTINS:
        s = builtin_example(name)["structure"]
        rep = verify_calculus_identities(s, cochain_count=50, seed=5)
        ok &= rep.passed
    _verdict(6, ok, "square-zero, both chain formulas and the derivative identities "
                    "vanish on all frame tuples and 50 random cochains per builtin")


def test_criterion_07_double_construction_and_manin_roundtrip():
    ok = True
    pairs = [
        BialgebroidPair.abelian(lsa3()["structure"]),
        BialgebroidPair.from_twist(lsa3()["structure"], lsa3()["mc"]),
        BialgebroidPair.from_twist(string_sl2()["structure"], string_sl2()["mc"]),
        BialgebroidPair.abelian(builtin_example("semidirect_poly")["structure"]),
    ]
    for pair in pairs:
        e, rep = build_double(pair)
        ok &= rep.passed  # explicit formulas == derived brackets, exactly
        ok &= check_lwx_axioms(e).passed
        rep_a, restr_a = check_strict_dirac(e, Subbundle.canonical_half(e.chart))
        rep_b, restr_b = check_strict_dirac(e, Subbundle.canonical_dual_half(e.chart))
        ok &= rep_a.passed and rep_b.passed
        ok &= restr_a.equals(pair.s) and restr_b.equals(pair.dual)
        pair2, rep2 = extract_bialgebroid(
            e, Subbundle.canonical_half(e.chart), Subbundle.canonical_dual_half(e.chart)
        )
        ok &= rep2.passed
        ok &= pair2.s.equals(pair.s) and pair2.dual.equals(pair.dual)
        e2, _ = build_double(pair2, cross_check=False)
        ok &= e2.equals(e)
    _verdict(7, ok, "both double constructions agree, every double passes the "
                    "axioms, both halves are strict, and extraction recovers "
                    "the pair and its double exactly")


def test_criterion_08_weak_dirac_graphs():
    ok = True
    for ex in (lsa3(), string_sl2()):
        pair = BialgebroidPair.abelian(ex["structure"])
        e, _ = build_double(pair, cross_check=False)
        graph, carried, grep = build_graph(pair, ex["mc"])
        ok &= grep.passed
        ok &= check_weak_dirac(e, carried, graph_morphism_data(e, graph)).passed
    # zero corrector with a nonzero volume part must fail
    ex = lsa3()
    pair = BialgebroidPair.abelian(ex["structure"])
    e, _ = build_double(pair, cross_check=False)
    graph, carried, _ = build_graph(pair, ex["mc"])
    fd = graph_morphism_data(e, graph)
    zero_f3 = [[[Fraction(0)] * len(v) for v in row] for row in fd.f3]
    ok &= not check_weak_dirac(e, carried, MorphismData(fd.f1, fd.f2, zero_f3)).passed
    # with no volume part the graph is honestly strict
    m0 = MCElement.build(ex["structure"].chart,
                         h=[[int(i == j) for j in range(3)] for i in range(3)])
    graph0, carried0, _ = build_graph(pair, m0)
    rep0, restr0 = check_strict_dirac(e, Subbundle(graph0.basis1, graph0.basis2))
    ok &= rep0.passed and restr0 is not None and restr0.equals(carried0)
    _verdict(8, ok, "graphs of flat elements are weak Dirac with the pairing "
                    "corrector; dropping the corrector fails when the volume "
                    "part is nonzero, and without it the graph is strict")


def test_criterion_09_twist_compatibility_and_combined_nilpotency():
    ok = True
    flats = []
    ex1 = lsa3()
    flats.append((ex1["structure"], ex1["mc"]))
    flats.append((lsa3(5)["structure"], lsa3(5)["mc"]))
    exs = string_sl2()
    for m in exs["mc_family"]:
        flats.append((exs["structure"], m))
    for s, m in flats:
        cond = mce1_condition_check(s, m)
        dual, _ = induced_dual_structure(s, m)
        bi = check_bialgebroid(BialgebroidPair(s, dual), derivation_checks=False)
        ok &= cond.passed == bi.passed
    pairs_with_elements = []
    base = BialgebroidPair.abelian(ex1["structure"])
    pairs_with_elements.append((base, ex1["mc"]))
    pairs_with_elements.append((base, MCElement.build(ex1["structure"].chart)))
    bad = MCElement.build(ex1["structure"].chart,
                          h=[[1, 1, 0], [0, 1, 0], [0, 0, 2]], k={(1, 2, 3): 1})
    pairs_with_elements.append((base, bad))
    twisted = BialgebroidPair.from_twist(ex1["structure"], ex1["mc"])
    pairs_with_elements.append((twisted, ex1["mc"]))
    spair = BialgebroidPair.abelian(exs["structure"])
    for m in exs["mc_family"]:
        pairs_with_elements.append((spair, m))
    for pair, m in pairs_with_elements:
        rel_zero = all(r.is_zero for r in relative_mc_residual(pair, m))
        lam, _ = lambda_nilpotency(pair, m)
        ok &= rel_zero == lam.records[0].passed
    _verdict(9, ok, "twist-compatibility conditions match the pair check, and "
                    "relative flatness matches combined-function nilpotency, "
                    "across the suite")


def test_criterion_10_engine_soundness_and_roundtrips():
    from splitlie2.bracket import poisson_bracket
    from splitlie2.gradedpoly import Chart, INHOMOGENEOUS
    from randpoly import random_homogeneous

    ok = True
    rng = random.Random(1)
    ch = Chart(2, 2, 2)

    def sgn(e):
        return -1 if e % 2 else 1

    for _ in range(100):
        df, dg, dh = rng.randint(0, 5), rng.randint(0, 5), rng.randint(0, 5)
        f = random_homogeneous(rng, ch, df)
        g = random_homogeneous(rng, ch, dg)
        h = random_homogeneous(rng, ch, dh)
        ok &= poisson_bracket(f, g) == sgn(1 + (df - 3) * (dg - 3)) * poisson_bracket(g, f)
        ok &= poisson_bracket(f, g * h) == poisson_bracket(f, g) * h + sgn(
            (df - 3) * dg
        ) * (g * poisson_bracket(f, h))
        ok &= poisson_bracket(f, poisson_bracket(g, h)) == poisson_bracket(
            poisson_bracket(f, g), h
        ) + sgn((df - 3) * (dg - 3)) * poisson_bracket(g, poisson_bracket(f, h))
    for name in BUILTINS:
        ex = builtin_example(name)
        s = ex["structure"]
        ok &= decode_mu(encode_mu(s), s.chart).equals(s)
        extra = mc_blocks(ex["mc"]) if ex.get("mc") else None
        sf = parse_structure_file(render_structure(s, extra=extra))
        ok &= sf.structure.equals(s)
        if ex.get("mc"):
            m = sf.mc_element()
            ok &= all(
                m.h[i][j] == ex["mc"].h[i][j]
                for i in range(s.chart.rank1)
                for j in range(s.chart.rank2)
            )
    _verdict(10, ok, "bracket laws hold on 100 random homogeneous tuples and "
                     "all encode/decode and serialize/parse roundtrips are exact")
