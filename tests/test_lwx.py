from fractions import Fraction

import pytest

from test_frame_algebra import lwx_transport
from splitlie2.builtin import lsa3, semidirect_poly, string_sl2
from splitlie2.gradedpoly import Poly
from splitlie2.multivectors import MCElement
from splitlie2.structures import MorphismData
from splitlie2.twisting import BialgebroidPair
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
    hyperbolic_pairing,
)


def _pairs():
    out = []
    ex = lsa3()
    out.append(("lsa3-abelian", BialgebroidPair.abelian(ex["structure"])))
    out.append(("lsa3-twist", BialgebroidPair.from_twist(ex["structure"], ex["mc"])))
    exs = string_sl2()
    out.append(("string-twist", BialgebroidPair.from_twist(exs["structure"], exs["mc"])))
    out.append(("semidirect-abelian", BialgebroidPair.abelian(semidirect_poly()["structure"])))
    return out


@pytest.mark.parametrize("name,pair", _pairs())
def test_double_routes_agree(name, pair):
    _, rep = build_double(pair)
    assert rep.passed, [r.check_id for r in rep.failures]


@pytest.mark.parametrize("name,pair", _pairs())
def test_double_satisfies_axioms(name, pair):
    e, _ = build_double(pair, cross_check=False)
    rep = check_lwx_axioms(e)
    assert rep.passed, [(r.check_id, r.residual) for r in rep.failures[:5]]


def test_abelian_pair_double_only_pairing_and_unary_survive():
    s = lsa3()["structure"]
    pair = BialgebroidPair.abelian(s)
    # remove the brackets entirely: a fully abelian pair
    from splitlie2.structures import Lie2Structure

    zero = Lie2Structure.zero(s.chart)
    e, _ = build_double(BialgebroidPair.abelian(zero), cross_check=False)
    d = e.d1
    assert all(e.c11[a][b][k].is_zero for a in range(d) for b in range(d) for k in range(d))
    assert all(e.omega[a][b][c][k].is_zero
               for a in range(d) for b in range(d) for c in range(d) for k in range(d))
    assert e.pairing == hyperbolic_pairing(3, 3)


def test_string_double_matches_displayed_operation_and_threeform():
    exs = string_sl2()
    s = exs["structure"]
    c = exs["brackets"]
    b = exs["bilinear_form"]
    m = exs["mc"]  # h = first basis vector
    pair = BialgebroidPair.from_twist(s, m)
    e, rep = build_double(pair)
    assert rep.passed
    ops = LWXOps(e)
    ch = e.chart
    d = e.d1  # 4: three algebra slots + one line slot
    hvec = [m.h[a][0].coefficient(()) for a in range(3)]

    def e1(x3, sline):
        v = [Poly.const(ch, q) for q in list(x3) + [sline]]
        return v

    def e2(u, alpha3):
        return [Poly.const(ch, q) for q in [u] + list(alpha3)]

    # unary map is zero
    for mm in range(d):
        assert all(p.is_zero for p in ops.l1([Poly.const(ch, int(q == mm)) for q in range(d)]))

    import itertools

    def bsharp(v):
        return [sum(b[k][q] * v[q] for q in range(3)) for k in range(3)]

    def brk(u, v):
        return [sum(u[i] * v[j] * c[i][j][k] for i in range(3) for j in range(3))
                for k in range(3)]

    # pure algebra part of the operation: (x,0) * (y,0) = ([x,y], 0)
    for x in itertools.product((0, 1), repeat=3):
        for y in itertools.product((0, 1), repeat=3):
            got = ops.l2_11(e1(x, 0), e1(y, 0))
            want = [Poly.const(ch, q) for q in brk(x, y)] + [Poly.zero(ch)]
            assert got == want

    # the coadjoint part of the mixed operation, on the line slot
    for alpha in itertools.product((0, 1), repeat=3):
        for s1 in (0, 1):
            got = ops.l2_12(e1((0, 0, 0), s1), e2(0, alpha))
            coad = [
                -sum(s1 * hvec[a] * c[a][k][j] * alpha[j]
                     for a in range(3) for j in range(3))
                for k in range(3)
            ]
            want = [Poly.zero(ch)] + [Poly.const(ch, q) for q in coad]
            assert got == want
            assert ops.l2_21(e2(0, alpha), e1((0, 0, 0), s1)) == want

    # curvature 3-form equals the displayed pair on every frame triple
    for x in itertools.product((0, 1), repeat=3):
        for y in ((1, 0, 0), (0, 1, 0), (0, 0, 1)):
            for z in ((0, 1, 0), (0, 0, 1)):
                for (s1, t1, r1) in ((0, 0, 0), (1, 0, 0), (0, 1, 1), (1, 1, 1)):
                    got = ops.l3(e1(x, s1), e1(y, t1), e1(z, r1))
                    first = sum(
                        b[i][mq] * c[j][k][mq] * x[i] * y[j] * z[k]
                        for i in range(3) for j in range(3) for k in range(3)
                        for mq in range(3)
                    )
                    second = [
                        -r1 * bsharp(brk(x, y))[k]
                        - s1 * bsharp(brk(y, z))[k]
                        - t1 * bsharp(brk(z, x))[k]
                        for k in range(3)
                    ]
                    want = [Poly.const(ch, first)] + [Poly.const(ch, q) for q in second]
                    assert got == want


@pytest.mark.parametrize("name,pair", _pairs())
def test_canonical_halves_are_strict_and_restrict_to_the_pair(name, pair):
    e, _ = build_double(pair, cross_check=False)
    rep_a, restr_a = check_strict_dirac(e, Subbundle.canonical_half(e.chart))
    rep_b, restr_b = check_strict_dirac(e, Subbundle.canonical_dual_half(e.chart))
    assert rep_a.passed and rep_b.passed
    assert restr_a.equals(pair.s)
    assert restr_b.equals(pair.dual)


@pytest.mark.parametrize("name,pair", _pairs())
def test_extraction_roundtrip(name, pair):
    e, _ = build_double(pair, cross_check=False)
    pair2, rep = extract_bialgebroid(
        e, Subbundle.canonical_half(e.chart), Subbundle.canonical_dual_half(e.chart)
    )
    assert rep.passed
    assert pair2.s.equals(pair.s) and pair2.dual.equals(pair.dual)
    e2, _ = build_double(pair2, cross_check=False)
    assert e2.equals(e)


def test_extraction_rejects_non_transversal():
    pair = BialgebroidPair.abelian(lsa3()["structure"])
    e, _ = build_double(pair, cross_check=False)
    sub = Subbundle.canonical_half(e.chart)
    with pytest.raises(ValueError):
        extract_bialgebroid(e, sub, sub)


def test_extraction_with_scaled_dual_basis_renormalizes():
    pair = BialgebroidPair.from_twist(lsa3()["structure"], lsa3()["mc"])
    e, _ = build_double(pair, cross_check=False)
    sub_b = Subbundle.canonical_dual_half(e.chart)
    scaled = Subbundle(
        [[3 * v for v in row] for row in sub_b.basis1],
        [[2 * v for v in row] for row in sub_b.basis2],
    )
    pair2, rep = extract_bialgebroid(e, Subbundle.canonical_half(e.chart), scaled)
    assert rep.passed
    assert pair2.s.equals(pair.s) and pair2.dual.equals(pair.dual)


def test_perturbed_threeform_fails_adjointness():
    exs = string_sl2()
    pair = BialgebroidPair.from_twist(exs["structure"], exs["mc"])
    e, _ = build_double(pair, cross_check=False)
    ch = e.chart
    bump = Poly.const(ch, 1)
    perms = {(0, 1, 2): 1, (1, 2, 0): 1, (2, 0, 1): 1,
             (1, 0, 2): -1, (0, 2, 1): -1, (2, 1, 0): -1}
    for (p, q, r), sg in perms.items():
        e.omega[p][q][r] = [
            e.omega[p][q][r][k] + (bump * sg if k == 0 else Poly.zero(ch))
            for k in range(e.d1)
        ]
    rep = check_lwx_axioms(e)
    assert not rep.passed
    assert any(r.check_id.startswith("lwx.v") for r in rep.failures)


def test_perturbed_binary_operation_fails_jacobiator():
    exs = string_sl2()
    pair = BialgebroidPair.from_twist(exs["structure"], exs["mc"])
    e, _ = build_double(pair, cross_check=False)
    ch = e.chart
    bump = Poly.const(ch, 1)
    e.c11[0][1] = [e.c11[0][1][k] + (bump if k == 3 else Poly.zero(ch)) for k in range(4)]
    e.c11[1][0] = [e.c11[1][0][k] - (bump if k == 3 else Poly.zero(ch)) for k in range(4)]
    rep = check_lwx_axioms(e)
    assert not rep.passed
    assert any(r.check_id.startswith("lwx.i.d") for r in rep.failures)


def test_graph_weak_dirac_lsa3_and_string():
    for ex in (lsa3(), string_sl2()):
        s = ex["structure"]
        m = ex["mc"]
        pair = BialgebroidPair.abelian(s)
        e, _ = build_double(pair, cross_check=False)
        graph, carried, grep = build_graph(pair, m)
        assert grep.passed
        rep = check_weak_dirac(e, carried, graph_morphism_data(e, graph))
        assert rep.passed, [r.check_id for r in rep.failures[:4]]


def test_graph_without_corrector_fails_for_nonzero_volume_part():
    ex = lsa3()
    pair = BialgebroidPair.abelian(ex["structure"])
    e, _ = build_double(pair, cross_check=False)
    graph, carried, _ = build_graph(pair, ex["mc"])
    fd = graph_morphism_data(e, graph)
    zero_f3 = [[[Fraction(0)] * len(v) for v in row] for row in fd.f3]
    rep = check_weak_dirac(e, carried, MorphismData(fd.f1, fd.f2, zero_f3))
    assert not rep.passed
    failing = {r.check_id.split("[")[0] for r in rep.failures}
    # the binary squares are insensitive here (no unary map); the cubic
    # compatibility detects the missing corrector
    assert "morphism.hept" in failing


def test_graph_with_zero_volume_part_is_strict():
    ex = lsa3()
    s = ex["structure"]
    pair = BialgebroidPair.abelian(s)
    e, _ = build_double(pair, cross_check=False)
    m0 = MCElement.build(s.chart, h=[[int(i == j) for j in range(3)] for i in range(3)])
    graph, carried, _ = build_graph(pair, m0)
    rep, restricted = check_strict_dirac(e, Subbundle(graph.basis1, graph.basis2))
    assert rep.passed
    assert restricted is not None and restricted.equals(carried)
    fd = graph_morphism_data(e, graph)
    rep2 = check_weak_dirac(e, carried, fd)
    assert rep2.passed


def test_graph_requires_flat_element():
    ex = lsa3()
    pair = BialgebroidPair.abelian(ex["structure"])
    bad = MCElement.build(ex["structure"].chart, h=[[1, 1, 0], [0, 1, 0], [0, 0, 2]],
                          k={(1, 2, 3): 1})
    with pytest.raises(ValueError):
        build_graph(pair, bad)


def test_lwx_transport_identity_and_scaling():
    pair = BialgebroidPair.from_twist(lsa3()["structure"], lsa3()["mc"])
    e, _ = build_double(pair, cross_check=False)
    d = e.d1
    ident = [[Fraction(int(i == j)) for j in range(d)] for i in range(d)]
    assert lwx_transport(e, ident, ident).equals(e)
    # a pairing-breaking change is rejected
    bad = [[Fraction(2 if i == j else 0) for j in range(d)] for i in range(d)]
    with pytest.raises(ValueError):
        lwx_transport(e, bad, ident)
