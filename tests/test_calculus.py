import random

import pytest

from decode_oracle import derived_bracket
from splitlie2.bracket import poisson_bracket
from splitlie2.builtin import builtin_example, example_names, lsa3, string_sl2
from splitlie2.cochains import (
    bidegree,
    iota,
    monomial_cochains,
    one_form,
    random_cochain,
    verify_calculus_identities,
)
from splitlie2.gradedpoly import Chart, Poly, x_
from splitlie2.multivectors import SAlgebra, random_base_poly, section1, section2
from splitlie2.structures import Lie2Structure, basis_vector


def test_exact_one_form_of_coordinate():
    # rank (1,0) structure with unit anchor: d x1 is the first dual frame
    ch = Chart(1, 1, 0)
    s = Lie2Structure.build(ch, mu1=[[1]])
    alg = SAlgebra(s)
    assert alg.d_part(x_(ch, 1)) == one_form(ch, a1=[1])
    # and evaluating it on the frame returns the anchor derivative
    assert iota(basis_vector(ch, 1, 0), None, alg.d_part(x_(ch, 1))) == Poly.const(ch, 1)


def test_coboundary_of_zero_structure_vanishes():
    s = Lie2Structure.zero(Chart(1, 2, 1))
    alg = SAlgebra(s)
    phi = one_form(s.chart, a1=[1, 2]) * one_form(s.chart, a2=[3])
    assert alg.delta(phi).is_zero
    assert poisson_bracket(alg.mu211, phi).is_zero


def test_unary_transpose_on_cochains():
    # with l1(F1) = E1 the degree-0 operator sends the first dual frame to
    # the second one
    ch = Chart(0, 1, 1)
    s = Lie2Structure.build(ch, mu2=[[1]])
    assert SAlgebra(s).b1(one_form(ch, a1=[1])) == one_form(ch, a2=[1])
    # and the bar piece of the coboundary pairs against the unary map
    s0 = lsa3()["structure"]  # unary map is zero here
    alg0 = SAlgebra(s0)
    for j in range(3):
        phi = one_form(s0.chart, a1=[1 if q == j else 0 for q in range(3)])
        assert poisson_bracket(alg0.mu211, phi).is_zero


def test_lsa3_dual_action_encoded_by_lie_derivative():
    # the action on dual frames is minus the transpose of the recorded
    # action: the (1,1) value -2 appears as +2 on the opposite side
    s = lsa3()["structure"]
    lie1 = SAlgebra(s).b2
    ch = s.chart
    e1 = section1(ch, basis_vector(ch, 3, 0))
    th = lambda i: one_form(ch, a2=[1 if q == i else 0 for q in range(3)])
    assert lie1(e1, th(0)) == 2 * th(0)
    assert lie1(e1, th(1)) == th(1)
    assert lie1(section1(ch, basis_vector(ch, 3, 1)), th(2)) == th(0)


def test_contraction_alternating_signs():
    ch = Chart(0, 2, 1)
    xi1, xi2 = one_form(ch, a1=[1, 0]), one_form(ch, a2=None) + one_form(ch, a1=[0, 1])
    e = lambda i: basis_vector(ch, 2, i)
    assert iota(e(0), None, xi1) == Poly.const(ch, 1)
    wedge = xi1 * xi2
    assert iota(e(0), None, wedge) == xi2
    assert iota(e(1), None, wedge) == -xi1


def test_pairing_tensor_recovered_by_iterated_contraction():
    s = lsa3()["structure"]
    ch = s.chart
    from splitlie2.multivectors import contract
    from splitlie2.gradedpoly import THD, XID

    m = lsa3()["mc"]
    hp = m.h_poly()
    for a in range(3):
        for b in range(3):
            a1 = [Poly.const(ch, 1 if q == a else 0) for q in range(3)]
            a2 = [Poly.const(ch, 1 if q == b else 0) for q in range(3)]
            first = contract(hp, {XID: a1})
            val = contract(first, {THD: a2})
            assert val == Poly.const(ch, 1 if a == b else 0)


def test_square_zero_on_monomials_up_to_degree_five():
    for name in ("lsa3", "string_sl2", "crossed_sl2", "semidirect_poly"):
        s = builtin_example(name)["structure"]
        alg = SAlgebra(s)
        for phi in monomial_cochains(s.chart, max_degree=5):
            assert alg.delta(alg.delta(phi)).is_zero


def test_bidegree_helper():
    ch = Chart(0, 2, 2)
    phi = one_form(ch, a1=[1, 0]) * one_form(ch, a2=[0, 1])
    assert bidegree(phi) == (1, 1)
    assert bidegree(Poly.const(ch, 3)) == (0, 0)
    assert bidegree(phi + one_form(ch, a1=[1, 0])) is None


@pytest.mark.parametrize("name", ["abelian(2,1)", "lsa3", "string_sl2", "crossed_sl2",
                                  "semidirect_poly"])
def test_calculus_identity_suite(name):
    s = builtin_example(name)["structure"]
    rep = verify_calculus_identities(s, cochain_count=50, seed=5)
    assert rep.passed, [r.check_id for r in rep.failures[:5]]


def test_string_triple_derivative_nonzero():
    # the ternary piece genuinely acts for the quadratic example
    s = string_sl2()["structure"]
    ch = s.chart
    th = one_form(ch, a2=[1])
    val = SAlgebra(s).b3(section1(ch, basis_vector(ch, 3, 0)),
                         section1(ch, basis_vector(ch, 3, 1)), th)
    assert not val.is_zero


@pytest.mark.parametrize("name", example_names())
def test_lie_derivatives_on_embedded_sections_equal_derived_brackets(name):
    """The Lie derivatives b2 and b3 on sections embedded once, with the
    memo shared across calls, equal fresh derived brackets of
    section1/section2."""
    s = builtin_example(name)["structure"]
    ch = s.chart
    alg = SAlgebra(s)
    rng = random.Random(name)
    xvs = [basis_vector(ch, ch.rank1, i) for i in range(ch.rank1)]
    xvs += [[random_base_poly(ch, rng) for _ in range(ch.rank1)] for _ in range(2)]
    mvs = [basis_vector(ch, ch.rank2, j) for j in range(ch.rank2)]
    mvs += [[random_base_poly(ch, rng) for _ in range(ch.rank2)] for _ in range(2)]
    xs = [section1(ch, v) for v in xvs]
    ms = [section2(ch, v) for v in mvs]
    for _ in range(4):
        phi = random_cochain(ch, rng)
        for x, xv in zip(xs, xvs):
            want = derived_bracket(alg.mu121, [section1(ch, xv), phi])
            assert alg.b2(x, phi) == want
            y, yv = xs[-1], xvs[-1]
            want = derived_bracket(alg.mu031, [section1(ch, xv), section1(ch, yv), phi])
            assert alg.b3(x, y, phi) == want
        for m, mv in zip(ms, mvs):
            want = derived_bracket(alg.mu121, [section2(ch, mv), phi])
            assert alg.b2(m, phi) == want
