import random
from fractions import Fraction

import pytest

from randpoly import tridegree
from splitlie2.gradedpoly import (
    INHOMOGENEOUS,
    KIND_DEGREE,
    THD,
    X,
    XI,
    Chart,
    ChartMismatchError,
    Poly,
    mono_from_sequence,
    mono_mul,
    p_,
    th_dn,
    th_up,
    x_,
    xi_dn,
    xi_up,
)

CH = Chart(2, 2, 2)


def test_odd_square_vanishes():
    t = th_dn(CH, 1)
    assert (t * t).is_zero
    assert (xi_up(CH, 1) * xi_up(CH, 1)).is_zero
    assert (p_(CH, 2) * p_(CH, 2)).is_zero


def test_koszul_sign_on_odd_swap():
    a, b = th_dn(CH, 1), th_dn(CH, 2)
    assert a * b == -(b * a)
    assert p_(CH, 1) * xi_up(CH, 1) == -(xi_up(CH, 1) * p_(CH, 1))


def test_even_variables_commute_and_power():
    # degree-2 momenta are even: squares are retained
    f = xi_dn(CH, 1) + th_dn(CH, 1) * th_dn(CH, 2)
    g = xi_dn(CH, 1)
    prod = f * g
    sq = xi_dn(CH, 1) * xi_dn(CH, 1)
    assert not sq.is_zero
    assert prod == sq + th_dn(CH, 1) * th_dn(CH, 2) * xi_dn(CH, 1)
    assert xi_dn(CH, 1) * th_up(CH, 2) == th_up(CH, 2) * xi_dn(CH, 1)


def test_degrees_and_inhomogeneous_marker():
    assert (xi_dn(CH, 1) * th_dn(CH, 1)).degree() == 3
    assert (p_(CH, 1) * x_(CH, 1)).degree() == 3
    assert (xi_dn(CH, 1) + th_dn(CH, 1)).degree() == INHOMOGENEOUS
    assert Poly.zero(CH).degree() == 0
    assert tridegree(xi_dn(CH, 1) + th_dn(CH, 1)) == INHOMOGENEOUS


def test_tridegree_projection_partition():
    rng = random.Random(0)
    p = Poly.zero(CH)
    gens = [x_(CH, 1), xi_up(CH, 1), th_up(CH, 2), p_(CH, 1), xi_dn(CH, 2), th_dn(CH, 1)]
    for _ in range(20):
        term = Poly.const(CH, rng.randint(1, 5))
        for _ in range(rng.randint(0, 3)):
            term = term * rng.choice(gens)
        p = p + term
    total = Poly.zero(CH)
    for t, comp in p.tridegree_components().items():
        assert comp.project_tridegree(t) == comp
        total = total + comp
    assert total == p
    assert Poly.zero(CH).project_tridegree((1, 1, 1)).is_zero


def test_tridegree_table_example():
    p = xi_dn(CH, 1) * th_dn(CH, 1) + th_dn(CH, 1) * th_dn(CH, 2) * x_(CH, 1)
    proj = p.project_tridegree((0, 0, 2))
    assert proj == th_dn(CH, 1) * th_dn(CH, 2) * x_(CH, 1)


def test_tridegree_components_sum_to_degree():
    from splitlie2.gradedpoly import KIND_TRIDEG

    for kind in range(6):
        assert sum(KIND_TRIDEG[kind]) == KIND_DEGREE[kind]


def test_canonicalization_idempotent():
    rng = random.Random(1)
    kinds = [X, XI, THD]
    for _ in range(50):
        seq = [(rng.choice(kinds), rng.randint(1, 2)) for _ in range(rng.randint(0, 5))]
        sign, mono = mono_from_sequence(seq)
        if sign == 0:
            continue
        sign2, mono2 = mono_from_sequence(
            [(k, i) for k, i, e in mono for _ in range(e)]
        )
        assert sign2 == 1 and mono2 == mono


def test_chart_mismatch_raises():
    other = Chart(1, 2, 2)
    with pytest.raises(ChartMismatchError):
        x_(CH, 1) * x_(other, 1)


def test_variable_bounds():
    with pytest.raises(ValueError):
        xi_up(CH, 3)
    with pytest.raises(ValueError):
        x_(CH, 0)


def test_rendering_deterministic_and_exact():
    p = Fraction(3, 4) * (xi_dn(CH, 1) * th_up(CH, 1)) - x_(CH, 2) + Poly.const(CH, 2)
    assert p.render() == p.render()
    assert p.render() == "2 - x2 + 3/4 th1 xi_1"
    assert Poly.zero(CH).render() == "0"
    assert (x_(CH, 1) * x_(CH, 1)).render() == "x1^2"


def test_sub_equals_add_of_negation_on_random_pairs():
    from randpoly import random_homogeneous

    rng = random.Random(7)
    for _ in range(300):
        ch = Chart(rng.randint(0, 2), rng.randint(0, 3), rng.randint(0, 3))
        a = random_homogeneous(rng, ch, rng.randint(0, 5))
        b = random_homogeneous(rng, ch, rng.randint(0, 5))
        if rng.random() < 0.3:
            b = b * Fraction(rng.randint(1, 5), rng.randint(2, 7))
        for u, v in ((a, b), (b, a), (a, a), (a, a * 2)):
            assert u - v == u + (-v)
            assert (u - v).terms == (u + (-v)).terms


def test_zero_operands_of_sums():
    a = Fraction(3, 4) * (xi_dn(CH, 1) * th_up(CH, 1)) - x_(CH, 2)
    z = Poly.zero(CH)
    assert a + z == a and z + a == a
    assert a - z == a and z - a == -a
    assert (z + z).is_zero and (z - z).is_zero and (a - a).is_zero
    assert 0 + a == a and a + 0 == a and a - 0 == a
    for p in (a + z, z + a, a - z, z - a, z + z, z - z):
        assert p.chart == CH and all(c != 0 for c in p.terms.values())


def test_zero_poly_on_another_chart_still_raises():
    other = Chart(1, 2, 2)
    a, z = x_(CH, 1), Poly.zero(other)
    for op in (lambda: a + z, lambda: z + a, lambda: a - z, lambda: z - a,
               lambda: Poly.zero(CH) + z, lambda: Poly.zero(CH) - z):
        with pytest.raises(ChartMismatchError):
            op()


def _mul_signed_product(f, g):
    """Poly.__mul__ as it multiplied the sign into each coefficient product."""
    terms = {}
    for m1, c1 in f.terms.items():
        for m2, c2 in g.terms.items():
            s, m = mono_mul(m1, m2)
            if s == 0:
                continue
            c = terms.get(m, 0) + s * c1 * c2
            if c == 0:
                terms.pop(m, None)
            else:
                terms[m] = c
    return terms


def test_mul_matches_signed_product_on_random_pairs():
    from randpoly import random_homogeneous

    rng = random.Random(31)
    negative = 0
    for _ in range(600):
        ch = Chart(rng.randint(0, 2), rng.randint(0, 3), rng.randint(0, 3))
        a = random_homogeneous(rng, ch, rng.randint(0, 4))
        b = random_homogeneous(rng, ch, rng.randint(0, 4))
        if rng.random() < 0.4:
            a = a * Fraction(rng.randint(-5, 5), rng.randint(2, 7))
        if rng.random() < 0.4:
            b = b * Fraction(rng.randint(1, 5), rng.randint(2, 7))
        for u, v in ((a, b), (b, a), (a, a)):
            got, want = (u * v).terms, _mul_signed_product(u, v)
            assert got == want
            assert [type(c) for c in got.values()] == [type(c) for c in want.values()]
            negative += any(mono_mul(m1, m2)[0] < 0 for m1 in u.terms for m2 in v.terms)
    assert negative > 100
