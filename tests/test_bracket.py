import random

import pytest

from randpoly import random_homogeneous
from splitlie2.bracket import DegreeError, derived_bracket, nilpotency_check, poisson_bracket
from splitlie2.gradedpoly import (
    INHOMOGENEOUS,
    Chart,
    ChartMismatchError,
    Poly,
    p_,
    th_dn,
    th_up,
    x_,
    xi_dn,
    xi_up,
)

CH = Chart(2, 2, 2)


def sgn(e):
    return -1 if e % 2 else 1


def test_generator_bracket_table():
    assert poisson_bracket(p_(CH, 1), x_(CH, 1)) == Poly.const(CH, -1)
    assert poisson_bracket(x_(CH, 1), p_(CH, 1)) == Poly.const(CH, 1)
    assert poisson_bracket(xi_dn(CH, 2), xi_up(CH, 2)) == Poly.const(CH, -1)
    assert poisson_bracket(xi_up(CH, 2), xi_dn(CH, 2)) == Poly.const(CH, 1)
    assert poisson_bracket(th_dn(CH, 1), th_up(CH, 1)) == Poly.const(CH, 1)
    assert poisson_bracket(th_up(CH, 1), th_dn(CH, 1)) == Poly.const(CH, -1)
    assert poisson_bracket(p_(CH, 1), x_(CH, 2)).is_zero
    assert poisson_bracket(xi_dn(CH, 1), th_up(CH, 1)).is_zero


def test_bracket_properties_random():
    rng = random.Random(42)
    for _ in range(100):
        df, dg, dh = rng.randint(0, 5), rng.randint(0, 5), rng.randint(0, 5)
        f = random_homogeneous(rng, CH, df)
        g = random_homogeneous(rng, CH, dg)
        h = random_homogeneous(rng, CH, dh)
        assert poisson_bracket(f, g) == sgn(1 + (df - 3) * (dg - 3)) * poisson_bracket(g, f)
        assert poisson_bracket(f, g * h) == poisson_bracket(f, g) * h + sgn(
            (df - 3) * dg
        ) * (g * poisson_bracket(f, h))
        assert poisson_bracket(f, poisson_bracket(g, h)) == poisson_bracket(
            poisson_bracket(f, g), h
        ) + sgn((df - 3) * (dg - 3)) * poisson_bracket(g, poisson_bracket(f, h))
        br = poisson_bracket(f, g)
        if not br.is_zero:
            assert br.degree() == df + dg - 3
            tf, tg, tb = f.tridegree(), g.tridegree(), br.tridegree()
            if INHOMOGENEOUS not in (tf, tg, tb):
                assert tb == tuple(a + b - 1 for a, b in zip(tf, tg))


def test_bracket_chart_mismatch():
    with pytest.raises(ChartMismatchError):
        poisson_bracket(x_(CH, 1), x_(Chart(1, 1, 1), 1))


def test_derived_bracket_unary_matches_structure_map():
    # generating-function component xi_1 th1 sends the degree -2 frame to xi_1
    q = xi_dn(CH, 1) * th_up(CH, 1)
    assert derived_bracket(q, [th_dn(CH, 1)]) == xi_dn(CH, 1)
    assert derived_bracket(Poly.zero(CH), [th_dn(CH, 1), xi_dn(CH, 2)]).is_zero


def test_derived_bracket_ternary_on_quadratic_example():
    from splitlie2.builtin import killing_form, sl2_structure_constants, string_sl2

    s = string_sl2()["structure"]
    from splitlie2.multivectors import SAlgebra

    alg = SAlgebra(s)
    c = sl2_structure_constants()
    b = killing_form(c)
    # hand values of the trace form on the (h, e, f) basis
    assert b[0][0] == 8 and b[1][2] == 4 and b[2][1] == 4 and b[0][1] == 0
    for i, j, k in [(0, 1, 2), (1, 0, 2), (2, 1, 0), (0, 0, 1)]:
        expect = sum(b[i][m] * c[j][k][m] for m in range(3))
        got = derived_bracket(
            alg.mu031,
            [xi_dn(s.chart, i + 1), xi_dn(s.chart, j + 1), xi_dn(s.chart, k + 1)],
        )
        assert got == expect * th_dn(s.chart, 1)


def test_nilpotency_check_requires_degree_four():
    with pytest.raises(DegreeError):
        nilpotency_check(xi_dn(CH, 1))
    ok, residual, comps = nilpotency_check(Poly.zero(CH))
    assert ok and residual.is_zero and comps == {}


def test_nilpotency_detects_perturbation():
    from splitlie2.builtin import lsa3
    from splitlie2.structures import encode_mu

    s = lsa3()["structure"]
    ok, _, _ = nilpotency_check(encode_mu(s))
    assert ok
    # doubling one binary constant breaks the mixed compatibility
    s.mu3[0][1][1] = Poly.const(s.chart, 2)
    s.mu3[1][0][1] = Poly.const(s.chart, -2)
    ok, residual, _ = nilpotency_check(encode_mu(s))
    assert not ok and not residual.is_zero
