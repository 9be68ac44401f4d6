import random
from fractions import Fraction

import pytest

from decode_oracle import derived_bracket
from splitlie2.bracket import poisson_bracket
from splitlie2.builtin import builtin_example, killing_form, lsa3, sl2_structure_constants, string_sl2
from splitlie2.gradedpoly import THD, XID, Chart, Poly, X, th_dn, xi_dn
from splitlie2.multivectors import (
    MCElement,
    NonlinearError,
    SAlgebra,
    generator_agreement_report,
    mc_report,
    mc_residual,
    random_multivector,
    section1,
    solve_linear_mc,
    verify_hp_axioms,
)
from splitlie2.structures import Lie2Structure


def test_unary_bracket_vanishes_without_unary_map():
    s = lsa3()["structure"]
    alg = SAlgebra(s)
    for k in range(3):
        assert alg.b1(th_dn(s.chart, k + 1)).is_zero


def test_memoised_brackets_equal_fresh_derived_brackets():
    s = string_sl2()["structure"]
    alg = SAlgebra(s)
    rng = random.Random(5)
    vs = [random_multivector(s.chart, rng, 4) for _ in range(4)]
    for rnd in range(2):
        for p in vs:
            assert alg.b1(p) == derived_bracket(alg.mu211, [p])
            assert alg.delta(p) == poisson_bracket(alg.mu, p)
            assert alg.d_part(p) == poisson_bracket(alg.mu121, p)
            for q in vs:
                assert alg.b2(p, q) == derived_bracket(alg.mu121, [p, q])
                for r in vs:
                    assert alg.b3(p, q, r) == derived_bracket(alg.mu031, [p, q, r])
        if rnd == 0:
            assert alg._memo
            alg.clear_memo()
            assert not alg._memo


def test_binary_bracket_reproduces_brackets_on_frames():
    s = string_sl2()["structure"]
    alg = SAlgebra(s)
    c = sl2_structure_constants()
    for i in range(3):
        for j in range(3):
            got = alg.b2(xi_dn(s.chart, i + 1), xi_dn(s.chart, j + 1))
            want = section1(s.chart, [Poly.const(s.chart, c[i][j][k]) for k in range(3)])
            assert got == want


def test_binary_bracket_zero_when_binary_component_missing():
    ch = Chart(0, 2, 1)
    s = Lie2Structure.build(ch, mu2=[[1, 0]])  # only the unary component
    alg = SAlgebra(s)
    assert alg.mu121.is_zero
    P = xi_dn(ch, 1) * th_dn(ch, 1)
    assert alg.b2(P, P).is_zero


@pytest.mark.parametrize("name", ["lsa3", "string_sl2", "crossed_sl2", "semidirect_poly"])
def test_generator_agreement(name):
    s = builtin_example(name)["structure"]
    assert generator_agreement_report(s).passed


@pytest.mark.parametrize("name", ["abelian(2,1)", "lsa3", "string_sl2", "crossed_sl2",
                                  "semidirect_poly"])
def test_homotopy_poisson_identities(name):
    s = builtin_example(name)["structure"]
    rep = verify_hp_axioms(s, count=100, seed=3)
    assert rep.passed, [r.check_id for r in rep.failures[:5]]


def test_string_ternary_bracket_nonzero():
    s = string_sl2()["structure"]
    alg = SAlgebra(s)
    val = alg.b3(xi_dn(s.chart, 1), xi_dn(s.chart, 2), xi_dn(s.chart, 3))
    b = killing_form(sl2_structure_constants())
    c = sl2_structure_constants()
    expect = sum(b[0][m] * c[1][2][m] for m in range(3))
    assert val == expect * th_dn(s.chart, 1)


def test_mc_residual_examples():
    ex = lsa3()
    alg = SAlgebra(ex["structure"])
    r = mc_residual(alg, ex["mc"])
    assert all(v.is_zero for v in r)
    zero = MCElement.build(ex["structure"].chart)
    assert all(v.is_zero for v in mc_residual(alg, zero))
    exs = string_sl2()
    for m in exs["mc_family"]:
        assert all(v.is_zero for v in mc_residual(SAlgebra(exs["structure"]), m))
    assert mc_report(alg, ex["mc"]).passed


def test_mc_residual_components_have_distinct_shapes():
    # residuals live in distinct slot bidegrees, so the decomposition of the
    # full residual is forced; a broken element shows up componentwise
    ex = lsa3()
    s = ex["structure"]
    bad = MCElement.build(s.chart, h=[[1, 1, 0], [0, 1, 0], [0, 0, 2]],
                          k={(1, 2, 3): 1})
    r1, r2, r3 = mc_residual(SAlgebra(s), bad)
    assert not all(v.is_zero for v in (r1, r2, r3))


def test_solver_volume_slot_is_free_for_lsa3():
    ex = lsa3()
    s = ex["structure"]
    h = [[Fraction(int(i == j)) for j in range(3)] for i in range(3)]
    sol = solve_linear_mc(s, h, {(1, 2, 3): None})
    assert not sol.is_empty
    assert sol.dimension == 1
    assert sol.labels == ["K[1,2,3]"]
    # the particular solution plus 7 times the one basis vector of the kernel
    m = MCElement.build(s.chart, h=h, k={(1, 2, 3): sol.particular[0] + 7 * sol.basis[0][0]})
    assert all(v.is_zero for v in mc_residual(SAlgebra(s), m))
    assert m.k[(1, 2, 3)] == Poly.const(s.chart, 7)


def test_solver_trivial_constraint_without_unary_map():
    # with zero unary and binary parts every cubic element is flat
    ch = Chart(0, 1, 3)
    s = Lie2Structure.zero(ch)
    h = [[0, 0, 0]]
    sol = solve_linear_mc(s, h, {(1, 2, 3): None})
    assert sol.dimension == 1


def test_solver_whole_pairing_unknown_is_nonlinear():
    s = lsa3()["structure"]
    h = [[None] * 3 for _ in range(3)]
    with pytest.raises(NonlinearError):
        solve_linear_mc(s, h, {(1, 2, 3): 1})


def test_solver_affine_family_on_string():
    # every element of the degree -1 slot is flat: three free parameters
    s = string_sl2()["structure"]
    sol = solve_linear_mc(s, [[None], [None], [None]], None)
    assert sol.dimension == 3


def test_random_multivector_shapes():
    rng = random.Random(0)
    ch = Chart(2, 2, 2)
    for _ in range(30):
        p = random_multivector(ch, rng)
        assert not p.is_zero
        assert isinstance(p.degree(), int)
        assert {k for m in p.terms for k, _, _ in m} <= {X, XID, THD}


# -- the ternary higher Jacobi identity (hp.jac3) -------------------------------

# hp-verify seeds on which an earlier sign rule for hp.jac3 failed on the
# valid string_sl2, each on a tuple of four even-degree multivectors
JAC3_SEEDS = (148643, 643074, 504186, 426521, 608076, 677993, 116888, 368661, 412700,
              874878)


@pytest.mark.parametrize("seed", JAC3_SEEDS)
def test_jac3_holds_on_string_seeds(seed):
    rep = verify_hp_axioms(string_sl2()["structure"], count=100, seed=seed)
    assert rep.passed, [r.check_id for r in rep.failures]


_PERMS3 = [((0, 1, 2), 1), ((1, 2, 0), 1), ((2, 0, 1), 1),
           ((1, 0, 2), -1), ((0, 2, 1), -1), ((2, 1, 0), -1)]


def _aff_plane(triple):
    """aff(1) + R^2 in degree -1 ([E1, E2] = E2), a line in degree -2, and
    the alternating l3 dual to `triple`.  The algebra is not unimodular, so
    not every 3-form is a cocycle: E1^E3^E4 is one, E2^E3^E4 is not."""
    ch = Chart(0, 4, 1)
    mu3 = [[[0] * 4 for _ in range(4)] for _ in range(4)]
    mu3[0][1][1], mu3[1][0][1] = 1, -1
    mu5 = [[[[0] for _ in range(4)] for _ in range(4)] for _ in range(4)]
    for perm, sign in _PERMS3:
        i, j, k = (triple[q] for q in perm)
        mu5[i][j][k][0] = sign
    return Lie2Structure.build(ch, mu3=mu3, mu5=mu5)


def test_jac3_on_frames_tracks_the_cocycle_condition():
    from splitlie2.multivectors import ternary_jacobiator
    from splitlie2.structures import check_lie2_axioms

    for triple, valid in (((0, 2, 3), True), ((1, 2, 3), False)):
        s = _aff_plane(triple)
        assert check_lie2_axioms(s).passed is valid
        frames = [xi_dn(s.chart, i + 1) for i in range(4)]
        assert ternary_jacobiator(SAlgebra(s), *frames).is_zero is valid


def test_hp_verify_fails_jac3_on_a_broken_ternary_bracket():
    good = verify_hp_axioms(_aff_plane((0, 2, 3)), count=100, seed=5)
    assert good.passed
    bad = verify_hp_axioms(_aff_plane((1, 2, 3)), count=100, seed=5)
    assert not bad.passed
    assert {r.check_id.split("[")[0] for r in bad.failures} == {"hp.jac3"}


def test_bumped_string_ternary_bracket_stays_valid():
    # every alternating 3-form on the 3-dimensional sl2 is a cocycle, so
    # bumping mu5 gives another valid structure: hp-verify and the direct
    # axioms must both pass it
    from splitlie2.structures import check_lie2_axioms

    s = string_sl2()["structure"]
    for perm, sign in _PERMS3:
        i, j, k = perm
        s.mu5[i][j][k][0] = s.mu5[i][j][k][0] + sign
    assert check_lie2_axioms(s).passed
    assert verify_hp_axioms(s, count=100, seed=JAC3_SEEDS[0]).passed
