import random
from fractions import Fraction

import pytest

from splitlie2.builtin import builtin_example, crossed_sl2, lsa3
from splitlie2.gradedpoly import Chart, Poly
from splitlie2.randomsuite import random_valid_structure, structure_suite
from splitlie2.structures import (
    Lie2Ops,
    Lie2Structure,
    MorphismData,
    ShapeError,
    basis_vector,
    check_lie2_axioms,
    axioms_vs_nilpotency,
    check_morphism,
    decode_mu,
    encode_mu,
    mu_nilpotency_report,
    transport,
)


@pytest.mark.parametrize("name", ["lsa3", "string_sl2", "crossed_sl2", "semidirect_poly",
                                  "abelian(2,1)"])
def test_builtin_structures_valid(name):
    s = builtin_example(name)["structure"]
    assert check_lie2_axioms(s).passed
    assert mu_nilpotency_report(encode_mu(s)).passed


def test_lsa3_tensors_from_multiplication_table():
    s = lsa3()["structure"]
    ch = s.chart
    one = Poly.const(ch, 1)
    # sub-adjacent bracket [e1, e2] = e2, [e1, e3] = e3
    assert s.mu3[0][1][1] == one and s.mu3[0][2][2] == one
    assert s.mu3[1][2][0].is_zero
    # dual action values
    assert s.mu4[0][0][0] == Poly.const(ch, -2)
    assert s.mu4[1][0][2] == Poly.const(ch, -1)
    assert s.mu4[2][0][1] == Poly.const(ch, -1)
    assert s.mu4[1][1][1].is_zero


def test_encode_zero_and_shapes():
    ch = Chart(0, 2, 1)
    assert encode_mu(Lie2Structure.zero(ch)).is_zero
    with pytest.raises(ShapeError):
        Lie2Structure.build(ch, mu2=[[1], [2]])  # wrong axis length


def test_encode_decode_roundtrip_builtins():
    for name in ("lsa3", "string_sl2", "crossed_sl2", "semidirect_poly"):
        s = builtin_example(name)["structure"]
        assert decode_mu(encode_mu(s), s.chart).equals(s)


def test_encode_decode_roundtrip_random():
    rng = random.Random(7)
    for _ in range(25):
        s = random_valid_structure(rng)
        assert decode_mu(encode_mu(s), s.chart).equals(s)


def test_decode_rejects_bad_input():
    ch = Chart(1, 1, 1)
    from splitlie2.gradedpoly import p_, th_dn, x_, xi_up

    with pytest.raises(ValueError):
        decode_mu(xi_up(ch, 1) * th_dn(ch, 1), ch)  # degree 2
    bad = p_(ch, 1) * th_dn(ch, 1) * xi_up(ch, 1) * x_(ch, 1)  # two momenta
    with pytest.raises(ValueError):
        decode_mu(bad, ch)


def test_lone_ternary_entry_breaks_alternating_validation():
    # a single unmatched ternary entry violates the alternating constraint
    s = lsa3()["structure"]
    s.mu5[0][1][2][0] = Poly.const(s.chart, 1)
    rep = check_lie2_axioms(s)
    assert not rep.passed
    assert any(r.check_id == "symmetry" for r in rep.failures)


def test_alternating_ternary_injection_fails_chain_axiom():
    # with a nonzero unary map, an injected alternating ternary bracket
    # breaks the chain axiom (d): d l3 can no longer vanish
    s = crossed_sl2()["structure"]
    bump = Poly.const(s.chart, 1)
    for perm, sign in [((0, 1, 2), 1), ((1, 2, 0), 1), ((2, 0, 1), 1),
                       ((1, 0, 2), -1), ((0, 2, 1), -1), ((2, 1, 0), -1)]:
        s.mu5[perm[0]][perm[1]][perm[2]][0] = bump * sign
    rep = check_lie2_axioms(s)
    assert not rep.passed
    failing = {r.check_id.split("[")[0] for r in rep.failures}
    assert failing & {"leibniz2.d", "leibniz2.f"}
    # both verdicts agree that it broke
    assert not mu_nilpotency_report(encode_mu(s)).passed


def test_perturbed_axiom_residual_matches_hand_expansion():
    # doubling the binary constant of the first pair knocks out the module
    # axiom on (E1, E2, dual-frame 1); hand expansion gives the third dual
    # frame vector as the residual
    s = lsa3()["structure"]
    s.mu3[0][1][1] = Poly.const(s.chart, 2)
    s.mu3[1][0][1] = Poly.const(s.chart, -2)
    ops = Lie2Ops(s)
    ch = s.chart
    e = lambda i: basis_vector(ch, 3, i)
    f = lambda j: basis_vector(ch, 3, j)
    from splitlie2.structures import vec_sub

    lhs = ops.l3(e(0), e(1), ops.l1(f(0)))
    rhs = vec_sub(
        vec_sub(ops.l2_12(e(0), ops.l2_12(e(1), f(0))),
                ops.l2_12(ops.l2_11(e(0), e(1)), f(0))),
        ops.l2_12(e(1), ops.l2_12(e(0), f(0))),
    )
    residual = vec_sub(lhs, rhs)
    assert [p.render() for p in residual] == ["0", "0", "-1"]


def cross_check_mu_equivalence(s):
    """Direct axioms and generating-function nilpotency must agree."""
    return axioms_vs_nilpotency(check_lie2_axioms(s), mu_nilpotency_report(encode_mu(s)))


def test_cross_check_equivalence_on_fifty_structures():
    suite = structure_suite(50, seed=11)
    for s, expected in suite:
        rep = cross_check_mu_equivalence(s)
        assert rep.passed, f"verdicts disagree: {rep.meta}"
        if expected is True:
            assert rep.meta["direct_passed"] and rep.meta["nilpotency_passed"]


def test_zero_structure_passes_both():
    s = Lie2Structure.zero(Chart(1, 2, 2))
    rep = cross_check_mu_equivalence(s)
    assert rep.passed and rep.meta["direct_passed"]


def identity_morphism(chart):
    """The identity morphism of a structure on chart: unit F1 and F2, zero F3."""
    r1, r2 = chart.rank1, chart.rank2
    return MorphismData(
        [[Fraction(int(i == j)) for j in range(r1)] for i in range(r1)],
        [[Fraction(int(i == j)) for j in range(r2)] for i in range(r2)],
        [[[Fraction(0)] * r2 for _ in range(r1)] for _ in range(r1)],
    )


def test_identity_morphism_passes():
    for name in ("lsa3", "string_sl2", "crossed_sl2"):
        s = builtin_example(name)["structure"]
        rep = check_morphism(identity_morphism(s.chart), Lie2Ops(s), Lie2Ops(s))
        assert rep.passed
        assert rep.meta["f3_skew"] is True


def test_identity_with_nonzero_f3_fails_where_unary_map_hits():
    # target with an invertible unary map: d' F3 is visible in the first
    # morphism square
    s = crossed_sl2()["structure"]
    fd = identity_morphism(s.chart)
    fd.f3[0][1][0] = Fraction(1)
    fd.f3[1][0][0] = Fraction(-1)
    rep = check_morphism(fd, Lie2Ops(s), Lie2Ops(s))
    assert not rep.passed
    assert any(r.check_id.startswith("morphism.sq11") for r in rep.failures)


def test_transport_preserves_validity_and_changes_tensors():
    s = lsa3()["structure"]
    t1 = [[1, 1, 0], [0, 1, 0], [0, 2, 1]]
    t2 = [[2, 0, 0], [1, 1, 0], [0, 0, 1]]
    s2 = transport(s, t1, t2)
    assert check_lie2_axioms(s2).passed
    assert not s2.equals(s)
    # transporting back with the inverse recovers the original
    from splitlie2.linalg import invert

    s3 = transport(s2, invert(t1), invert(t2))
    assert s3.equals(s)


def test_symmetry_violation_reported():
    ch = Chart(0, 2, 1)
    s = Lie2Structure.zero(ch)
    s.mu3[0][1][0] = Poly.const(ch, 1)  # missing the signed mirror entry
    assert s.symmetry_violations()
    assert not check_lie2_axioms(s).passed


def _old_symmetry_violations(s):
    """Lie2Structure.symmetry_violations before it shared alternation_failures."""
    bad = []
    r1, r2 = s.chart.rank1, s.chart.rank2
    for i in range(r1):
        for j in range(r1):
            for k in range(r1):
                if not (s.mu3[i][j][k] + s.mu3[j][i][k]).is_zero:
                    bad.append(f"mu3[{i + 1}][{j + 1}][{k + 1}] not antisymmetric")
    for i in range(r1):
        for j in range(r1):
            for k in range(r1):
                for l in range(r2):
                    v = s.mu5[i][j][k][l]
                    w = s.mu5[j][i][k][l]
                    u = s.mu5[i][k][j][l]
                    if not (v + w).is_zero or not (v + u).is_zero:
                        bad.append(f"mu5[{i + 1}][{j + 1}][{k + 1}][{l + 1}] not alternating")
    return sorted(set(bad))


def test_symmetry_violations_match_the_old_loops_on_broken_alternations():
    rng = random.Random(41)
    broken = 0
    for s, _ in structure_suite(40, seed=13):
        assert s.symmetry_violations() == _old_symmetry_violations(s)
        ch = s.chart
        r1, r2 = ch.rank1, ch.rank2
        for _ in range(3):
            if r1 >= 2 and rng.random() < 0.5:
                i, j, k = (rng.randrange(r1) for _ in range(3))
                s.mu3[i][j][k] = s.mu3[i][j][k] + Poly.const(ch, rng.randint(1, 3))
            elif r1 and r2:
                i, j, k, l = (rng.randrange(r) for r in (r1, r1, r1, r2))
                s.mu5[i][j][k][l] = s.mu5[i][j][k][l] + Poly.const(ch, rng.randint(1, 3))
        bad = s.symmetry_violations()
        assert bad == _old_symmetry_violations(s)
        broken += bool(bad)
    assert broken > 20
