import random
from fractions import Fraction

import pytest

import decode_oracle
from splitlie2 import bracket, multivectors, twisting
from splitlie2.bracket import poisson_bracket
from splitlie2.builtin import builtin_example, lsa3, sl2_structure_constants, string_sl2
from splitlie2.gradedpoly import Chart, Poly
from splitlie2.multivectors import MCElement, mc_residual
from splitlie2.randomsuite import random_valid_structure
from splitlie2.structures import (
    GAMMA_TRIDEGREES,
    Lie2Ops,
    Lie2Structure,
    MorphismData,
    check_lie2_axioms,
    check_morphism,
)
from splitlie2.twisting import (
    BialgebroidPair,
    abelian_gamma,
    check_bialgebroid,
    decode_gamma,
    dual_structure_formulas,
    encode_gamma,
    induced_dual_structure,
    lambda_nilpotency,
    mce1_condition_check,
    relative_mc_residual,
    twist_gamma,
)


def _mc_suite():
    out = []
    ex = lsa3()
    out.append((ex["structure"], ex["mc"]))
    out.append((ex["structure"], lsa3(5)["mc"]))
    exs = string_sl2()
    for m in exs["mc_family"]:
        out.append((exs["structure"], m))
    zero_s = lsa3()["structure"]
    out.append((zero_s, MCElement.build(zero_s.chart)))
    return out


def test_trivial_twist_gives_shared_component():
    s = lsa3()["structure"]
    m = MCElement.build(s.chart)
    from splitlie2.multivectors import SAlgebra

    assert twist_gamma(s, m) == SAlgebra(s).mu211
    dual, rep = induced_dual_structure(s, m)
    assert rep.passed
    # trivial twist: dual unary map is the transpose, everything else zero
    assert all(dual.mu3[i][j][k].is_zero for i in range(3) for j in range(3) for k in range(3))
    assert all(dual.mu1[j][i].is_zero for j in range(3) for i in range(0))
    assert all(dual.mu5[0][1][2][l].is_zero for l in range(3))


def test_twist_supported_in_dual_gradings():
    for s, m in _mc_suite():
        gamma = twist_gamma(s, m)
        for t, _ in gamma.tridegree_components().items():
            assert t in GAMMA_TRIDEGREES
        if all(r.is_zero for r in mc_residual(s, m)):
            assert poisson_bracket(gamma, gamma).is_zero


def test_lsa3_induced_ternary_value():
    for k0 in (1, 5):
        ex = lsa3(k0)
        dual, rep = induced_dual_structure(ex["structure"], ex["mc"])
        assert rep.passed
        ch = dual.chart
        want = Poly.const(ch, -4 * Fraction(k0))
        assert dual.mu5[0][1][2][0] == want
        assert dual.mu5[1][0][2][0] == -want
        assert dual.mu5[0][1][2][1].is_zero and dual.mu5[0][1][2][2].is_zero
        # all other values dictated by antisymmetry of the first three slots
        for i in range(3):
            for j in range(3):
                for k in range(3):
                    if len({i, j, k}) < 3:
                        assert all(dual.mu5[i][j][k][l].is_zero for l in range(3))


def test_string_induced_binary_is_coadjoint_action():
    exs = string_sl2()
    s = exs["structure"]
    c = exs["brackets"]
    for m in exs["mc_family"]:
        dual, rep = induced_dual_structure(s, m)
        assert rep.passed
        hvec = [m.h[a][0] for a in range(3)]
        for j in range(3):
            for k in range(3):
                expect = Poly.zero(dual.chart)
                for a in range(3):
                    expect = expect + hvec[a].lift(dual.chart) * (-c[a][k][j])
                assert dual.mu4[0][j][k] == expect
        assert dual.mu3[0][0][0].is_zero
        assert all(dual.mu2[j][0].is_zero for j in range(3))


def test_decoded_twist_matches_componentwise_formulas():
    for s, m in _mc_suite():
        if not all(r.is_zero for r in mc_residual(s, m)):
            continue
        gamma = twist_gamma(s, m)
        assert decode_gamma(gamma, s.chart).equals(dual_structure_formulas(s, m))


def test_encode_decode_gamma_roundtrip():
    rng = random.Random(9)
    for _ in range(10):
        s = random_valid_structure(rng)
        dual_shape = random_valid_structure(rng)
        # reinterpret any structure on the swapped chart as dual data
        ch = Chart(dual_shape.chart.base_dim, dual_shape.chart.rank2,
                   dual_shape.chart.rank1)
        gamma = encode_gamma(dual_shape, ch)
        back = decode_gamma(gamma, ch)
        assert back.equals(dual_shape)


def test_gamma_decode_validates_input():
    s = lsa3()["structure"]
    from splitlie2.multivectors import SAlgebra

    with pytest.raises(ValueError):
        decode_gamma(SAlgebra(s).mu121, s.chart)  # wrong grading support


def test_morphism_from_induced_dual():
    # the pairing maps define a morphism from the twisted dual onto the base
    for ex in (lsa3(), lsa3(3)):
        s, m = ex["structure"], ex["mc"]
        dual, _ = induced_dual_structure(s, m)
        hconst = [[c.coefficient(()) for c in row] for row in m.h]
        ktens = m.k_tensor()
        r1, r2 = s.chart.rank1, s.chart.rank2
        f1 = [[hconst[i][al] for al in range(r2)] for i in range(r1)]
        f2 = [[-hconst[be][j] for be in range(r1)] for j in range(r2)]
        f3 = [
            [[-ktens[al][be][q].coefficient(()) for q in range(r2)] for be in range(r2)]
            for al in range(r2)
        ]
        rep = check_morphism(MorphismData(f1, f2, f3), Lie2Ops(dual), Lie2Ops(s))
        assert rep.passed, [r.check_id for r in rep.failures[:4]]


def test_bialgebroid_pair_checks():
    ex = lsa3()
    s, m = ex["structure"], ex["mc"]
    pair = BialgebroidPair.from_twist(s, m)
    assert check_bialgebroid(pair).passed
    assert check_bialgebroid(BialgebroidPair.abelian(s)).passed


def test_bialgebroid_rejects_mismatched_shared_component():
    s = lsa3()["structure"]
    dual = decode_gamma(abelian_gamma(s), s.chart)
    dual.mu2[0][0] = Poly.const(dual.chart, 5)
    with pytest.raises(ValueError):
        BialgebroidPair(s, dual)


def test_perturbed_dual_fails_with_localized_component():
    s = string_sl2()["structure"]
    m = string_sl2()["mc"]
    dual, _ = induced_dual_structure(s, m)
    dual.mu4[0][0][1] = dual.mu4[0][0][1] + Poly.const(dual.chart, 1)
    pair = BialgebroidPair(s, dual)
    rep = check_bialgebroid(pair, derivation_checks=False)
    assert not rep.passed
    assert any(r.check_id.startswith("bi.component") for r in rep.failures)


def test_twist_compatibility_matches_bialgebroid_verdict():
    for s, m in _mc_suite():
        if not all(r.is_zero for r in mc_residual(s, m)):
            continue
        cond = mce1_condition_check(s, m)
        dual, _ = induced_dual_structure(s, m)
        pair = BialgebroidPair(s, dual)
        bi = check_bialgebroid(pair, derivation_checks=False)
        assert cond.passed == bi.passed


def test_relative_residual_reduces_to_plain_on_trivial_dual():
    for s, m in _mc_suite():
        pair = BialgebroidPair.abelian(s)
        rel = relative_mc_residual(pair, m)
        plain = mc_residual(s, m)
        assert all(a == b for a, b in zip(rel, plain))


def test_relative_flatness_equivalent_to_combined_nilpotency():
    suite = []
    ex = lsa3()
    pair = BialgebroidPair.abelian(ex["structure"])
    suite.append((pair, ex["mc"]))
    suite.append((pair, MCElement.build(ex["structure"].chart)))
    bad = MCElement.build(ex["structure"].chart,
                          h=[[1, 1, 0], [0, 1, 0], [0, 0, 2]], k={(1, 2, 3): 1})
    suite.append((pair, bad))
    twisted = BialgebroidPair.from_twist(ex["structure"], ex["mc"])
    suite.append((twisted, ex["mc"]))
    suite.append((twisted, MCElement.build(ex["structure"].chart)))
    exs = string_sl2()
    spair = BialgebroidPair.abelian(exs["structure"])
    for m in exs["mc_family"]:
        suite.append((spair, m))
    for pair, m in suite:
        rel = relative_mc_residual(pair, m)
        rep, _ = lambda_nilpotency(pair, m)
        assert all(r.is_zero for r in rel) == rep.records[0].passed


def test_lambda_decode_gives_valid_structure_when_flat():
    ex = lsa3()
    pair = BialgebroidPair.from_twist(ex["structure"], ex["mc"])
    rep, decoded = lambda_nilpotency(pair, MCElement.build(ex["structure"].chart))
    assert rep.passed and decoded is not None
    assert check_lie2_axioms(decoded).passed


def _bialgebroid_pairs(bump):
    """Twisted lsa3 and string_sl2 pairs and the abelian semidirect_poly
    pair, each with dual.mu4[0][0][0] raised by 1 when bump is set."""
    out = []
    for name, twisted in (("lsa3", True), ("string_sl2", True), ("semidirect_poly", False)):
        ex = builtin_example(name)
        s = ex["structure"]
        dual = (induced_dual_structure(s, ex["mc"])[0] if twisted
                else decode_gamma(abelian_gamma(s), s.chart))
        if bump:
            dual.mu4[0][0][0] = dual.mu4[0][0][0] + Poly.const(dual.chart, 1)
        out.append((name, BialgebroidPair(s, dual)))
    return out


def _bialgebroid_records(check, pair):
    return [(r.check_id, r.passed, r.residual) for r in check(pair).records]


@pytest.mark.parametrize("bump", [False, True])
def test_bialgebroid_records_match_oracle(bump):
    failing = set()
    for _, pair in _bialgebroid_pairs(bump):
        new = _bialgebroid_records(check_bialgebroid, pair)
        assert new == _bialgebroid_records(decode_oracle.check_bialgebroid, pair)
        failing.update(cid.split("[")[0] for cid, passed, _ in new if not passed)
    want = {"bi.nilpotency", "bi.component", "bi.derivation1", "bi.derivation2", "bi.mixed"}
    assert failing == (want if bump else set())


def test_bialgebroid_takes_each_unary_image_once(monkeypatch):
    """poisson_bracket calls of check_bialgebroid on the twisted pairs.  The
    derivation loops bracketed delta* X, delta a, {g112, a} and {g112,
    delta a} again for every index pair: 547 calls on lsa3, 229 on
    string_sl2."""
    calls = []

    def counted(f, g):
        calls.append((f, g))
        return poisson_bracket(f, g)

    for module in (bracket, multivectors, twisting):
        monkeypatch.setattr(module, "poisson_bracket", counted)
    counts = {}
    for name, pair in _bialgebroid_pairs(False)[:2]:
        calls.clear()
        check_bialgebroid(pair)
        counts[name] = len(calls)
    assert counts == {"lsa3": 319, "string_sl2": 133}
