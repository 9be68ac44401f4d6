import gc
import itertools
import random
from fractions import Fraction

import pytest

import decode_oracle
import twist_oracle
from splitlie2 import bracket, multivectors, twisting
from splitlie2.bracket import poisson_bracket
from splitlie2.builtin import builtin_example, example_names, lsa3, string_sl2
from splitlie2.gradedpoly import Chart, Poly, x_
from splitlie2.multivectors import MCElement, SAlgebra, mc_residual
from splitlie2.randomsuite import random_valid_structure
from splitlie2.structures import (
    GAMMA_TRIDEGREES,
    Lie2Ops,
    MorphismData,
    check_lie2_axioms,
    check_morphism,
    lie2_layout,
)
from splitlie2.twisting import (
    BialgebroidPair,
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
    alg = SAlgebra(s)
    assert twist_gamma(alg, m) == alg.mu211
    dual, _, rep = induced_dual_structure(alg, m)
    assert rep.passed
    # trivial twist: dual unary map is the transpose, everything else zero
    assert all(dual.mu3[i][j][k].is_zero for i in range(3) for j in range(3) for k in range(3))
    assert all(dual.mu1[j][i].is_zero for j in range(3) for i in range(0))
    assert all(dual.mu5[0][1][2][l].is_zero for l in range(3))


def test_twist_supported_in_dual_gradings():
    for s, m in _mc_suite():
        alg = SAlgebra(s)
        gamma = twist_gamma(alg, m)
        for t, _ in gamma.tridegree_components().items():
            assert t in GAMMA_TRIDEGREES
        if all(r.is_zero for r in mc_residual(alg, m)):
            assert poisson_bracket(gamma, gamma).is_zero


def test_lsa3_induced_ternary_value():
    for k0 in (1, 5):
        ex = lsa3(k0)
        dual, _, rep = induced_dual_structure(SAlgebra(ex["structure"]), ex["mc"])
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
        dual, _, rep = induced_dual_structure(SAlgebra(s), m)
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
        alg = SAlgebra(s)
        if not all(r.is_zero for r in mc_residual(alg, m)):
            continue
        gamma = twist_gamma(alg, m)
        assert decode_gamma(gamma, s.chart).equals(dual_structure_formulas(alg, m))


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
    with pytest.raises(ValueError):
        decode_gamma(SAlgebra(s).mu121, s.chart)  # wrong grading support


def test_morphism_from_induced_dual():
    # the pairing maps define a morphism from the twisted dual onto the base
    for ex in (lsa3(), lsa3(3)):
        s, m = ex["structure"], ex["mc"]
        dual, _, _ = induced_dual_structure(SAlgebra(s), m)
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
    alg = SAlgebra(s)
    dual = decode_gamma(alg.mu211, s.chart)
    dual.mu2[0][0] = Poly.const(dual.chart, 5)
    with pytest.raises(ValueError):
        BialgebroidPair(alg, dual)


def test_perturbed_dual_fails_with_localized_component():
    s = string_sl2()["structure"]
    m = string_sl2()["mc"]
    alg = SAlgebra(s)
    dual, _, _ = induced_dual_structure(alg, m)
    dual.mu4[0][0][1] = dual.mu4[0][0][1] + Poly.const(dual.chart, 1)
    pair = BialgebroidPair(alg, dual)
    rep = check_bialgebroid(pair, derivation_checks=False)
    assert not rep.passed
    assert any(r.check_id.startswith("bi.component") for r in rep.failures)


def test_twist_compatibility_matches_bialgebroid_verdict():
    for s, m in _mc_suite():
        alg = SAlgebra(s)
        if not all(r.is_zero for r in mc_residual(alg, m)):
            continue
        cond = mce1_condition_check(alg, m)
        dual, _, _ = induced_dual_structure(alg, m)
        pair = BialgebroidPair(alg, dual)
        bi = check_bialgebroid(pair, derivation_checks=False)
        assert cond.passed == bi.passed


def test_relative_residual_reduces_to_plain_on_trivial_dual():
    for s, m in _mc_suite():
        pair = BialgebroidPair.abelian(s)
        rel = relative_mc_residual(pair, m)
        plain = mc_residual(SAlgebra(s), m)
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


def _seeded_element(rng, chart):
    """H and K with small random entries, affine in the first base
    coordinate when there is one; flat only by accident."""
    def entry():
        c = Poly.const(chart, rng.randint(-2, 2))
        return c + rng.randint(-1, 1) * x_(chart, 1) if chart.base_dim else c
    h = [[entry() for _ in range(chart.rank2)] for _ in range(chart.rank1)]
    k = {idx: entry() for idx in itertools.combinations(range(1, chart.rank2 + 1), 3)}
    return MCElement.build(chart, h=h, k=k)


def _seeded_dual_pair(s, rng):
    """s with its trivial dual, every dual tensor but the shared unary one
    filled with small random values: a pair, though not a compatible one."""
    alg = SAlgebra(s)
    dual = decode_gamma(alg.mu211, s.chart)

    def fill(t):
        return [fill(v) if isinstance(v, list) else Poly.const(dual.chart, rng.randint(-2, 2))
                for v in t]
    dual.mu1, dual.mu3, dual.mu4, dual.mu5 = map(fill, (dual.mu1, dual.mu3, dual.mu4, dual.mu5))
    return BialgebroidPair(alg, dual)


def test_relative_residual_matches_the_written_out_oracle():
    """relative_mc_residual reads the plain flatness components; the
    oracle writes all three out.  Every builtin with its trivial dual and,
    where it has a degree-3 element, its twisted dual, and abelian(2,4,1)
    with a seeded dual (with four th_ frames {g013, H} and {g112, K} need
    not vanish); the builtin's flat elements, the zero element and eight
    seeded ones each."""
    rng = random.Random(23)
    flat = nonflat = 0
    for name in example_names() + ["abelian(2,4,1)"]:
        ex = builtin_example(name)
        s = ex["structure"]
        elements = ex.get("mc_family") or ([ex["mc"]] if ex.get("mc") else [])
        pairs = [BialgebroidPair.abelian(s)]
        if elements:
            pairs.append(BialgebroidPair.from_twist(s, elements[0]))
        if s.chart.rank2 > 3:
            pairs.append(_seeded_dual_pair(s, rng))
        elements = elements + [MCElement.build(s.chart)]
        elements += [_seeded_element(rng, s.chart) for _ in range(8)]
        for pair, m in itertools.product(pairs, elements):
            new = relative_mc_residual(pair, m)
            old = decode_oracle.relative_mc_residual(pair, m)
            assert [r.render() for r in new] == [r.render() for r in old]
            assert new == old
            if all(r.is_zero for r in new):
                flat += 1
            else:
                nonflat += 1
    assert (flat, nonflat) == (59, 32)


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
        dual = (induced_dual_structure(SAlgebra(s), ex["mc"])[0] if twisted
                else decode_gamma(SAlgebra(s).mu211, s.chart))
        if bump:
            dual.mu4[0][0][0] = dual.mu4[0][0][0] + Poly.const(dual.chart, 1)
        out.append((name, BialgebroidPair(SAlgebra(s), dual)))
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
    string_sl2.  Prefix lists of those images took it to 319 and 133; the
    algebra's and the pair's memos also share the brackets of equal
    arguments."""
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
    assert counts == {"lsa3": 253, "string_sl2": 94}


def _bumped(dual, rng):
    """A copy of dual with mu4[0][0][0] and one entry of a random nonempty
    tensor other than the shared unary one raised by 1: the pair stays a
    pair."""
    out = dual.map_entries(lambda p: p)
    one = Poly.const(out.chart, 1)
    out.mu4[0][0][0] = out.mu4[0][0][0] + one
    names = [n for n, shp, _ in lie2_layout(out.chart) if n != "mu2" and 0 not in shp]
    t = getattr(out, rng.choice(names))
    while isinstance(t[0], list):
        t = t[rng.randrange(len(t))]
    i = rng.randrange(len(t))
    t[i] = t[i] + one
    return out


PAIR_NAMES = example_names() + ["abelian(2,4,1)"]


def _pair_case(name):
    """(structure, duals, elements) of a builtin: its trivial dual, its
    twisted dual where it has a flat element, and a bumped copy of each;
    with four th_ frames (abelian(2,4,1)) also a seeded dual, where
    {g013, H} and {g112, K} need not vanish.  The elements are the
    builtin's flat ones, the zero element and four seeded ones."""
    rng = random.Random(name)
    ex = builtin_example(name)
    s = ex["structure"]
    flat = ex.get("mc_family") or ([ex["mc"]] if ex.get("mc") else [])
    duals = [decode_gamma(SAlgebra(s).mu211, s.chart)]
    if flat:
        duals.append(induced_dual_structure(SAlgebra(s), flat[0])[0])
    if s.chart.rank2 > 3:
        duals.append(_seeded_dual_pair(s, rng).dual)
    duals += [_bumped(d, rng) for d in duals]
    elements = flat + [MCElement.build(s.chart)]
    elements += [_seeded_element(rng, s.chart) for _ in range(4)]
    return s, duals, elements


def _pair_run(module, pair, elements):
    """Every pair check of module on one pair, in the order the commands
    call them, as comparable values."""
    out = []
    for m in elements:
        res = module.relative_mc_residual(pair, m)
        gamma = module.twist_gamma(pair.alg, m)
        out.append(([r.render() for r in res], res, gamma.render(), gamma,
                    module.mce1_condition_check(pair.alg, m).to_dict()))
    for derivation_checks in (False, True):
        out.append(module.check_bialgebroid(pair, derivation_checks).to_dict())
    return out


@pytest.mark.parametrize("name", PAIR_NAMES)
def test_pair_checks_match_the_raw_bracket_oracle(name):
    """The pair checks through the memos give the reports and residuals of
    the raw-bracket copies, true and false verdicts alike."""
    s, duals, elements = _pair_case(name)
    verdicts = set()
    for dual in duals:
        new = _pair_run(twisting, BialgebroidPair(SAlgebra(s), dual), elements)
        old = _pair_run(twist_oracle, BialgebroidPair(SAlgebra(s), dual), elements)
        assert new == old
        verdicts.add(new[-1]["summary"]["failed"] == 0)
    # over the zero structure, on one degree -1 dual frame, every dual is compatible
    assert verdicts == ({True} if name == "abelian" else {True, False})


def test_pairs_built_in_turn_on_one_algebra_match_fresh_algebras():
    """A pair's memo keys its own generating functions, so a second pair on
    the same algebra, built after the first is collected, finds no entry of
    the first: each run equals one on a fresh algebra."""
    for s, duals, elements in map(_pair_case, PAIR_NAMES):
        alg = SAlgebra(s)
        for dual in duals:
            pair = BialgebroidPair(alg, dual)
            got = _pair_run(twisting, pair, elements)
            del pair
            gc.collect()
            assert got == _pair_run(twisting, BialgebroidPair(SAlgebra(s), dual), elements)


def test_each_memo_keys_only_what_its_owner_holds():
    """Every prefix a memo keys is a generating function its owner holds, or
    a value of that memo: the algebra keys mu and its components, the pair
    gamma, g112 and g013."""
    keys = 0
    for s, duals, elements in map(_pair_case, PAIR_NAMES):
        alg = SAlgebra(s)
        for dual in duals:
            pair = BialgebroidPair(alg, dual)
            _pair_run(twisting, pair, elements)
            for memo, held in ((alg._memo, (alg.mu, alg.mu211, alg.mu121, alg.mu031)),
                               (pair._memo, (pair.gamma, pair.g112, pair.g013))):
                ids = {id(g) for g in held} | {id(v) for v in memo.values()}
                assert {key for key, _ in memo} <= ids
                keys += len(memo)
    assert keys
