"""The frame codec against the copies of the code it replaced.

``encode_mu`` and ``encode_gamma`` (both ``encode_frames``) are compared
term by term with ``decode_oracle.encode_mu``/``encode_gamma`` on the
builtins, their twisted and abelian duals and ``structure_suite(50,
seed=11)``, valid and perturbed, each also scaled by 3/7 and by -5/2.
``linear_components`` is compared with the old readers on every call the
package makes on the decode path, in the double, in the twisted dual and in
hp-verify, and on random one-forms.  The old decode reader raised on a term
without a factor of its kind, so the decode comparison also shows that the
decode path never produces one.  The decode error messages are pinned.
"""

import random
from fractions import Fraction

import pytest

import decode_oracle as oracle
from randpoly import random_homogeneous
from splitlie2 import lwx, multivectors, structures, twisting
from splitlie2.builtin import builtin_example, example_names
from splitlie2.cochains import one_form
from splitlie2.gradedpoly import (
    KIND_TRIDEG,
    P,
    TH,
    THD,
    XI,
    XID,
    Chart,
    Poly,
    th_dn,
    th_up,
    x_,
    xi_dn,
    xi_up,
)
from splitlie2.lwx import build_double, embed1, embed2
from splitlie2.multivectors import verify_hp_axioms
from splitlie2.randomsuite import perturb_structure, structure_suite
from splitlie2.structures import (
    GAMMA_TRIDEGREES,
    MU_TRIDEGREES,
    decode_mu,
    encode_mu,
    linear_components,
    validate_generating_function,
)
from splitlie2.twisting import (
    BialgebroidPair,
    abelian_gamma,
    decode_gamma,
    encode_gamma,
    induced_dual_structure,
    twist_gamma,
)

SUITE = [s for s, _ in structure_suite(50, seed=11)]
TWISTED = ("lsa3", "string_sl2")
SCALES = (1, Fraction(3, 7), Fraction(-5, 2))


def _builtins():
    return [builtin_example(name)["structure"] for name in example_names()]


def _twisted_duals():
    out = []
    for name in TWISTED:
        ex = builtin_example(name)
        s = ex["structure"]
        out.append((decode_gamma(twist_gamma(s, ex["mc"]), s.chart), s.chart))
    return out


def _perturbed(structures_, seed):
    rng = random.Random(seed)
    return [perturb_structure(s, rng) for s in structures_]


def _scaled(s, c):
    return s if c == 1 else s.map_entries(lambda p: p * c)


def _structures():
    """Every structure encode_mu is compared on, before scaling."""
    base = _builtins() + [dual for dual, _ in _twisted_duals()]
    return base + _perturbed(base, 5) + SUITE


def _dual_pairs():
    """(dual structure, base chart) pairs encode_gamma is compared on."""
    pairs = [(decode_gamma(abelian_gamma(s), s.chart), s.chart) for s in _builtins() + SUITE]
    pairs += _twisted_duals()
    rng = random.Random(6)
    pairs += [(perturb_structure(dual, rng), chart) for dual, chart in _twisted_duals()]
    return pairs


def _same_poly(new, old):
    assert new.chart == old.chart
    assert new.terms == old.terms


# -- encoder ------------------------------------------------------------------------


@pytest.mark.parametrize("scale", SCALES)
def test_encode_mu_matches_the_old_encoder(scale):
    structures_ = _structures()
    assert len(structures_) == 2 * (len(example_names()) + len(TWISTED)) + len(SUITE)
    nonzero = 0
    for s in structures_:
        s = _scaled(s, scale)
        new = encode_mu(s)
        _same_poly(new, oracle.encode_mu(s))
        nonzero += not new.is_zero
    assert nonzero > len(SUITE)


@pytest.mark.parametrize("scale", SCALES)
def test_encode_gamma_matches_the_old_encoder(scale):
    pairs = _dual_pairs()
    assert len(pairs) == len(example_names()) + len(SUITE) + 2 * len(TWISTED)
    for dual, chart in pairs:
        dual = _scaled(dual, scale)
        _same_poly(encode_gamma(dual, chart), oracle.encode_gamma(dual, chart))


def test_encode_gamma_keeps_its_rank_check():
    s = builtin_example("string_sl2")["structure"]
    for encode in (encode_gamma, oracle.encode_gamma):
        with pytest.raises(ValueError, match="^dual structure ranks do not match the base chart$"):
            encode(s, s.chart)


# -- reader -------------------------------------------------------------------------


def _check_reader(monkeypatch, module, old):
    """Replace module.linear_components by the package reader checked, call
    by call, against old(f, kind, rank) lifted to the output chart; returns
    the list of polynomials read."""
    read = []

    def checked(f, kind, rank, chart):
        got = linear_components(f, kind, rank, chart)
        want = [c.lift(chart) for c in old(f, kind, rank)]
        assert [c.chart for c in got] == [chart] * rank
        assert [c.terms for c in got] == [c.terms for c in want]
        read.append(f)
        return got

    monkeypatch.setattr(module, "linear_components", checked)
    return read


def test_decode_reader_matches_the_old_reader_on_every_table_output(monkeypatch):
    # the old reader raised on a term without a factor of the kind, so no
    # decode-table output has one
    read = _check_reader(monkeypatch, structures, oracle._components_to_list)
    for s in _structures():
        for scale in SCALES:
            decode_mu(encode_mu(_scaled(s, scale)), s.chart)
    mu_reads = len(read)
    for dual, chart in _dual_pairs():
        decode_gamma(encode_gamma(dual, chart), chart)
    assert mu_reads > 1000 and len(read) - mu_reads > 1000
    assert sum(not f.is_zero for f in read) > 1000


def _build_doubles():
    for name in TWISTED:
        ex = builtin_example(name)
        for pair in (BialgebroidPair.from_twist(ex["structure"], ex["mc"]),
                     BialgebroidPair.abelian(ex["structure"])):
            assert build_double(pair)[1].passed


def _twist_duals():
    for name in TWISTED:
        ex = builtin_example(name)
        assert induced_dual_structure(ex["structure"], ex["mc"])[1].passed


def _verify_hp():
    for name in TWISTED + ("semidirect_poly",):
        verify_hp_axioms(builtin_example(name)["structure"], count=20, seed=1)


@pytest.mark.parametrize("module,run", [(lwx, _build_doubles), (twisting, _twist_duals),
                                        (multivectors, _verify_hp)])
def test_one_form_readers_match_the_old_reader(monkeypatch, module, run):
    read = _check_reader(monkeypatch, module, oracle.cochain_one_form_components)
    run()
    assert sum(not f.is_zero for f in read) > 10


def _random_one_form(rng, chart, kind):
    """Terms linear in kind with random coefficient parts, plus terms
    without a factor of kind."""
    acc = Poly.zero(chart)
    for _ in range(rng.randint(1, 4)):
        part = random_homogeneous(rng, chart, rng.randint(0, 3))
        part = Poly(chart, {m: c for m, c in part.terms.items()
                            if all(k != kind for k, _, _ in m)})
        acc = acc + part * Poly.var(chart, kind, rng.randint(1, chart.kind_rank(kind)))
    if rng.random() < 0.5:
        rest = random_homogeneous(rng, chart, rng.randint(0, 4))
        acc = acc + Poly(chart, {m: c for m, c in rest.terms.items()
                                 if all(k != kind for k, _, _ in m)})
    return acc


def test_reader_matches_the_old_readers_on_random_one_forms():
    rng = random.Random(17)
    skipped = 0
    for _ in range(300):
        ch = Chart(rng.randint(0, 2), rng.randint(1, 3), rng.randint(1, 3))
        kind = rng.choice((XI, TH, XID, THD))
        rank = ch.kind_rank(kind)
        f = _random_one_form(rng, ch, kind)
        got = linear_components(f, kind, rank, ch)
        assert got == oracle.cochain_one_form_components(f, kind, rank)
        if all(any(k == kind for k, _, _ in m) for m in f.terms):
            assert got == oracle._components_to_list(f, kind, rank)
        else:
            skipped += 1
    assert skipped > 50


@pytest.mark.parametrize("build", [
    lambda ch: th_up(ch, 1) * th_up(ch, 1) * x_(ch, 1),
    lambda ch: xi_up(ch, 1) * xi_up(ch, 2) + th_up(ch, 1),
    lambda ch: xi_dn(ch, 1) * xi_dn(ch, 1),
    lambda ch: th_dn(ch, 1) * th_dn(ch, 2) * xi_dn(ch, 1),
])
def test_reader_rejects_a_polynomial_that_is_not_linear_with_the_old_message(build):
    ch = Chart(1, 2, 2)
    f = build(ch)
    kind = next(k for m in f.terms for k, _, e in m
                if e > 1 or sum(kk == k for kk, _, _ in m) > 1)
    with pytest.raises(ValueError) as old:
        oracle._components_to_list(f, kind, 2)
    with pytest.raises(ValueError) as new:
        linear_components(f, kind, 2, ch)
    assert str(new.value) == str(old.value) == (
        f"polynomial is not linear in kind {kind}: {f.render()}")


# -- validation ----------------------------------------------------------------------


def test_decode_error_messages_are_pinned():
    ch = Chart(1, 2, 2)
    degree3 = xi_dn(ch, 1) * th_dn(ch, 1)
    off_grading = xi_dn(ch, 1) * xi_dn(ch, 2)  # tridegree (2, 0, 2)
    with pytest.raises(ValueError, match=r"^generating function must have degree 4, got 3$"):
        decode_mu(degree3, ch)
    with pytest.raises(ValueError, match=r"^inadmissible tridegree component \(2, 0, 2\)$"):
        decode_mu(off_grading, ch)
    degree3 = xi_up(ch, 1) * th_up(ch, 1)
    for decode in (decode_gamma, lambda g, _: oracle.validate_gamma(g)):
        with pytest.raises(ValueError,
                           match=r"^dual generating function must have degree 4, got 3$"):
            decode(degree3, ch)
        with pytest.raises(ValueError,
                           match=r"^inadmissible dual tridegree component \(2, 0, 2\)$"):
            decode(off_grading, ch)
    # the third message needs a grading the decoders do not admit (see below)
    with pytest.raises(ValueError, match=r"^generating function must be fiberwise linear$"):
        validate_generating_function(off_grading, MU_TRIDEGREES + ((2, 0, 2),),
                                     (P, XID, THD), "")
    two_fibers = th_up(ch, 1) * th_up(ch, 2)  # tridegree (2, 2, 0)
    with pytest.raises(ValueError,
                       match=r"^dual generating function must be fiberwise linear$"):
        validate_generating_function(two_fibers, GAMMA_TRIDEGREES + ((2, 2, 0),),
                                     (P, XI, TH), "dual ")


def test_an_admissible_tridegree_already_makes_a_term_fiberwise_linear():
    # the momenta of mu are the kinds with third grading 1, those of gamma
    # the kinds with second grading 1, and every other kind has 0 there, so a
    # term in an admissible tridegree has exactly one momentum factor
    for tridegrees, momenta, slot in ((MU_TRIDEGREES, (P, XID, THD), 2),
                                      (GAMMA_TRIDEGREES, (P, XI, TH), 1)):
        assert all(t[slot] == 1 for t in tridegrees)
        assert all(g[slot] == (k in momenta) for k, g in enumerate(KIND_TRIDEG))


# -- embedders -----------------------------------------------------------------------


def _random_vector(rng, chart, size):
    out = []
    for _ in range(size):
        pick = rng.randrange(4)
        if pick == 0:
            out.append(0)
        elif pick == 1:
            out.append(Fraction(rng.randint(-5, 5), rng.randint(1, 4)))
        else:
            out.append(random_homogeneous(rng, chart, 0) * rng.randint(-2, 2))
    return out


def test_embedders_match_the_old_embedders():
    rng = random.Random(23)
    for ch in (Chart(0, 3, 3), Chart(1, 2, 1), Chart(2, 1, 3), Chart(0, 3, 1)):
        d = ch.rank1 + ch.rank2
        units = [[Fraction(int(q == a)) for q in range(d)] for a in range(d)]
        vectors = units + [_random_vector(rng, ch, d) for _ in range(20)]
        for v in vectors:
            _same_poly(embed1(ch, v), oracle.embed1(ch, v))
            _same_poly(embed2(ch, v), oracle.embed2(ch, v))
        for _ in range(20):
            a1 = _random_vector(rng, ch, ch.rank1) if rng.random() < 0.8 else None
            a2 = _random_vector(rng, ch, ch.rank2) if rng.random() < 0.8 else None
            _same_poly(one_form(ch, a1=a1, a2=a2), oracle.one_form(ch, a1=a1, a2=a2))
        # the unit one-forms the calculus routes build, on both charts
        for c in (ch, ch.swapped()):
            for i in range(c.rank1):
                unit = [1 if q == i else 0 for q in range(c.rank1)]
                _same_poly(xi_up(c, i + 1), oracle.one_form(c, a1=unit))
            for i in range(c.rank2):
                unit = [1 if q == i else 0 for q in range(c.rank2)]
                _same_poly(th_up(c, i + 1), oracle.one_form(c, a2=unit))
