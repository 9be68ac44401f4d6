"""The bracket engine against the slow paths it replaced (bracket_oracle.py)."""

import random
from fractions import Fraction

import pytest

import bracket_oracle as oracle
from randpoly import random_homogeneous
from splitlie2.bracket import poisson_bracket
from splitlie2.builtin import builtin_example, example_names
from splitlie2.gradedpoly import TH, UNK, X, XID, Chart, Poly, th_dn, x_, xi_dn
from splitlie2.multivectors import draw_below, random_multivector
from splitlie2.structures import encode_mu

EVEN_KINDS = (X, TH, XID, UNK)


def _with_even_power(rng, p):
    """p times a square or cube of a random even variable of its chart."""
    kinds = [k for k in EVEN_KINDS if p.chart.kind_rank(k)]
    if not kinds or rng.random() < 0.3:
        return p
    k = rng.choice(kinds)
    v = Poly.var(p.chart, k, rng.randint(1, p.chart.kind_rank(k)))
    for _ in range(rng.randint(2, 3)):
        p = p * v
    return p


def test_bracket_matches_flattened_kernel():
    rng = random.Random(2024)
    nonzero = 0
    for _ in range(1500):
        ch = Chart(rng.randint(0, 2), rng.randint(0, 3), rng.randint(0, 3), rng.randint(0, 1))
        f = _with_even_power(rng, random_homogeneous(rng, ch, rng.randint(0, 6)))
        g = _with_even_power(rng, random_homogeneous(rng, ch, rng.randint(0, 6)))
        if rng.random() < 0.3:
            f = f * Fraction(rng.randint(1, 5), rng.randint(2, 7))
        for a, b in ((f, g), (g, f)):
            got, want = poisson_bracket(a, b), oracle.poisson_bracket(a, b)
            assert got.terms == want.terms, (a, b)
            nonzero += not got.is_zero
    assert nonzero > 1000


def test_bracket_matches_on_structure_generators():
    for name in example_names():
        s = builtin_example(name)["structure"]
        mu = encode_mu(s)
        ch = s.chart
        args = [xi_dn(ch, i + 1) for i in range(ch.rank1)]
        args += [th_dn(ch, j + 1) for j in range(ch.rank2)]
        args += [x_(ch, i + 1) * x_(ch, i + 1) for i in range(ch.base_dim)]
        assert poisson_bracket(mu, mu).terms == oracle.poisson_bracket(mu, mu).terms
        for a in args:
            assert poisson_bracket(mu, a).terms == oracle.poisson_bracket(mu, a).terms
            assert poisson_bracket(a, mu).terms == oracle.poisson_bracket(a, mu).terms


def test_integral_coefficients_are_ints():
    ch = Chart(1, 2, 2)
    assert type(Poly.const(ch, Fraction(6, 3)).terms[()]) is int
    assert type(Poly.const(ch, "4/2").terms[()]) is int
    assert type(Poly.var(ch, X, 1).terms[((X, 1, 1),)]) is int
    assert type(Poly(ch, {(): Fraction(3)}).terms[()]) is int
    assert type(Poly.const(ch, Fraction(1, 3)).terms[()]) is Fraction
    assert Poly.const(ch, True) == Poly.const(ch, 1)
    assert Poly.const(ch, True).render() == "1"


def test_mixed_int_and_fraction_polys_agree():
    ch = Chart(1, 2, 2)
    x = x_(ch, 1)
    half = x * Fraction(1, 2)
    mixed = half * 2  # leaves the integral Fraction(1) in place
    plain = Poly.var(ch, X, 1)
    assert mixed.terms == plain.terms
    assert mixed == plain and hash(mixed) == hash(plain)
    assert mixed.render() == plain.render() == "x1"
    one = Poly.const(ch, Fraction(1, 2)) * 2
    assert one == Poly.const(ch, 1) and hash(one) == hash(Poly.const(ch, 1))
    assert one.render() == "1"
    rebuilt = Poly(ch, dict(mixed.terms))
    assert type(rebuilt.terms[((X, 1, 1),)]) is int


def test_coefficient_defaults_to_int_zero():
    ch = Chart(1, 1, 1)
    c = x_(ch, 1).coefficient(())
    assert c == 0 and type(c) is int


# Charts beyond the builtins: rank2 = 0 (odd degrees get stuck one short),
# rank1 = 0, and base coordinates with rank2 in {0, 1}.
SAMPLER_CHARTS = [Chart(0, 2, 0), Chart(3, 1, 0), Chart(0, 0, 1), Chart(2, 0, 2),
                  Chart(1, 3, 1), Chart(2, 1, 1)]
# (max_shifted_degree, max_base_degree, terms); a degree bound of 1 would
# never finish on a chart without th_ frames, for either sampler
SAMPLER_PARAMS = [(6, 2, 2), (3, 0, 1), (9, 4, 3), (2, 1, 2)]


def test_random_multivector_keeps_its_draw_sequence():
    charts = [builtin_example(name)["structure"].chart for name in example_names()]
    for ch in charts + SAMPLER_CHARTS:
        for params in SAMPLER_PARAMS:
            for seed in range(20):
                new, old = random.Random(seed), random.Random(seed)
                for _ in range(6):
                    got = random_multivector(ch, new, *params)
                    assert got.terms == oracle.random_multivector(ch, old, *params).terms
                    assert new.getstate() == old.getstate()


def test_draw_below_mirrors_randrange_and_choice():
    """draw_below repeats CPython's own draws, value and state."""
    for seed in range(4):
        for n in range(1, 71):
            ours, ref = random.Random(seed), random.Random(seed)
            for _ in range(5):
                assert draw_below(ours.getrandbits, n) == ref.randrange(n)
                assert ours.getstate() == ref.getstate()
                assert draw_below(ours.getrandbits, n) == ref.choice(range(n))
                assert ours.getstate() == ref.getstate()


def test_random_multivector_keeps_the_interpreter_errors():
    ch = Chart(0, 2, 1)
    for msd, mbd in ((0, 2), (6, -1)):
        with pytest.raises(ValueError) as ours:
            random_multivector(ch, random.Random(0), msd, mbd)
        with pytest.raises(ValueError) as ref:
            oracle.random_multivector(ch, random.Random(0), msd, mbd)
        assert str(ours.value) == str(ref.value)


def test_random_multivector_refuses_a_chart_without_fibers():
    with pytest.raises(ValueError):
        random_multivector(Chart(2, 0, 0), random.Random(0))


def test_random_multivector_refuses_an_unreachable_degree_bound():
    # only even degrees exist without th_ frames; the oracle never returns here
    with pytest.raises(ValueError):
        random_multivector(Chart(1, 2, 0), random.Random(0), 1)
    assert random_multivector(Chart(1, 2, 0), random.Random(0), 2).degree() == 2
