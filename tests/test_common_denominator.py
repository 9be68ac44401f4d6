"""The integer route of check_lie2_axioms and mu_nilpotency_report.

Both checks clear the denominators of their input once, run on integer
coefficients and render each residual divided by d^2.  Their records
(id, verdict, residual text) must equal the rational route's: the oracle
``leibniz_oracle.check_lie2_axioms`` for the direct axioms, and
``nilpotency_check`` on the unscaled generating function for {mu,mu} = 0.
Inputs: the builtins, two ``structure_suite`` seeds (valid and perturbed,
``base_dim = 1`` charts included), the same structures scaled by
non-integral rationals, and a structure whose common denominator is wider
than the bound, which keeps the rational route.  A second group pins the
invariant the integer route rests on: both checks are quadratic in the
tensors, so scaling a structure by c scales every residual by c^2.
"""

import random
from fractions import Fraction
from itertools import permutations
from math import comb, lcm

import pytest

import leibniz_oracle as oracle
from randpoly import random_homogeneous
from splitlie2 import report as report_module
from splitlie2.bracket import nilpotency_check
from splitlie2.builtin import builtin_example
from splitlie2.gradedpoly import Chart, Poly
from splitlie2.randomsuite import structure_suite
from splitlie2.report import CheckReport, render_residual
from splitlie2.structures import (
    CLEARED_DENOMINATOR_BITS,
    Lie2Structure,
    check_lie2_axioms,
    clearing_denominator,
    encode_mu,
    mu_nilpotency_report,
)

BUILTINS = ("abelian", "crossed_sl2", "lsa3", "semidirect_poly", "string_sl2")
SUITES = [s for seed in (3, 8) for s, _ in structure_suite(24, seed=seed)]
SCALES = (Fraction(3, 7), Fraction(-5, 2), Fraction(1, 12))


def _scaled(s, c):
    return s.map_entries(lambda p: p * c)


def _records(rep):
    return [(r.check_id, r.passed, r.residual) for r in rep.records]


def _nilpotency_oracle(mu):
    """mu_nilpotency_report on the rational route: {mu, mu} of mu itself."""
    rep = CheckReport("generating-function-nilpotency")
    _, residual, comps = nilpotency_check(mu)
    rep.add("nilpotency.total", "{mu, mu} = 0", residual)
    for td, part in comps.items():
        rep.add(f"nilpotency.component{list(td)}", f"component {td} of {{mu,mu}}", part)
    return rep


def _assert_both_routes_agree(s):
    assert _records(check_lie2_axioms(s)) == _records(oracle.check_lie2_axioms(s))
    mu = encode_mu(s)
    assert _records(mu_nilpotency_report(mu)) == _records(_nilpotency_oracle(mu))


def denominator_lcm(polys):
    return lcm(*(Fraction(c).denominator for p in polys for c in p.terms.values()))


def _primes(count):
    out, k = [], 2
    while len(out) < count:
        if all(k % p for p in out if p * p <= k):
            out.append(k)
        k += 1
    return out


def coprime_structure(r):
    """A (0,r,r) structure whose independent entries of mu2..mu5 are
    (1 + i % 3) / p_i, with p_i the i-th prime: a common denominator of
    about 10 bits per entry."""
    ch = Chart(0, r, r)
    count = r * r + r * comb(r, 2) + r**3 + r * comb(r, 3)
    entries = (Fraction(1 + i % 3, p) for i, p in enumerate(_primes(count)))
    nxt = lambda: next(entries)
    mu2 = [[nxt() for _ in range(r)] for _ in range(r)]
    mu3 = [[[0] * r for _ in range(r)] for _ in range(r)]
    for i in range(r):
        for j in range(i + 1, r):
            for k in range(r):
                v = nxt()
                mu3[i][j][k], mu3[j][i][k] = v, -v
    mu4 = [[[nxt() for _ in range(r)] for _ in range(r)] for _ in range(r)]
    mu5 = [[[[0] * r for _ in range(r)] for _ in range(r)] for _ in range(r)]
    for i in range(r):
        for j in range(i + 1, r):
            for k in range(j + 1, r):
                for l in range(r):
                    v = nxt()
                    for p in permutations((0, 1, 2)):
                        sign = 1 if p in ((0, 1, 2), (1, 2, 0), (2, 0, 1)) else -1
                        a, b, c = ((i, j, k)[q] for q in p)
                        mu5[a][b][c][l] = sign * v
    return Lie2Structure.build(ch, mu2=mu2, mu3=mu3, mu4=mu4, mu5=mu5)


# -- residual vectors render as vecstr did ---------------------------------------


def _vecstr(v):
    """The residual text of a section before report.add took vectors."""
    parts = [f"[{i + 1}] {p.render()}" for i, p in enumerate(v) if not p.is_zero]
    return "; ".join(parts)


def test_render_residual_of_a_vector_is_the_old_vecstr_text():
    rng = random.Random(12)
    zeros = 0
    for t in range(200):
        ch = Chart(rng.randint(0, 2), rng.randint(1, 3), rng.randint(1, 3))
        v = [random_homogeneous(rng, ch, rng.randint(0, 4)) if rng.random() < 0.5
             else Poly.zero(ch) for _ in range(rng.randint(1, 4))]
        if t % 10 == 0:
            v = [Poly.zero(ch)] * len(v)
        zeros += not any(v)
        text = render_residual(v)
        assert text == (_vecstr(v) or None)
        # report.add took the old text; an empty text passed like None
        rep = CheckReport("t")
        rep.add("a", "law", v)
        rep.add("b", "law", _vecstr(v))
        assert rep.records[0].passed == rep.records[1].passed == (text is None)
        assert rep.records[0].residual == rep.records[1].residual
    assert zeros >= 20


# -- the integer route against the rational one -----------------------------------


@pytest.mark.parametrize("name", BUILTINS)
def test_builtins_match_the_rational_route(name):
    s = builtin_example(name)["structure"]
    _assert_both_routes_agree(s)
    _assert_both_routes_agree(_scaled(s, Fraction(3, 7)))


def test_denominators_of_the_inputs_cover_both_sides_of_the_bound():
    d = [denominator_lcm(builtin_example(n)["structure"].entries()) for n in BUILTINS]
    assert 1 in d
    suite = [denominator_lcm(s.entries()) for s in SUITES]
    assert 1 in suite and any(1 < x for x in suite)
    assert all(x.bit_length() <= CLEARED_DENOMINATOR_BITS for x in suite)
    assert {s.chart.base_dim for s in SUITES} >= {0, 1}


@pytest.mark.parametrize("index", range(len(SUITES)))
def test_structure_suites_match_the_rational_route(index):
    s = SUITES[index]
    _assert_both_routes_agree(s)
    _assert_both_routes_agree(_scaled(s, SCALES[index % len(SCALES)]))


def test_suites_cover_both_verdicts():
    verdicts = {check_lie2_axioms(_scaled(s, Fraction(3, 7))).passed for s in SUITES}
    assert verdicts == {True, False}


def test_a_denominator_wider_than_the_bound_keeps_the_rational_route():
    s = coprime_structure(5)
    assert denominator_lcm(s.entries()).bit_length() > CLEARED_DENOMINATOR_BITS
    assert clearing_denominator(s.entries()) == 1
    rep = check_lie2_axioms(s)
    assert not rep.passed
    assert _records(rep) == _records(oracle.check_lie2_axioms(s))
    mu = encode_mu(s)
    assert clearing_denominator([mu]) == 1
    assert _records(mu_nilpotency_report(mu)) == _records(_nilpotency_oracle(mu))


def test_a_denominator_within_the_bound_takes_the_integer_route():
    s = coprime_structure(3)
    d = denominator_lcm(s.entries())
    assert 1 < d.bit_length() <= CLEARED_DENOMINATOR_BITS
    assert clearing_denominator(s.entries()) == d
    _assert_both_routes_agree(s)


# -- scaling a structure by c scales every residual by c^2 ------------------------


def _residuals(check, arg, monkeypatch):
    """(verdicts, residuals) of check(arg): each residual as the polynomial
    or vector it renders, i.e. times the report's scale."""
    seen = []
    real = report_module.render_residual

    def spy(value, scale=1):
        if isinstance(value, Poly):
            seen.append(value * scale)
        else:
            seen.append([p * scale for p in value])
        return real(value, scale)

    monkeypatch.setattr(report_module, "render_residual", spy)
    rep = check(arg)
    monkeypatch.undo()
    return [r.passed for r in rep.records], seen


def _times(residual, c):
    return residual * c if isinstance(residual, Poly) else [p * c for p in residual]


@pytest.mark.parametrize("seed", [4, 9])
def test_scaling_a_structure_by_c_scales_each_residual_by_c_squared(seed, monkeypatch):
    rng = random.Random(seed)
    verdicts = set()
    for s, _ in structure_suite(16, seed=seed):
        c = Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 9))
        for check, arg, scaled in (
            (check_lie2_axioms, s, _scaled(s, c)),
            (mu_nilpotency_report, encode_mu(s), encode_mu(_scaled(s, c))),
        ):
            passed, res = _residuals(check, arg, monkeypatch)
            passed_c, res_c = _residuals(check, scaled, monkeypatch)
            assert passed_c == passed
            assert res_c == [_times(r, c * c) for r in res]
            verdicts.update(passed)
    assert verdicts == {True, False}
