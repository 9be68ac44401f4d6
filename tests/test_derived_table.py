"""derived_table and its three callers against the per-entry oracle.

``derived_table`` is checked against nested ``derived_bracket`` calls on
random generators, zero generators and zero prefixes included.
``decode_mu``, ``decode_gamma`` and route (b) of ``build_double`` are
checked against ``decode_oracle``: tensor by tensor on the builtins, their
twisted duals and every ``structure_suite`` entry, valid and perturbed;
mismatch list by mismatch list on the four builtin doubles, on doubles
with one tensor bumped and on pairs with one term added to theta, so both
passing and failing cross-checks are compared.
"""

import itertools
import random

import pytest

import decode_oracle as oracle
from randpoly import random_homogeneous
from splitlie2 import bracket
from splitlie2.bracket import derived_bracket, derived_table
from splitlie2.builtin import builtin_example, example_names
from splitlie2.gradedpoly import Chart, Poly, p_, th_dn, th_up, x_, xi_dn, xi_up
from splitlie2.lwx import build_double, derived_mismatches
from splitlie2.randomsuite import structure_suite
from splitlie2.structures import decode_mu, encode_mu
from splitlie2.twisting import BialgebroidPair, abelian_gamma, decode_gamma, twist_gamma

SUITE = structure_suite(50, seed=11)
DOUBLES = [("lsa3", True), ("string_sl2", True), ("crossed_sl2", False),
           ("semidirect_poly", False)]
TWISTED = ("lsa3", "string_sl2")


def _entries(table, depth):
    """(index tuple, entry) over a nested table of the given depth."""
    if depth == 0:
        yield (), table
        return
    for i, sub in enumerate(table):
        for idx, e in _entries(sub, depth - 1):
            yield (i,) + idx, e


def _assert_matches_nested(g, frames):
    table = derived_table(g, *frames)
    lengths = [len(f) for f in frames]
    indices = list(itertools.product(*[range(k) for k in lengths]))
    got = dict(_entries(table, len(frames)))
    assert list(got) == indices
    for idx in indices:
        args = [f[i] for f, i in zip(frames, idx)]
        assert got[idx] == derived_bracket(g, args)


def test_derived_table_matches_nested_brackets_on_random_generators():
    rng = random.Random(31)
    nonzero = 0
    for _ in range(60):
        ch = Chart(rng.randint(0, 2), rng.randint(1, 3), rng.randint(1, 2))
        g = random_homogeneous(rng, ch, rng.randint(3, 6))
        depth = rng.randint(1, 3)
        frames = [[random_homogeneous(rng, ch, rng.randint(0, 2))
                   for _ in range(rng.randint(1, 3))] for _ in range(depth)]
        _assert_matches_nested(g, frames)
        nonzero += any(not e.is_zero for _, e in _entries(derived_table(g, *frames), depth))
    assert nonzero > 10


def test_derived_table_of_zero_generator_and_zero_prefix():
    ch = Chart(2, 2, 1)
    frames = [[xi_dn(ch, 1), Poly.zero(ch), x_(ch, 1)], [xi_dn(ch, 2), th_dn(ch, 1)],
              [xi_dn(ch, 1)]]
    for depth in (1, 2, 3):
        table = derived_table(Poly.zero(ch), *frames[:depth])
        assert all(e.is_zero for _, e in _entries(table, depth))
        _assert_matches_nested(Poly.zero(ch), frames[:depth])
    # a zero argument, and a coordinate against a generator without p, give zero prefixes
    g = xi_dn(ch, 1) * xi_up(ch, 1) * xi_up(ch, 2) + th_dn(ch, 1) * xi_up(ch, 1) * th_up(ch, 1)
    for depth in (1, 2, 3):
        _assert_matches_nested(g, frames[:depth])


def test_derived_table_brackets_each_nonzero_prefix_once(monkeypatch):
    ch = Chart(1, 2, 1)
    g = (xi_dn(ch, 1) * xi_up(ch, 1) * xi_up(ch, 2)
         + th_dn(ch, 1) * xi_up(ch, 2) * th_up(ch, 1))
    frame1 = [xi_dn(ch, 1), xi_dn(ch, 2), x_(ch, 1)]
    frame2 = [xi_dn(ch, 1), xi_dn(ch, 2), th_dn(ch, 1)]
    prefixes = [derived_bracket(g, [a]) for a in frame1]
    assert [p.is_zero for p in prefixes] == [False, False, True]
    calls = []
    real = bracket.poisson_bracket
    monkeypatch.setattr(bracket, "poisson_bracket", lambda f, a: calls.append(a) or real(f, a))
    table = derived_table(g, frame1, frame2)
    assert len(calls) == len(frame1) + 2 * len(frame2)
    monkeypatch.undo()
    _assert_matches_nested(g, [frame1, frame2])
    assert all(e.is_zero for e in table[2])


# -- the decoders ------------------------------------------------------------------


def _builtins():
    return [builtin_example(name) for name in example_names()]


def _gammas():
    out = [(abelian_gamma(ex["structure"]), ex["structure"].chart) for ex in _builtins()]
    out += [(abelian_gamma(s), s.chart) for s, _ in SUITE]
    for name in TWISTED:
        ex = builtin_example(name)
        out.append((twist_gamma(ex["structure"], ex["mc"]), ex["structure"].chart))
    return out


def _assert_same_structure(a, b):
    assert a.chart == b.chart
    for name in ("mu1", "mu2", "mu3", "mu4", "mu5"):
        assert getattr(a, name) == getattr(b, name), name


def test_decode_mu_matches_oracle_on_builtins_and_twisted_duals():
    structures = [ex["structure"] for ex in _builtins()]
    for name in TWISTED:
        ex = builtin_example(name)
        structures.append(decode_gamma(twist_gamma(ex["structure"], ex["mc"]),
                                       ex["structure"].chart))
    for s in structures:
        mu = encode_mu(s)
        new = decode_mu(mu, s.chart)
        _assert_same_structure(new, oracle.decode_mu(mu, s.chart))
        assert new.equals(s)


@pytest.mark.parametrize("index", range(len(SUITE)))
def test_decode_mu_matches_oracle_on_structure_suite(index):
    s, _ = SUITE[index]
    mu = encode_mu(s)
    _assert_same_structure(decode_mu(mu, s.chart), oracle.decode_mu(mu, s.chart))


def test_decode_gamma_matches_oracle():
    gammas = _gammas()
    assert len(gammas) == len(example_names()) + len(SUITE) + len(TWISTED)
    for gamma, chart in gammas:
        _assert_same_structure(decode_gamma(gamma, chart), oracle.decode_gamma(gamma, chart))


# -- route (b) of the double --------------------------------------------------------


def _pair(name, twisted):
    ex = builtin_example(name)
    s = ex["structure"]
    return BialgebroidPair.from_twist(s, ex["mc"]) if twisted else BialgebroidPair.abelian(s)


def _crosscheck_flag(rep):
    (rec,) = [r for r in rep.records if r.check_id == "double.crosscheck"]
    return rec


@pytest.mark.parametrize("name,twisted", DOUBLES)
def test_route_b_matches_oracle_on_builtin_doubles(name, twisted):
    pair = _pair(name, twisted)
    out, rep = build_double(pair)
    assert _crosscheck_flag(rep).passed
    assert oracle.crosscheck(pair, out) == (True, [])
    assert derived_mismatches(pair.theta, out) == []


def _bumped(p, table, index, k):
    node = getattr(p, table)
    for i in index[:-1]:
        node = node[i]
    v = node[index[-1]]
    ch = v[k].chart
    node[index[-1]] = v[:k] + [v[k] + Poly.const(ch, 1)] + v[k + 1:]


@pytest.mark.parametrize("name,twisted", DOUBLES)
@pytest.mark.parametrize("table,index", [("partial", (1,)), ("c11", (0, 1)), ("c12", (1, 0)),
                                         ("c21", (0, 1)), ("omega", (0, 1, 2))])
def test_route_b_mismatches_match_oracle_on_bumped_doubles(name, twisted, table, index):
    pair = _pair(name, twisted)
    out, _ = build_double(pair, cross_check=False)
    _bumped(out, table, index, 0)
    ok, detail = oracle.crosscheck(pair, out)
    assert not ok
    assert derived_mismatches(pair.theta, out) == detail


def _theta_bump(ch, part):
    """One extra term of theta in its unary, anchor, binary or ternary part."""
    if part == "unary":
        return xi_dn(ch, 1) * th_up(ch, 1)
    if part == "anchor":
        return p_(ch, 1) * xi_up(ch, 1)
    if part == "binary":
        return th_dn(ch, 1) * xi_up(ch, 1) * th_up(ch, 1)
    return th_dn(ch, 1) * xi_up(ch, 1) * xi_up(ch, 2) * xi_up(ch, 3)


@pytest.mark.parametrize("name,twisted,part", [
    *[(name, True, part) for name in TWISTED for part in ("unary", "binary", "ternary")],
    ("semidirect_poly", False, "anchor"),
])
def test_crosscheck_fails_on_bumped_theta_with_the_oracle_detail(name, twisted, part):
    pair = _pair(name, twisted)
    pair.theta = pair.theta + _theta_bump(pair.chart, part)
    out, rep = build_double(pair)  # route (a) does not read pair.theta
    rec = _crosscheck_flag(rep)
    assert not rec.passed
    ok, detail = oracle.crosscheck(pair, out)
    assert not ok
    assert rec.residual == ", ".join(detail[:8])
    assert derived_mismatches(pair.theta, out) == detail
