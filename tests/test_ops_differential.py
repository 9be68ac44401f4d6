"""The sparse section calculus against the dense reference loops.

Every bracket of ``Lie2Ops`` and ``LWXOps`` must equal, exactly, the
bracket of the dense reference in ``dense_ops`` on random polynomial
sections: all-zero sections, single-nonzero sections and sections with
several nonzero coordinates.  Structures: every ``structure_suite`` entry
(valid and perturbed) and the doubles of three builtin pairs.
"""

import random

import pytest

from dense_ops import DenseLie2Ops, DenseLWXOps
from splitlie2.builtin import builtin_example
from splitlie2.gradedpoly import Poly, x_
from splitlie2.lwx import LWXOps, build_double
from splitlie2.multivectors import random_base_poly
from splitlie2.randomsuite import structure_suite
from splitlie2.structures import Lie2Ops
from splitlie2.twisting import BialgebroidPair

TRIALS = 6


def _coefficient(chart, rng):
    p = random_base_poly(chart, rng)
    if chart.base_dim and rng.random() < 0.5:
        p = p * x_(chart, rng.randint(1, chart.base_dim))
    return p if not p.is_zero else Poly.const(chart, 1)


def _sections(chart, rank, rng):
    """All-zero, every single-nonzero and a few random sections."""
    zero = [Poly.zero(chart)] * rank
    out = [zero]
    for i in range(rank):
        v = list(zero)
        v[i] = _coefficient(chart, rng)
        out.append(v)
    for _ in range(2):
        out.append([_coefficient(chart, rng) if rng.random() < 0.6 else Poly.zero(chart)
                    for _ in range(rank)])
    return out


def _functions(chart, rng):
    fs = [Poly.zero(chart), Poly.const(chart, 3), _coefficient(chart, rng)]
    fs += [x_(chart, i + 1) for i in range(chart.base_dim)]
    return fs


def _assert_same(new, ref, seed, lwx=False):
    ch = new.chart
    rng = random.Random(seed)
    ones = _sections(ch, new.r1, rng)
    twos = _sections(ch, new.r2, rng)
    pick = rng.choice
    for f in _functions(ch, rng):
        for x in ones:
            assert new.anchor(x, f) == ref.anchor(x, f)
        if lwx:
            assert new.dmap(f) == ref.dmap(f)
    for m in twos:
        assert new.l1(m) == ref.l1(m)
    for x in ones:
        for y in ones:
            assert new.l2_11(x, y) == ref.l2_11(x, y)
        for m in twos:
            assert new.l2_12(x, m) == ref.l2_12(x, m)
            assert new.l2_21(m, x) == ref.l2_21(m, x)
            if lwx:
                assert new.pair(x, m) == ref.pair(x, m)
    for _ in range(TRIALS):
        x, y, z = pick(ones), pick(ones), pick(ones)
        assert new.l3(x, y, z) == ref.l3(x, y, z)
    for i, x in enumerate(ones[: new.r1 + 1]):
        assert new.l3(x, ones[-1], ones[-2]) == ref.l3(x, ones[-1], ones[-2])
        assert new.l3(ones[-1], x, ones[-1]) == ref.l3(ones[-1], x, ones[-1])


@pytest.mark.parametrize("index", range(50))
def test_lie2_ops_match_dense_on_structure_suite(index):
    s, _ = structure_suite(50, seed=11)[index]
    _assert_same(Lie2Ops(s), DenseLie2Ops(s), seed=index)


def _double(name, twisted):
    ex = builtin_example(name)
    s = ex["structure"]
    pair = BialgebroidPair.from_twist(s, ex["mc"]) if twisted else BialgebroidPair.abelian(s)
    e, rep = build_double(pair)
    assert rep.passed
    return e


@pytest.mark.parametrize("name,twisted", [("lsa3", True), ("string_sl2", True),
                                          ("crossed_sl2", False)])
def test_lwx_ops_match_dense_on_doubles(name, twisted):
    e = _double(name, twisted)
    _assert_same(LWXOps(e), DenseLWXOps(e), seed=len(name), lwx=True)


def test_lwx_ops_match_dense_with_a_polynomial_anchor():
    # semidirect_poly has base_dim 1, so the anchor, D and the pairing-dual
    # D terms of the mixed brackets are all nonzero on its double
    e = _double("semidirect_poly", False)
    new, ref = LWXOps(e), DenseLWXOps(e)
    assert any(not r.is_zero for row in e.rho for r in row)
    _assert_same(new, ref, seed=7, lwx=True)
