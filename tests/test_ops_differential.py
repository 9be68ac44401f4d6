"""The sparse section calculus against the dense reference loops.

Every bracket of ``Lie2Ops`` and ``LWXOps`` must equal, exactly, the
bracket of the dense reference in ``dense_ops`` on random polynomial
sections: all-zero sections, single-nonzero sections and sections with
several nonzero coordinates.  The arguments also hold the ops' own unit
coefficient object ``ops._one``, whose products the kernels skip: the unit
frame rows alone, summed, and mixed with random coefficients.  Structures:
every ``structure_suite`` entry (valid and perturbed, over base_dim 0 and
1), the doubles of four builtin pairs and a perturbed semidirect_poly
double.
"""

import random

import pytest

from dense_ops import DenseLie2Ops, DenseLWXOps
from splitlie2.builtin import builtin_example
from splitlie2.gradedpoly import Poly, x_
from splitlie2.lwx import LWXOps, build_double, check_lwx_axioms
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


def _unit_sections(units, chart, rng):
    """Sections that hold the unit coefficient object itself: each unit row,
    the sum of all rows (adding a zero hands the unit back), and each row
    with random coefficients in its other coordinates."""
    out = list(units) + [[sum(col, Poly.zero(chart)) for col in zip(*units)]]
    for i, row in enumerate(units):
        out.append([c if q == i or rng.random() < 0.4 else _coefficient(chart, rng)
                    for q, c in enumerate(row)])
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
    unit_ones = _unit_sections(new.units.b1, ch, rng)
    unit_twos = _unit_sections(new.units.b2, ch, rng)
    assert all(any(c is new._one for c in v) for v in unit_ones + unit_twos)
    ones += unit_ones
    twos += unit_twos
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
    for x in unit_ones:
        y, z = pick(unit_ones), pick(ones)
        assert new.l3(x, y, z) == ref.l3(x, y, z)
        assert new.l3(z, x, y) == ref.l3(z, x, y)


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


def test_lwx_ops_match_dense_on_a_bumped_polynomial_double():
    # x1 added to one c21 entry of the semidirect_poly double breaks its axioms
    e = _double("semidirect_poly", False)
    x1 = x_(e.chart, 1)
    e.c21[1][0] = [c + x1 if k == 0 else c for k, c in enumerate(e.c21[1][0])]
    assert not check_lwx_axioms(e).passed
    _assert_same(LWXOps(e), DenseLWXOps(e), seed=8, lwx=True)
