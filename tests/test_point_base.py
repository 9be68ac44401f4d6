"""The direct axioms and the double's axioms over a point base.

There check_lie2_axioms and check_lwx_axioms take each tensor entry as a
plain number.  Their records must equal those of the Poly route, which runs
on the same tensors lifted to a line (base_dim 1) with a zero anchor: the
records both runs make, that is, all but the anchor records and the x1
probes of the lifted run.  And the number route must make no Poly
arithmetic at all.
"""

import collections
import dataclasses
from fractions import Fraction

import pytest

from splitlie2.builtin import builtin_example
from splitlie2.gradedpoly import Chart, Poly
from splitlie2.lwx import LWX_TENSORS, build_double, check_lwx_axioms
from splitlie2.randomsuite import structure_suite
from splitlie2.report import render_residual
from splitlie2.structures import (
    Lie2Structure,
    check_lie2_axioms,
    map_tensor,
    signed_permutations,
)
from splitlie2.twisting import BialgebroidPair

POINT_SUITE = [(i, s) for i, (s, _) in enumerate(structure_suite(40, 11))
               if s.chart.base_dim == 0]


def _line(chart):
    return Chart(1, chart.rank1, chart.rank2)


def _on_a_line(s):
    """s over a line, with a zero anchor."""
    ch = _line(s.chart)
    t = s.lift(ch)
    return Lie2Structure(ch, [[Poly.zero(ch)] for _ in range(ch.rank1)],
                         t.mu2, t.mu3, t.mu4, t.mu5)


def _double_on_a_line(e):
    """The double e over a line, with a zero anchor."""
    ch = _line(e.chart)
    lifted = {name: map_tensor(lambda p: p.lift(ch), getattr(e, name)) for name in LWX_TENSORS}
    lifted["rho"] = [[Poly.zero(ch)] for _ in range(e.d1)]
    return dataclasses.replace(e, chart=ch, **lifted)


def _by_id(report):
    out = collections.defaultdict(list)
    for r in report.records:
        out[r.check_id].append(r)
    return out


def assert_shared_records_equal(point, line):
    """Every record id of the point run is one of the line run, and the
    records under it are equal."""
    a, b = _by_id(point), _by_id(line)
    shared = sorted(a.keys() & b.keys())
    assert shared == sorted(a)
    assert [a[k] for k in shared] == [b[k] for k in shared]


def _twisted(name):
    ex = builtin_example(name)
    pair = BialgebroidPair.from_twist(ex["structure"], ex["mc"])
    return build_double(pair, cross_check=False)[0]


def _abelian(name):
    pair = BialgebroidPair.abelian(builtin_example(name)["structure"])
    return build_double(pair, cross_check=False)[0]


def _perturbed_double():
    """The lsa3 twisted double with c21 and omega entries bumped by 1/2 and
    c11 made non-skew in one slot."""
    e = _twisted("lsa3")
    half = Poly.const(e.chart, Fraction(1, 2))
    e.c21[1][3][2] = e.c21[1][3][2] + half
    for (a, b, c), sign in signed_permutations((0, 1, 2)):
        e.omega[a][b][c][1] = e.omega[a][b][c][1] + half * sign
    e.c11[0][4][1] = e.c11[0][4][1] + half
    return e


@pytest.mark.parametrize("index,s", POINT_SUITE, ids=[str(i) for i, _ in POINT_SUITE])
def test_direct_axioms_match_the_poly_route(index, s):
    point, line = check_lie2_axioms(s), check_lie2_axioms(_on_a_line(s))
    assert_shared_records_equal(point, line)
    assert point.passed == line.passed


def test_point_suite_covers_both_verdicts_and_denominators():
    verdicts = {check_lie2_axioms(s).passed for _, s in POINT_SUITE}
    fractional = [i for i, s in POINT_SUITE
                  if any(type(c) is Fraction for e in s.entries() for c in e.terms.values())]
    assert verdicts == {True, False} and fractional


# the four base_dim 0 builtins, and a double that fails
DOUBLES = [("lsa3-twist", _twisted("lsa3")), ("string_sl2-twist", _twisted("string_sl2")),
           ("crossed_sl2-abelian", _abelian("crossed_sl2")), ("abelian-abelian", _abelian("abelian")),
           ("lsa3-perturbed", _perturbed_double())]


@pytest.mark.parametrize("label,e", DOUBLES, ids=[label for label, _ in DOUBLES])
def test_double_axioms_match_the_poly_route(label, e):
    point, line = check_lwx_axioms(e), check_lwx_axioms(_double_on_a_line(e))
    assert_shared_records_equal(point, line)
    assert point.passed == (label != "lsa3-perturbed")


@pytest.mark.parametrize("scale", [1, Fraction(1, 4), Fraction(1, 9)])
@pytest.mark.parametrize("v", [0, 3, -3, Fraction(7, 2), Fraction(-5, 3), Fraction(4, 2)])
def test_a_number_renders_as_its_constant_polynomial(v, scale):
    ch = Chart(0, 1, 1)
    assert render_residual(v, scale) == render_residual(Poly.const(ch, v), scale)
    assert (render_residual([v, 0, v], scale)
            == render_residual([Poly.const(ch, v), Poly.zero(ch), Poly.const(ch, v)], scale))


@pytest.fixture
def poly_arithmetic(monkeypatch):
    """Counts the calls of each Poly arithmetic method."""
    calls = collections.Counter()
    for name in ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__", "__neg__"):
        method = getattr(Poly, name)

        def counting(*args, _method=method, _name=name):
            calls[_name] += 1
            return _method(*args)

        monkeypatch.setattr(Poly, name, counting)
    return calls


def test_point_base_checks_make_no_poly_arithmetic(poly_arithmetic):
    fractional = structure_suite(24, 5)[19][0]  # 1/7 entries, fails
    structures = [builtin_example("lsa3")["structure"],
                  builtin_example("crossed_sl2")["structure"], fractional]
    doubles = [e for _, e in DOUBLES]
    poly_arithmetic.clear()
    for s in structures:
        check_lie2_axioms(s)
    for e in doubles:
        check_lwx_axioms(e)
    assert not poly_arithmetic
    # the same checks on a line do Poly arithmetic, so the counter counts
    check_lie2_axioms(_on_a_line(fractional))
    check_lwx_axioms(_double_on_a_line(doubles[0]))
    assert poly_arithmetic["__mul__"] and poly_arithmetic["__add__"]
