"""The frame-table routes against the oracles without tables.

Every record (id, verdict, residual) of ``check_leibniz2_axioms``,
``check_lie2_axioms``, ``check_lwx_axioms`` and ``check_strict_dirac``
must equal the record of its ``leibniz_oracle`` counterpart, and every
tensor of ``transport``, ``lwx_transport`` and the restrictions must be
equal.  Inputs: every ``structure_suite`` entry, valid and perturbed, on
``Lie2Ops``; the doubles of four builtin pairs on ``LWXOps``, with both
canonical halves; and perturbed doubles, so that failing residuals and
failing closure details are compared too.
"""

import random

import pytest

import leibniz_oracle as oracle
from test_frame_algebra import lwx_transport
from splitlie2.builtin import builtin_example
from splitlie2.gradedpoly import Poly, x_
from splitlie2.linalg import invert
from splitlie2.lwx import (
    LWXOps,
    Subbundle,
    build_double,
    check_lwx_axioms,
    check_strict_dirac,
    extract_bialgebroid,
    hyperbolic_pairing,
)
from splitlie2.randomsuite import _random_invertible, structure_suite
from splitlie2.report import CheckReport
from splitlie2.structures import Lie2Ops, check_leibniz2_axioms, check_lie2_axioms, transport
from splitlie2.twisting import BialgebroidPair

SUITE = structure_suite(50, seed=11)
DOUBLES = [("lsa3", True), ("string_sl2", True), ("crossed_sl2", False),
           ("semidirect_poly", False)]


def _report_records(rep):
    return [(r.check_id, r.passed, r.residual) for r in rep.records]


def _records(check, ops, tag):
    return _report_records(check(ops, CheckReport("t"), tag=tag))


def _assert_same(ops, tag):
    new = _records(check_leibniz2_axioms, ops, tag)
    assert new == _records(oracle.check_leibniz2_axioms, ops, tag)
    return new


@pytest.mark.parametrize("index", range(len(SUITE)))
def test_tables_match_oracle_on_structure_suite(index):
    s, _ = SUITE[index]
    _assert_same(Lie2Ops(s), "leibniz2")


def test_structure_suite_covers_both_verdicts():
    verdicts = {r[1] for s, _ in SUITE for r in _records(check_leibniz2_axioms, Lie2Ops(s), "t")}
    assert verdicts == {True, False}


def _double(name, twisted, cross_check=True):
    ex = builtin_example(name)
    s = ex["structure"]
    pair = BialgebroidPair.from_twist(s, ex["mc"]) if twisted else BialgebroidPair.abelian(s)
    e, rep = build_double(pair, cross_check=cross_check)
    assert rep.passed
    return e


@pytest.mark.parametrize("name,twisted", DOUBLES)
def test_tables_match_oracle_on_doubles(name, twisted):
    e = _double(name, twisted)
    records = _assert_same(LWXOps(e), "lwx.i")
    assert records and all(passed for _, passed, _ in records)


def test_lie2_axioms_and_transport_match_oracle_on_structure_suite():
    rng = random.Random(11)
    verdicts = set()
    for s, _ in SUITE:
        new = _report_records(check_lie2_axioms(s))
        assert new == _report_records(oracle.check_lie2_axioms(s))
        verdicts.update(passed for _, passed, _ in new)
        t1 = _random_invertible(rng, s.chart.rank1)
        t2 = _random_invertible(rng, s.chart.rank2)
        assert transport(s, t1, t2).equals(oracle.transport(s, t1, t2))
    assert verdicts == {True, False}


def _dirac_outcome(check, e, sub):
    """Records and restriction of a strict Dirac check, or its error."""
    try:
        rep, restricted = check(e, sub)
    except ValueError as exc:
        return "error", str(exc)
    return _report_records(rep), restricted


def _assert_same_dirac(e, sub):
    new = _dirac_outcome(check_strict_dirac, e, sub)
    old = _dirac_outcome(oracle.check_strict_dirac, e, sub)
    assert new[0] == old[0]
    if isinstance(new[1], str) or new[1] is None:
        assert new[1] == old[1]
    else:
        assert new[1].equals(old[1])
        assert new[1].equals(oracle.restrict_to_subbundle(e, sub))
    return new


def _hyperbolic_partner(t1, r1, r2):
    """t2 with t1 S t2^T = S for the hyperbolic pairing S."""
    s = hyperbolic_pairing(r1, r2)
    d = len(s)
    mul = lambda a, b: [[sum(a[i][k] * b[k][j] for k in range(d)) for j in range(d)]
                        for i in range(d)]
    t2t = mul(mul(invert(s), invert(t1)), s)
    return [[t2t[j][i] for j in range(d)] for i in range(d)]


@pytest.mark.parametrize("name,twisted", DOUBLES)
def test_lwx_suites_and_pullbacks_match_oracle_on_doubles(name, twisted):
    e = _double(name, twisted, cross_check=False)
    new = _report_records(check_lwx_axioms(e))
    assert new == _report_records(oracle.check_lwx_axioms(e))
    assert all(passed for _, passed, _ in new)
    for sub in (Subbundle.canonical_half(e.chart), Subbundle.canonical_dual_half(e.chart)):
        records, restricted = _assert_same_dirac(e, sub)
        assert restricted is not None and all(passed for _, passed, _ in records)
    t1 = _random_invertible(random.Random(name), e.d1)
    t2 = _hyperbolic_partner(t1, e.chart.rank1, e.chart.rank2)
    moved = lwx_transport(e, t1, t2)
    assert moved.equals(oracle.lwx_transport(e, t1, t2))
    assert not moved.equals(e)


def _matmul(a, b):
    return [[sum(a[i][k] * b[k][j] for k in range(len(b))) for j in range(len(b[0]))]
            for i in range(len(a))]


@pytest.mark.parametrize("name,twisted", DOUBLES)
def test_extracted_dual_half_matches_oracle_restriction(name, twisted):
    """extract_bialgebroid carries the restriction of the second half to the
    normalized frame by a frame change; the oracle restricts to the
    normalized basis afresh.  The second half comes in a scrambled frame,
    so the normalization is neither the identity nor symmetric."""
    e = _double(name, twisted, cross_check=False)
    d = e.d1
    rng = random.Random(name)
    sub_a = Subbundle.canonical_half(e.chart)
    dual = Subbundle.canonical_dual_half(e.chart)
    sub_b = Subbundle(_matmul(_random_invertible(rng, len(dual.basis1)), dual.basis1),
                      _matmul(_random_invertible(rng, len(dual.basis2)), dual.basis2))
    pair, rep = extract_bialgebroid(e, sub_a, sub_b)
    assert rep.passed

    def gram(us, ws):
        return [[sum(u[x] * e.pairing[x][y] * w[y] for x in range(d) for y in range(d))
                 for w in ws] for u in us]

    inv1 = invert(gram(sub_a.basis1, sub_b.basis2))
    inv2 = invert(gram(sub_b.basis1, sub_a.basis2))
    normalized = Subbundle(_matmul(inv2, sub_b.basis1),
                           _matmul([list(col) for col in zip(*inv1)], sub_b.basis2))
    unit = lambda r: [[int(i == j) for j in range(r)] for i in range(r)]
    assert gram(sub_a.basis1, normalized.basis2) == unit(len(sub_a.basis1))
    assert gram(normalized.basis1, sub_a.basis2) == unit(len(sub_a.basis2))
    assert pair.dual.equals(oracle.restrict_to_subbundle(e, normalized))
    assert pair.s.equals(oracle.restrict_to_subbundle(e, sub_a))
    # the normalized frame of the canonical dual half is that half's own frame
    assert pair.dual.equals(oracle.restrict_to_subbundle(e, dual))


def _bump(e, table, index, k, sign=1):
    ch = e.chart
    node = getattr(e, table)
    for i in index[:-1]:
        node = node[i]
    v = node[index[-1]]
    node[index[-1]] = [v[q] + (Poly.const(ch, sign) if q == k else Poly.zero(ch))
                       for q in range(e.d1)]


def _perturbed_double(name):
    """A builtin double with one tensor bumped, as in test_lwx.py."""
    e = _double("lsa3" if name == "unary" else "string_sl2", True, cross_check=False)
    if name == "threeform":
        perms = {(0, 1, 2): 1, (1, 2, 0): 1, (2, 0, 1): 1,
                 (1, 0, 2): -1, (0, 2, 1): -1, (2, 1, 0): -1}
        for index, sign in perms.items():
            _bump(e, "omega", index, 0, sign)
    elif name == "binary":  # leaves the first half: its closure fails
        _bump(e, "c11", (0, 1), 3)
        _bump(e, "c11", (1, 0), 3, -1)
    elif name == "mixed":  # the first half's restriction raises
        _bump(e, "c12", (0, 0), 0)
    elif name == "mixed21":  # one mixed order leaves the first half
        _bump(e, "c21", (0, 0), 1)
    else:  # the unary map leaves the first half
        _bump(e, "partial", (1,), 4)
    return e


@pytest.mark.parametrize("name", ["threeform", "binary", "mixed", "mixed21", "unary"])
def test_lwx_suites_match_oracle_on_perturbed_doubles(name):
    e = _perturbed_double(name)
    new = _report_records(check_lwx_axioms(e))
    assert new == _report_records(oracle.check_lwx_axioms(e))
    assert not all(passed for _, passed, _ in new)
    for sub in (Subbundle.canonical_half(e.chart), Subbundle.canonical_dual_half(e.chart)):
        _assert_same_dirac(e, sub)


def test_lwx_suites_match_oracle_with_a_polynomial_c21_bump():
    # semidirect_poly has base_dim 1, so the anchor and D terms of the mixed
    # kernels run on failing residuals too
    e = _double("semidirect_poly", False, cross_check=False)
    x1 = x_(e.chart, 1)
    e.c21[1][0] = [c + x1 if k == 0 else c for k, c in enumerate(e.c21[1][0])]
    records = _assert_same(LWXOps(e), "lwx.i")
    assert not all(passed for _, passed, _ in records)
    new = _report_records(check_lwx_axioms(e))
    assert new == _report_records(oracle.check_lwx_axioms(e))
    for sub in (Subbundle.canonical_half(e.chart), Subbundle.canonical_dual_half(e.chart)):
        _assert_same_dirac(e, sub)


@pytest.mark.parametrize("table,index,k", [("c11", (0, 1), 2), ("c11", (2, 2), 0),
                                           ("omega", (0, 1, 2), 1), ("omega", (1, 1, 0), 3)])
def test_lwx_shape_flags_match_oracle_on_broken_alternations(table, index, k):
    e = _double("string_sl2", True, cross_check=False)
    _bump(e, table, index, k)
    new = _report_records(check_lwx_axioms(e))
    assert new == _report_records(oracle.check_lwx_axioms(e))
    flag = "lwx.skew" if table == "c11" else "lwx.alternating"
    assert [passed for check_id, passed, _ in new if check_id == flag] == [False]
