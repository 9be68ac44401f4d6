"""The table route of the direct axiom suite against the oracle without tables.

Every record (id, verdict, residual) of ``check_leibniz2_axioms`` must
equal the record of ``leibniz_oracle.check_leibniz2_axioms``.  Inputs:
every ``structure_suite`` entry, valid and perturbed, on ``Lie2Ops``, and
the doubles of four builtin pairs on ``LWXOps`` (block i of
``check_lwx_axioms``).
"""

import pytest

import leibniz_oracle as oracle
from splitlie2.builtin import builtin_example
from splitlie2.lwx import LWXOps, build_double
from splitlie2.randomsuite import structure_suite
from splitlie2.report import CheckReport
from splitlie2.structures import Lie2Ops, check_leibniz2_axioms
from splitlie2.twisting import BialgebroidPair

SUITE = structure_suite(50, seed=11)


def _records(check, ops, tag):
    rep = check(ops, CheckReport("t"), tag=tag)
    return [(r.check_id, r.passed, r.residual) for r in rep.records]


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


@pytest.mark.parametrize("name,twisted", [("lsa3", True), ("string_sl2", True),
                                          ("crossed_sl2", False), ("semidirect_poly", False)])
def test_tables_match_oracle_on_doubles(name, twisted):
    ex = builtin_example(name)
    s = ex["structure"]
    pair = BialgebroidPair.from_twist(s, ex["mc"]) if twisted else BialgebroidPair.abelian(s)
    e, rep = build_double(pair)
    assert rep.passed
    records = _assert_same(LWXOps(e), "lwx.i")
    assert records and all(passed for _, passed, _ in records)
