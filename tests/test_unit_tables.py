"""The unit frame tables an ops object keeps, and the algebras each route
builds.

`ops.units` holds the structure tensors themselves: on a constant frame
the anchor terms vanish, and so do the pairing-dual D terms of LWXOps.
Each entry must equal a fresh bracket evaluation on the unit frames
(`frame_tables`), on valid and perturbed structures over base_dim 0 and 1,
on the integer-scaled structure check_lie2_axioms builds, and on LWXOps of
built doubles, one of them with a bumped c21.  The tables share lists with
the structure, so the checks that read them must leave the tensors as
they were.
"""

import contextlib
import copy
import io
import json

import pytest

from splitlie2 import cli, multivectors, structures, twisting
from splitlie2.builtin import builtin_example
from splitlie2.cochains import verify_calculus_identities
from splitlie2.gradedpoly import Poly
from splitlie2.lwx import LWXOps, build_double, check_lwx_axioms
from splitlie2.multivectors import generator_agreement_report
from splitlie2.randomsuite import structure_suite
from splitlie2.sfile import dual_block, mc_blocks, structure_block
from splitlie2.structures import (
    Lie2Ops,
    MorphismData,
    check_lie2_axioms,
    check_morphism,
    clearing_denominator,
    frame_tables,
    times_int,
)
from splitlie2.twisting import BialgebroidPair

SUITE = structure_suite(24, seed=11)
FIELDS = ("b1", "b2", "anchor", "l1", "l11", "l12", "l21", "l3")


def _assert_units_match(ops):
    want = frame_tables(ops, ops.units.b1, ops.units.b2)
    for name in FIELDS:
        assert getattr(ops.units, name) == getattr(want, name), name


def test_suite_covers_both_bases_and_both_verdicts():
    assert {s.chart.base_dim for s, _ in SUITE} == {0, 1}
    assert {check_lie2_axioms(s).passed for s, _ in SUITE} == {True, False}


@pytest.mark.parametrize("index", range(len(SUITE)))
def test_units_equal_brackets_on_structure_suite(index):
    s, _ = SUITE[index]
    _assert_units_match(Lie2Ops(s))


def test_units_equal_brackets_on_integer_scaled_structures():
    scaled = 0
    for s, _ in SUITE:
        d = clearing_denominator(s.entries())
        if d != 1:
            scaled += 1
            _assert_units_match(Lie2Ops(s.map_entries(lambda p: times_int(p, d))))
    assert scaled


def _pair(name, twisted):
    ex = builtin_example(name)
    s = ex["structure"]
    return BialgebroidPair.from_twist(s, ex["mc"]) if twisted else BialgebroidPair.abelian(s)


@pytest.mark.parametrize("name,twisted", [("lsa3", True), ("string_sl2", True),
                                          ("crossed_sl2", False), ("semidirect_poly", False)])
def test_units_equal_brackets_on_doubles(name, twisted):
    e, _ = build_double(_pair(name, twisted), cross_check=False)
    _assert_units_match(LWXOps(e))


def test_units_equal_brackets_on_a_double_with_a_bumped_c21():
    e, _ = build_double(_pair("semidirect_poly", False), cross_check=False)
    e = copy.deepcopy(e)
    e.c21[0][1][2] = e.c21[0][1][2] + Poly.const(e.chart, 3)
    ops = LWXOps(e)
    assert ops.units.l21[0][1] == e.c21[0][1]
    _assert_units_match(ops)
    assert not check_lwx_axioms(e).passed


def test_checks_leave_the_shared_tensors_alone():
    for s, _ in SUITE:
        before = copy.deepcopy(s)
        check_lie2_axioms(s)
        generator_agreement_report(s)
        verify_calculus_identities(s, 2, 0)
        check_morphism(MorphismData.identity(s.chart), Lie2Ops(s), Lie2Ops(s))
        assert s.equals(before)
    e, _ = build_double(_pair("lsa3", True), cross_check=False)
    before = copy.deepcopy(e)
    check_lwx_axioms(e)
    assert e.equals(before)


# -- how many algebras each route builds ------------------------------------------


@pytest.fixture
def built(monkeypatch):
    """Counts of SAlgebra and Lie2Ops constructions (LWXOps not counted)."""
    counts = {"SAlgebra": 0, "Lie2Ops": 0}
    for owner in (multivectors.SAlgebra, structures.Lie2Ops):
        original = owner.__init__

        def init(self, *args, _original=original, _name=owner.__name__, **kw):
            counts[_name] += 1
            _original(self, *args, **kw)

        monkeypatch.setattr(owner, "__init__", init)
    return counts


def test_build_double_builds_one_algebra_and_no_ops(built):
    pair = _pair("lsa3", True)
    built.update(SAlgebra=0, Lie2Ops=0)
    build_double(pair)
    assert built == {"SAlgebra": 1, "Lie2Ops": 0}


def test_calculus_identities_build_one_of_each(built):
    verify_calculus_identities(builtin_example("lsa3")["structure"], 2, 0)
    assert built == {"SAlgebra": 1, "Lie2Ops": 1}


def test_lwx_check_on_a_twisted_pair_builds_two_algebras(built, tmp_path):
    ex = builtin_example("lsa3")
    dual, _ = twisting.induced_dual_structure(ex["structure"], ex["mc"])
    doc = structure_block(ex["structure"], {**mc_blocks(ex["mc"]), "gamma": dual_block(dual)})
    path = tmp_path / "lsa3_gamma.json"
    path.write_text(json.dumps(doc))
    built.update(SAlgebra=0, Lie2Ops=0)
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["--quiet", "--file", str(path), "lwx-check"]) == 0
    assert built["SAlgebra"] == 2

