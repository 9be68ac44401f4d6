import json
from fractions import Fraction

import pytest

from splitlie2.builtin import builtin_example, example_names, lsa3
from splitlie2.gradedpoly import Poly
from splitlie2.lwx import build_double
from splitlie2.multivectors import SAlgebra
from splitlie2.randomsuite import structure_suite
from splitlie2.sfile import (
    StructureFileError,
    dual_block,
    lwx_block,
    mc_blocks,
    parse_structure_file,
    render_structure,
)
from splitlie2.structures import signed_permutations
from splitlie2.twisting import BialgebroidPair, induced_dual_structure


@pytest.mark.parametrize("name", ["lsa3", "string_sl2", "crossed_sl2", "semidirect_poly",
                                  "abelian(2,1)"])
def test_parse_render_roundtrip(name):
    ex = builtin_example(name)
    extra = mc_blocks(ex["mc"]) if ex.get("mc") else None
    text = render_structure(ex["structure"], extra=extra)
    sf = parse_structure_file(text)
    assert sf.structure.equals(ex["structure"])
    if ex.get("mc"):
        m = sf.mc_element()
        assert m.h == ex["mc"].h if isinstance(m.h, list) else True
        for i in range(sf.chart.rank1):
            for j in range(sf.chart.rank2):
                assert m.h[i][j] == ex["mc"].h[i][j]
        assert set(m.k) == set(ex["mc"].k)
        for idx in m.k:
            assert m.k[idx] == ex["mc"].k[idx]
    # rendering is deterministic
    assert text == render_structure(ex["structure"], extra=extra)


def test_gamma_block_roundtrip():
    ex = lsa3()
    dual, _, _ = induced_dual_structure(SAlgebra(ex["structure"]), ex["mc"])
    text = render_structure(ex["structure"], extra={"gamma": dual_block(dual)})
    sf = parse_structure_file(text)
    assert sf.dual is not None and sf.dual.equals(dual)


# (seed, position) of structure_suite(24, seed) entries: even positions are
# built valid, odd ones perturbed
SUITE_ENTRIES = [(seed, i) for seed in (0, 5) for i in range(24)]


@pytest.fixture(scope="module")
def suites():
    return {seed: structure_suite(24, seed) for seed in (0, 5)}


def test_suite_roundtrip_covers_both_bases_and_both_kinds(suites):
    kinds = {(suites[seed][i][0].chart.base_dim, i % 2) for seed, i in SUITE_ENTRIES}
    assert kinds == {(0, 0), (0, 1), (1, 0), (1, 1)}


@pytest.mark.parametrize("seed,i", SUITE_ENTRIES, ids=[f"{s}-{i}" for s, i in SUITE_ENTRIES])
def test_suite_structures_roundtrip(suites, seed, i):
    s = suites[seed][i][0]
    assert parse_structure_file(render_structure(s)).structure.equals(s)


def _double(name, twisted):
    ex = builtin_example(name)
    pair = (BialgebroidPair.from_twist(ex["structure"], ex["mc"]) if twisted
            else BialgebroidPair.abelian(ex["structure"]))
    return ex["structure"], build_double(pair, cross_check=False)[0]


def _double_with_x1_in_c21():
    s, e = _double("semidirect_poly", twisted=False)
    e.c21[1][0][2] = e.c21[1][0][2] + Poly.var(e.chart, 0, 1)
    return s, e


DOUBLES = {
    "lsa3-twist": lambda: _double("lsa3", twisted=True),
    "string_sl2-twist": lambda: _double("string_sl2", twisted=True),
    "semidirect_poly-abelian": lambda: _double("semidirect_poly", twisted=False),
    "semidirect_poly-abelian+x1": _double_with_x1_in_c21,
}


@pytest.mark.parametrize("label", list(DOUBLES))
def test_lwx_block_roundtrip(label):
    s, e = DOUBLES[label]()
    sf = parse_structure_file(render_structure(s, extra={"lwx": lwx_block(e)}))
    assert sf.lwx.equals(e)


def test_lwx_block_with_one_slot_per_alternating_orbit_parses_to_the_full_tensor():
    doc = _base_doc()  # rank1 = rank2 = 3, so the double's frames have 6 vectors
    doc["lwx"] = {"c11": [{"idx": [2, 1, 4], "val": "3/2"}],
                  "omega": [{"idx": [3, 1, 5, 6], "val": -2}]}
    e = parse_structure_file(json.dumps(doc)).lwx
    ch = e.chart
    nonzero = [(idx, v) for idx, v in _entries(e.c11) if not v.is_zero]
    assert sorted(nonzero) == [((0, 1, 3), Poly.const(ch, Fraction(-3, 2))),
                               ((1, 0, 3), Poly.const(ch, Fraction(3, 2)))]
    expected = sorted((p + (5,), Poly.const(ch, -2 * sign))
                      for p, sign in signed_permutations((2, 0, 4)))
    assert sorted((idx, v) for idx, v in _entries(e.omega) if not v.is_zero) == expected
    for name in ("partial", "rho", "c12", "c21"):
        assert all(v.is_zero for _, v in _entries(getattr(e, name)))


def _entries(t, idx=()):
    if isinstance(t, Poly):
        return [(idx, t)]
    return [pair for i, sub in enumerate(t) for pair in _entries(sub, idx + (i,))]


def test_polynomial_values_roundtrip():
    ex = builtin_example("semidirect_poly")
    text = render_structure(ex["structure"])
    doc = json.loads(text)
    assert any(isinstance(e["val"], dict) for e in doc["mu1"])
    sf = parse_structure_file(text)
    assert sf.structure.equals(ex["structure"])


def _base_doc():
    return json.loads(render_structure(lsa3()["structure"]))


def test_rejects_bad_format_version():
    doc = _base_doc()
    doc["format_version"] = 99
    with pytest.raises(StructureFileError):
        parse_structure_file(json.dumps(doc))


def test_rejects_bad_json():
    with pytest.raises(StructureFileError):
        parse_structure_file("{not json")


def test_rejects_out_of_range_index():
    doc = _base_doc()
    doc["mu2"] = [{"idx": [4, 1], "val": 1}]
    with pytest.raises(StructureFileError):
        parse_structure_file(json.dumps(doc))


def test_rejects_antisymmetry_violation():
    doc = _base_doc()
    doc["mu3"] = [{"idx": [1, 2, 2], "val": 1}, {"idx": [2, 1, 2], "val": 1}]
    with pytest.raises(StructureFileError):
        parse_structure_file(json.dumps(doc))


def test_rejects_diagonal_alternating_slot():
    doc = _base_doc()
    doc["mu3"] = [{"idx": [1, 1, 2], "val": 1}]
    with pytest.raises(StructureFileError):
        parse_structure_file(json.dumps(doc))


def test_rejects_duplicate_slot_and_bad_rational():
    doc = _base_doc()
    doc["mu2"] = [{"idx": [1, 1], "val": 1}, {"idx": [1, 1], "val": 2}]
    with pytest.raises(StructureFileError):
        parse_structure_file(json.dumps(doc))
    doc = _base_doc()
    doc["mu2"] = [{"idx": [1, 1], "val": "3/0"}]
    with pytest.raises(StructureFileError):
        parse_structure_file(json.dumps(doc))


def test_alternating_completion_fills_mirror_slots():
    doc = _base_doc()
    doc["mu3"] = [{"idx": [1, 2, 2], "val": 1}]
    sf = parse_structure_file(json.dumps(doc))
    from splitlie2.gradedpoly import Poly

    assert sf.structure.mu3[1][0][1] == Poly.const(sf.chart, -1)


def test_unknown_slots_survive_for_solver():
    doc = _base_doc()
    doc["H"] = [{"idx": [1, 1], "val": "?"}]
    doc["K"] = [{"idx": [1, 2, 3], "val": "?"}]
    sf = parse_structure_file(json.dumps(doc))
    h, k = sf.mc_patterns()
    assert h[0][0] is None and h[1][1].is_zero
    assert k[(1, 2, 3)] is None
    with pytest.raises(StructureFileError):
        sf.mc_element()


def test_example_names_and_parameterized_lookup():
    assert "lsa3" in example_names()
    assert builtin_example("abelian(3,2)")["structure"].chart.rank1 == 3
    assert builtin_example("lsa3(7)")["k0"] == 7
    with pytest.raises(KeyError):
        builtin_example("nope")


def test_limits_admit_every_builtin():
    from splitlie2.sfile import MAX_BASE_DIM, MAX_RANK

    for name in example_names():
        ex = builtin_example(name)
        ch = ex["structure"].chart
        assert max(ch.rank1, ch.rank2) <= MAX_RANK and ch.base_dim <= MAX_BASE_DIM
        extra = mc_blocks(ex["mc"]) if ex.get("mc") else None
        sf = parse_structure_file(render_structure(ex["structure"], extra=extra))
        assert sf.structure.equals(ex["structure"])


def test_rejects_oversized_morphism_codomain():
    doc = _base_doc()
    doc["morphism"] = {"codomain": {"base_dim": 0, "rank1": 1000000000, "rank2": 1}}
    with pytest.raises(StructureFileError, match="morphism.codomain: rank1 1000000000"):
        parse_structure_file(json.dumps(doc))


@pytest.mark.parametrize("text", ["1e4299", "-1E4299", "1e-4298", "3/7", "0.25e2",
                                  "9" * 4300, "1/" + "7" * 4300])
def test_rationals_within_the_digit_limit_parse(text):
    from fractions import Fraction

    doc = _base_doc()
    doc["H"] = [{"idx": [1, 1], "val": text}]
    assert parse_structure_file(json.dumps(doc)).mc_h[0][0].terms[()] == Fraction(text)


@pytest.mark.parametrize("text", ["1e4300", "1e5000000", "1E+5000000", "1e-4300", "1e-5000000",
                                  "0e5000000", "1e" + "9" * 50, "9" * 4301, "1/" + "7" * 4301,
                                  "0." + "0" * 4300 + "1"])
def test_rationals_beyond_the_digit_limit_are_located_errors(text):
    from splitlie2.sfile import MAX_DIGITS

    doc = _base_doc()
    doc["H"] = [{"idx": [1, 1], "val": text}]
    with pytest.raises(StructureFileError, match=f"H\\[0\\]: .* {MAX_DIGITS} digits"):
        parse_structure_file(json.dumps(doc))


def test_bad_f3_rational_is_a_located_error():
    doc = _base_doc()
    ident = [[int(i == j) for j in range(3)] for i in range(3)]
    doc["morphism"] = {"f1": ident, "f2": ident, "f3": [{"idx": [1, 2, 1], "val": "abc"}]}
    with pytest.raises(StructureFileError) as err:
        parse_structure_file(json.dumps(doc))
    assert err.value.location == "morphism.f3[0]"


@pytest.mark.parametrize("f3,message", [
    ([{"idx": [1, 2, 1]}], "f3 entries are"),
    ([{"idx": [1, 2, 1], "val": 1}, {"idx": [2, 1, 1], "val": 2}, {"idx": [1, 2, 1], "val": 1}],
     "duplicate slot \\[1, 2, 1\\]"),
])
def test_f3_entries_need_a_value_and_a_slot_of_their_own(f3, message):
    doc = _base_doc()
    ident = [[int(i == j) for j in range(3)] for i in range(3)]
    doc["morphism"] = {"f1": ident, "f2": ident, "f3": f3}
    with pytest.raises(StructureFileError, match=message) as err:
        parse_structure_file(json.dumps(doc))
    assert err.value.location == f"morphism.f3[{len(f3) - 1}]"
