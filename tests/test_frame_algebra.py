"""The constant-frame algebra against its copies in ``leibniz_oracle``.

``linalg`` runs one elimination loop for ``rank``, ``invert`` and
``solve_affine``; ``lwx.polyvec_expander`` row-reduces a basis once instead
of once per monomial; ``lwx.pairing_gram`` replaces the inline pairing
sums; and ``check_morphism`` reads frame tables.  Each is compared exactly
with the code it replaced, on valid and failing inputs.
"""

import random
from fractions import Fraction

import pytest

import leibniz_oracle as oracle
from splitlie2 import linalg, multivectors
from splitlie2.builtin import builtin_example, example_names
from splitlie2.cli import main
from splitlie2.gradedpoly import Chart, Poly
from splitlie2.lwx import (
    LWXOps,
    Subbundle,
    build_double,
    build_graph,
    check_strict_dirac,
    check_weak_dirac,
    extract_bialgebroid,
    LWXStructure,
    graph_morphism_data,
    hyperbolic_pairing,
    pairing_gram,
    polyvec_expander,
)
from splitlie2.randomsuite import _random_invertible, structure_suite
from splitlie2.sfile import mc_blocks, render_structure
from splitlie2.structures import (
    Lie2Ops,
    MorphismData,
    check_morphism,
    frame_change,
    transport,
)
from splitlie2.twisting import BialgebroidPair


def lwx_transport(e: LWXStructure, t1, t2) -> LWXStructure:
    """Structure tensors of a double in new frames (rows of t1, t2); the
    pairing of the new frames must again be the canonical hyperbolic one."""
    t = frame_change(LWXOps(e), t1, t2)
    pairing = hyperbolic_pairing(e.chart.rank1, e.chart.rank2)
    if pairing_gram(t1, e.pairing, t2) != pairing:
        raise ValueError("frame change does not preserve the canonical pairing")
    return LWXStructure(e.chart, t.l1, t.anchor, t.l11, t.l12, t.l21, t.l3, pairing)


def _rational(rng):
    return Fraction(rng.randint(-3, 3), rng.randint(1, 3)) if rng.random() < 0.6 else Fraction(0)


def _system(rng):
    """A random rational matrix (0-6 rows and columns) with, at random,
    repeated, scaled or summed rows, and a right-hand side in or out of the
    column span."""
    nrow, ncol = rng.randint(0, 6), rng.randint(0, 6)
    rows = [[_rational(rng) for _ in range(ncol)] for _ in range(nrow)]
    for i in range(1, nrow):
        roll = rng.random()
        if roll < 0.2:
            rows[i] = [rng.randint(-2, 2) * v for v in rows[rng.randrange(i)]]
        elif roll < 0.3:
            a, b = rng.randrange(i), rng.randrange(i)
            rows[i] = [u + v for u, v in zip(rows[a], rows[b])]
    x = [_rational(rng) for _ in range(ncol)]
    b = [sum((r[j] * x[j] for j in range(ncol)), Fraction(0)) for r in rows]
    if nrow and rng.random() < 0.4:
        b[rng.randrange(nrow)] += rng.randint(1, 3)
    return rows, b


def test_linalg_matches_the_separate_elimination_loops():
    rng = random.Random(16)
    seen = {"singular": 0, "inconsistent": 0, "rank drop": 0}
    for _ in range(6000):
        rows, b = _system(rng)
        assert linalg.rank(rows) == oracle.rank(rows)
        assert linalg.solve_affine(rows, b) == oracle.solve_affine(rows, b)
        square = [r[:len(rows)] for r in rows] if rows and len(rows[0]) >= len(rows) else []
        assert linalg.invert(square) == oracle.invert(square)
        vectors = [list(col) for col in zip(*rows)]  # the columns as basis vectors
        if rows:
            assert linalg.in_span(vectors, b) == oracle.in_span(vectors, b)
            assert linalg.expand_in_basis(vectors, b) == oracle.expand_in_basis(vectors, b)
        seen["singular"] += square != [] and oracle.invert(square) is None
        seen["inconsistent"] += oracle.solve_affine(rows, b) is None
        seen["rank drop"] += oracle.rank(rows) < min(len(rows), len(rows[0]) if rows else 0)
    assert min(seen.values()) > 300


def _poly(rng, ch):
    terms = {}
    for _ in range(rng.randint(0, 3)):
        mono = tuple((1, i + 1, e) for i in range(ch.base_dim) if (e := rng.randint(0, 2)))
        terms[mono] = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
    return Poly(ch, terms)


@pytest.mark.parametrize("seed", range(8))
def test_polyvec_expander_matches_the_per_monomial_expansion(seed):
    """Bases with repeated and zero vectors included; vectors inside the
    span, and vectors with one entry moved off it."""
    rng = random.Random(seed)
    ch = Chart(2, 2, 2)
    outcomes = set()
    for _ in range(40):
        d, k = rng.randint(1, 5), rng.randint(0, 5)
        basis = [[_rational(rng) for _ in range(d)] for _ in range(k)]
        if k >= 2 and rng.random() < 0.4:
            basis[-1] = [2 * v for v in basis[0]]
        expand = polyvec_expander(basis, d, ch)
        for _ in range(6):
            coeffs = [_poly(rng, ch) for _ in range(k)]
            vec = [sum((c * b[a] for c, b in zip(coeffs, basis)), Poly.zero(ch))
                   for a in range(d)]
            if rng.random() < 0.4:
                vec[rng.randrange(d)] += _poly(rng, ch)
            want = oracle.polyvec_expand(basis, vec, ch)
            assert expand(vec) == want
            outcomes.add(want is None)
    assert outcomes == {True, False}


def _skew_pair(r1, r2c):
    f3 = [[[Fraction(0)] * r2c for _ in range(r1)] for _ in range(r1)]
    if r1 >= 2 and r2c:
        f3[0][1][0], f3[1][0][0] = Fraction(1, 2), Fraction(-1, 2)
    return f3


def _random_f3(rng, r1, r2c):
    return [[[_rational(rng) for _ in range(r2c)] for _ in range(r1)] for _ in range(r1)]


def _morphism_cases():
    """(label, fdata, dom_ops, cod_ops): builtin identities with and without
    a skew F3 pair, frame-change isomorphisms of structure_suite(40, 11) with
    and without a random F3, and the lsa3 and string_sl2 graph morphisms
    with and without one F1 entry bumped."""
    cases = []
    for name in example_names():
        s = builtin_example(name)["structure"]
        ident = MorphismData.identity(s.chart)
        ops = Lie2Ops(s)
        cases.append((f"{name} identity", ident, ops, ops))
        skew = MorphismData(ident.f1, ident.f2, _skew_pair(s.chart.rank1, s.chart.rank2))
        cases.append((f"{name} skew", skew, ops, ops))
    rng = random.Random(11)
    for t, (s, _) in enumerate(structure_suite(40, seed=11)):
        r1, r2 = s.chart.rank1, s.chart.rank2
        t1, t2 = _random_invertible(rng, r1), _random_invertible(rng, r2)
        moved = transport(s, t1, t2)
        f1 = [list(col) for col in zip(*t1)] if r1 else []
        f2 = [list(col) for col in zip(*t2)] if r2 else []
        zero = [[[Fraction(0)] * r2 for _ in range(r1)] for _ in range(r1)]
        dom, cod = Lie2Ops(moved), Lie2Ops(s)
        cases.append((f"suite[{t}] iso", MorphismData(f1, f2, zero), dom, cod))
        cases.append((f"suite[{t}] f3", MorphismData(f1, f2, _random_f3(rng, r1, r2)), dom, cod))
    for name in ("lsa3", "string_sl2"):
        ex = builtin_example(name)
        pair = BialgebroidPair.abelian(ex["structure"])
        e, _ = build_double(pair, cross_check=False)
        graph, carried, _ = build_graph(pair, ex["mc"])
        fdata = graph_morphism_data(e, graph)
        dom, cod = Lie2Ops(carried), LWXOps(e)
        cases.append((f"{name} graph", fdata, dom, cod))
        f1 = [list(row) for row in fdata.f1]
        f1[0][0] += 1
        cases.append((f"{name} graph bumped", MorphismData(f1, fdata.f2, fdata.f3), dom, cod))
    return cases


MORPHISM_CASES = _morphism_cases()


def test_check_morphism_matches_the_fresh_evaluations():
    failing = 0
    for label, fdata, dom, cod in MORPHISM_CASES:
        new = check_morphism(fdata, dom, cod).to_dict()
        assert new == oracle.check_morphism(fdata, dom, cod).to_dict(), label
        failing += new["summary"]["failed"]
    assert len(MORPHISM_CASES) == 94
    assert failing > 300


def test_check_morphism_matches_on_a_double_as_domain():
    """On the unit frames of a double the two mixed orders agree (their
    difference is D of a constant pairing), so one c21 entry is bumped:
    each table entry must then be read in its own order."""
    e = _lsa3_double()
    e.c21[0][0] = [c + int(q == 1) for q, c in enumerate(e.c21[0][0])]
    ops = LWXOps(e)
    ident = MorphismData.identity(Chart(0, e.d1, e.d2))
    rng = random.Random(7)
    for f3 in (ident.f3, _random_f3(rng, e.d1, e.d2)):
        fdata = MorphismData(ident.f1, ident.f2, f3)
        new = check_morphism(fdata, ops, ops).to_dict()
        assert new == oracle.check_morphism(fdata, ops, ops).to_dict()
    assert new["summary"]["failed"]


def _outcome(fn, *args):
    """The reports and structures a check returns, or its error."""
    try:
        out = fn(*args)
    except ValueError as exc:
        return ("error", str(exc))
    parts = out if isinstance(out, tuple) else (out,)
    return tuple(p.to_dict() if hasattr(p, "to_dict") else p for p in parts)


def _same_structures(a, b):
    if hasattr(a, "equals"):
        return a.equals(b)
    if isinstance(a, BialgebroidPair):
        return a.s.equals(b.s) and a.dual.equals(b.dual)
    return a == b


def _assert_same(new, old):
    assert len(new) == len(old)
    for a, b in zip(new, old):
        assert _same_structures(a, b)


def _lsa3_double():
    ex = builtin_example("lsa3")
    pair = BialgebroidPair.from_twist(ex["structure"], ex["mc"])
    e, _ = build_double(pair, cross_check=False)
    return e


def _tilted_half(e, k):
    """The first canonical half with its first degree -1 vector moved by k
    along the dual frame: isotropic only for k = 0."""
    half = Subbundle.canonical_half(e.chart)
    b1 = [list(v) for v in half.basis1]
    b1[0][e.chart.rank1] += k
    return Subbundle(b1, half.basis2)


@pytest.mark.parametrize("k", [0, 1, Fraction(-2, 3)])
def test_strict_and_manin_flags_match_on_tilted_halves(k):
    e = _lsa3_double()
    sub = _tilted_half(e, k)
    new = _outcome(check_strict_dirac, e, sub)
    _assert_same(new, _outcome(oracle.check_strict_dirac, e, sub))
    iso = [c["passed"] for c in new[0]["checks"] if c["id"] == "dirac.isotropic"]
    assert iso == [k == 0]
    dual = Subbundle.canonical_dual_half(e.chart)
    for a, b in ((sub, dual), (dual, sub)):
        _assert_same(_outcome(extract_bialgebroid, e, a, b),
                     _outcome(oracle.extract_bialgebroid, e, a, b))


def test_manin_extraction_matches_on_a_scrambled_second_half():
    e = _lsa3_double()
    rng = random.Random(3)
    dual = Subbundle.canonical_dual_half(e.chart)
    mul = lambda a, b: [[sum(a[i][q] * b[q][j] for q in range(len(b))) for j in range(len(b[0]))]
                        for i in range(len(a))]
    sub_b = Subbundle(mul(_random_invertible(rng, len(dual.basis1)), dual.basis1),
                      mul(_random_invertible(rng, len(dual.basis2)), dual.basis2))
    sub_a = Subbundle.canonical_half(e.chart)
    new = _outcome(extract_bialgebroid, e, sub_a, sub_b)
    assert new[0] != "error"
    _assert_same(new, _outcome(oracle.extract_bialgebroid, e, sub_a, sub_b))


@pytest.mark.parametrize("name", ["lsa3", "string_sl2"])
def test_weak_flags_match_on_graph_and_tilted_images(name):
    ex = builtin_example(name)
    pair = BialgebroidPair.abelian(ex["structure"])
    e, _ = build_double(pair, cross_check=False)
    graph, carried, _ = build_graph(pair, ex["mc"])
    fdata = graph_morphism_data(e, graph)
    r1 = e.chart.rank1
    verdicts = []
    for k in (0, 1, 3):
        f1 = [list(row) for row in fdata.f1]
        f1[r1][0] += k  # moves the first image along the dual frame
        tilted = MorphismData(f1, fdata.f2, fdata.f3)
        new = _outcome(check_weak_dirac, e, carried, tilted)
        assert new == _outcome(oracle.check_weak_dirac, e, carried, tilted)
        verdicts += [c["passed"] for c in new[0]["checks"] if c["id"] == "weak.isotropic"]
    assert verdicts[0] and not all(verdicts)


def test_lwx_transport_rejects_the_same_frames_as_before():
    e = _lsa3_double()
    rng = random.Random(5)
    d = e.d1
    t1 = _random_invertible(rng, d)
    unit = [[Fraction(int(i == j)) for j in range(d)] for i in range(d)]
    for t2 in (t1, unit, _random_invertible(rng, d)):
        new = _outcome(lwx_transport, e, t1, t2)
        assert new == ("error", "frame change does not preserve the canonical pairing")
        assert _outcome(oracle.lwx_transport, e, t1, t2) == new
    assert lwx_transport(e, unit, unit).equals(oracle.lwx_transport(e, unit, unit))


@pytest.mark.parametrize("with_mc,builds", [(False, 1), (True, 1)])
def test_bialgebroid_check_shares_the_pair_salgebra(tmp_path, monkeypatch, capsys,
                                                     with_mc, builds):
    """check_bialgebroid, relative_mc_residual and the twist_gamma that
    lambda_nilpotency runs read the pair's SAlgebra, which also makes the
    file's trivial dual: one build."""
    ex = builtin_example("lsa3")
    path = tmp_path / "lsa3.json"
    path.write_text(render_structure(ex["structure"], mc_blocks(ex["mc"]) if with_mc else None))
    built = []
    init = multivectors.SAlgebra.__init__

    def counting(self, s):
        built.append(s)
        init(self, s)

    monkeypatch.setattr(multivectors.SAlgebra, "__init__", counting)
    assert main(["--quiet", "--file", str(path), "bialgebroid-check"]) == 0
    capsys.readouterr()
    assert len(built) == builds
