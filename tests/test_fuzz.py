"""Mutation fuzz of the command line on malformed structure files.

The JSON of each non-abelian builtin is mutated with a fixed-seed stdlib
``random``: a value somewhere in the document (the canonical half of
the double is added as a subbundle first) is replaced, or a top-level
block is added, with values of the wrong type or an oversized or
undefined rational.  Each case goes through ``cli.main`` in-process.  The
property: no exception escapes, the exit code is 0, 1 or 2, exit 2 happens
exactly when ``parse_structure_file`` raises ``StructureFileError`` on the
file, every exit-2 report carries an ``error`` field, and no case hangs.
"""

import contextlib
import copy
import io
import json
import random
import time

import pytest

from splitlie2.cli import main
from splitlie2.sfile import StructureFileError, parse_structure_file

NAMES = ("lsa3", "string_sl2", "crossed_sl2", "semidirect_poly")
COMMANDS = (
    ("check-structure",),
    ("lwx-check",),
    ("dirac-check", "--strict"),
    ("hp-verify", "--count", "3"),
)
VALUES = (-1, 0, 2, True, None, [], {}, "1/0", "1e5000000", "x", [[1]], [{"idx": [1], "val": 1}])
BLOCKS = ("mu1", "mu2", "mu3", "mu4", "mu5", "H", "K", "gamma", "morphism", "subbundles",
          "lwx", "rank1", "format_version")
CASES = 300
CASE_SECONDS = 5.0  # far above any well-formed case; a parse that hangs exceeds it


def _run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return code, out.getvalue()


def _builtin_doc(name):
    """The builtin's file plus the canonical half of its double as a
    subbundle, so that dirac-check --strict has something to check."""
    doc = json.loads(_run(["example", "show", name])[1])
    r1, r2 = doc["rank1"], doc["rank2"]
    row = lambda i: [int(j == i) for j in range(r1 + r2)]
    doc["subbundles"] = {"A": {"basis1": [row(i) for i in range(r1)],
                               "basis2": [row(i) for i in range(r2)]}}
    return doc


def _paths(node, prefix=()):
    """Every (container path, key) below the root of a JSON document."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, sub in items:
        yield prefix, key
        if isinstance(sub, (dict, list)):
            yield from _paths(sub, prefix + (key,))


def _mutate(doc, rng):
    doc = copy.deepcopy(doc)
    if rng.random() < 0.25:
        doc[rng.choice(BLOCKS)] = copy.deepcopy(rng.choice(VALUES))
        return doc
    prefix, key = rng.choice(list(_paths(doc)))
    node = doc
    for k in prefix:
        node = node[k]
    node[key] = copy.deepcopy(rng.choice(VALUES))
    return doc


def test_mutated_builtins_never_crash(tmp_path):
    docs = [_builtin_doc(name) for name in NAMES]
    rng = random.Random(20201)
    path = tmp_path / "case.json"
    codes = set()
    for case in range(CASES):
        doc = _mutate(rng.choice(docs), rng)
        command = COMMANDS[case % len(COMMANDS)]
        text = json.dumps(doc)
        path.write_text(text)
        where = f"case {case} {command}: {text[:300]}"
        t0 = time.perf_counter()
        try:
            code, out = _run(["--file", str(path), "--quiet", *command])
        except Exception as exc:
            pytest.fail(f"{where}: {exc!r}")
        took = time.perf_counter() - t0
        assert code in (0, 1, 2), where
        assert took < CASE_SECONDS, where
        try:
            parse_structure_file(text)
            malformed = False
        except StructureFileError:
            malformed = True
        assert (code == 2) == malformed, where
        if code == 2:
            assert json.loads(out).get("error"), where
        codes.add(code)
    assert codes == {0, 1, 2}


def _old_parse_value(chart, v):
    """The term-at-a-time sum that _parse_value made before MAX_TERMS."""
    from splitlie2.gradedpoly import Poly, X
    from splitlie2.sfile import _rational

    acc = Poly.zero(chart)
    for exps, coeff in v.items():
        parts = [int(p) for p in exps.split(",")] if exps.strip() else []
        mono = Poly.const(chart, _rational(coeff, "test"))
        for i, p in enumerate(parts):
            for _ in range(p):
                mono = mono * Poly.var(chart, X, i + 1)
        acc = acc + mono
    return acc


def _wide_value(count, rng):
    """count distinct exponent vectors over base_dim 3, random rationals."""
    value = {}
    while len(value) < count:
        exps = ",".join(str(rng.randrange(33)) for _ in range(3))
        value[exps] = f"{rng.randint(-9, 9)}/{rng.randint(1, 4)}"
    return value


def test_value_below_the_term_cap_parses_to_the_same_poly():
    from splitlie2.gradedpoly import Chart
    from splitlie2.sfile import MAX_TERMS, _parse_value

    chart = Chart(3, 2, 1)
    rng = random.Random(7)
    values = [_wide_value(MAX_TERMS, rng), _wide_value(5, rng), {},
              # spellings of one exponent vector that cancel, then return
              {"1,0,2": "1/2", " 1,0,2": "-1/2", "0,0,0": 3, "1, 0,2": "2"}]
    for v in values:
        got, want = _parse_value(chart, v, "here"), _old_parse_value(chart, v)
        assert got == want and got.terms == want.terms


def test_value_over_the_term_cap_exits_two_quickly(tmp_path):
    # a value of 8000 terms took 0.91 s to parse term by term, and the
    # axiom checks that followed had no bound at all
    from splitlie2.sfile import MAX_TERMS

    doc = json.loads(_run(["example", "show", "lsa3"])[1])
    doc["base_dim"] = 3
    path = tmp_path / "wide.json"
    for count in (MAX_TERMS + 1, 8000):
        doc["mu3"][0]["val"] = _wide_value(count, random.Random(count))
        path.write_text(json.dumps(doc))
        t0 = time.perf_counter()
        code, out = _run(["--file", str(path), "--quiet", "check-structure"])
        assert time.perf_counter() - t0 < 1.0
        assert code == 2
        assert json.loads(out)["error"] == (
            f"structure.mu3[0]: polynomial value has {count} terms, "
            f"over the limit {MAX_TERMS}")


def test_no_builtin_or_suite_value_comes_near_the_term_cap():
    from splitlie2.builtin import builtin_example
    from splitlie2.randomsuite import structure_suite
    from splitlie2.sfile import MAX_TERMS, render_structure

    def widths(node):
        if isinstance(node, dict):
            if "idx" in node and isinstance(node["val"], dict):
                yield len(node["val"])
            for sub in node.values():
                yield from widths(sub)
        elif isinstance(node, list):
            for sub in node:
                yield from widths(sub)

    structures = [builtin_example(name)["structure"] for name in NAMES + ("abelian",)]
    structures += [s for seed in range(3) for s, _ in structure_suite(40, seed=seed)]
    widest = max(w for s in structures for w in widths(json.loads(render_structure(s))))
    assert widest * 16 <= MAX_TERMS
