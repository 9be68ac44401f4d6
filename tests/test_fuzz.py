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
