"""SAlgebra constructions per command on the file that example show lsa3
writes (lsa3 with its degree-3 element, no dual, so the pair is the
abelian one).  The twist route takes the algebra its caller built, so a
command builds one algebra per structure it brackets in: the file's
structure (the pair's algebra, which also makes the trivial dual), the
dual half of a double, and in manin-extract the extracted pair and the
dual half of its double.

BRACKETS counts the poisson_bracket calls per command on the same file,
through the references of the modules that import it (the calls inside
bracket.py, such as derived_table's, are not counted), and
TWISTED_BRACKETS on lsa3 with the dual its degree-3 element induces (a
gamma block, written as the benchmark writes it).  Every bracket whose
first argument is a generating function goes through a memo, the
algebra's or the pair's, so a repeated {mu121, p} or {gamma, p} is one
call."""

import contextlib
import io

import pytest

from splitlie2 import cli, cochains, lwx, multivectors, twisting
from splitlie2.builtin import builtin_example
from splitlie2.sfile import dual_block, mc_blocks, render_structure

COUNTS = {
    "twist": 1,
    "mc-check": 1,
    "bialgebroid-check": 1,
    "dirac-check --weak --graph": 2,
    "manin-extract": 4,
    "double": 2,
    "lwx-check": 2,
}


@pytest.fixture(scope="module")
def lsa3_file(tmp_path_factory):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(["example", "show", "lsa3"]) == 0
    path = tmp_path_factory.mktemp("count") / "lsa3.json"
    path.write_text(out.getvalue())
    return str(path)


@pytest.mark.parametrize("command", sorted(COUNTS))
def test_algebras_built_per_command(monkeypatch, lsa3_file, command):
    built = []
    init = multivectors.SAlgebra.__init__

    def counting(self, s):
        built.append(s)
        init(self, s)

    monkeypatch.setattr(multivectors.SAlgebra, "__init__", counting)
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["--quiet", "--file", lsa3_file, *command.split()]) == 0
    assert len(built) == COUNTS[command]


BRACKETS = {
    "twist": 55,
    "mc-check": 6,
    "bialgebroid-check": 64,
    "dirac-check --weak --graph": 46,
    "manin-extract": 81,
    "double": 76,
    "lwx-check": 76,
}

TWISTED_BRACKETS = {
    "twist": 55,
    "mc-check": 6,
    "bialgebroid-check": 263,
    "dirac-check --weak --graph": 118,
    "manin-extract": 219,
    "double": 145,
    "lwx-check": 145,
}


@pytest.fixture(scope="module")
def twisted_lsa3_file(tmp_path_factory):
    ex = builtin_example("lsa3")
    pair = twisting.BialgebroidPair.from_twist(ex["structure"], ex["mc"])
    text = render_structure(ex["structure"],
                            extra={**mc_blocks(ex["mc"]), "gamma": dual_block(pair.dual)})
    path = tmp_path_factory.mktemp("count") / "lsa3-twisted.json"
    path.write_text(text)
    return str(path)


def _brackets(monkeypatch, path, command):
    calls = []
    bracket = multivectors.poisson_bracket

    def counting(p, q):
        calls.append(None)
        return bracket(p, q)

    for module in (cochains, lwx, multivectors, twisting):
        monkeypatch.setattr(module, "poisson_bracket", counting)
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["--quiet", "--file", path, *command.split()]) == 0
    return len(calls)


@pytest.mark.parametrize("command", sorted(BRACKETS))
def test_brackets_per_command(monkeypatch, lsa3_file, command):
    assert _brackets(monkeypatch, lsa3_file, command) == BRACKETS[command]


@pytest.mark.parametrize("command", sorted(TWISTED_BRACKETS))
def test_brackets_per_command_on_a_twisted_pair(monkeypatch, twisted_lsa3_file, command):
    assert _brackets(monkeypatch, twisted_lsa3_file, command) == TWISTED_BRACKETS[command]
