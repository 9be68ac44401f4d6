"""SAlgebra constructions per command on the file that example show lsa3
writes (lsa3 with its degree-3 element, no dual, so the pair is the
abelian one).  The twist route takes the algebra its caller built, so a
command builds one algebra per structure it brackets in: the file's
structure (the pair's algebra, which also makes the trivial dual), the
dual half of a double, and in manin-extract the extracted pair and the
dual half of its double.

BRACKETS counts the poisson_bracket calls per command on the same file,
through the references of the modules that import it (the calls inside
bracket.py, such as derived_table's, are not counted).  SAlgebra.d_part
goes through the algebra's memo, so a repeated {mu121, p} is one call."""

import contextlib
import io

import pytest

from splitlie2 import cli, cochains, lwx, multivectors, twisting

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
    "twist": 58,
    "mc-check": 11,
    "bialgebroid-check": 267,
    "dirac-check --weak --graph": 52,
    "manin-extract": 81,
    "double": 76,
    "lwx-check": 76,
}


@pytest.mark.parametrize("command", sorted(BRACKETS))
def test_brackets_per_command(monkeypatch, lsa3_file, command):
    calls = []
    bracket = multivectors.poisson_bracket

    def counting(p, q):
        calls.append(None)
        return bracket(p, q)

    for module in (cochains, lwx, multivectors, twisting):
        monkeypatch.setattr(module, "poisson_bracket", counting)
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["--quiet", "--file", lsa3_file, *command.split()]) == 0
    assert len(calls) == BRACKETS[command]
