"""example show on names and parameters it cannot build: exit 2 with a
message located at "example", and no tensor built."""

import contextlib
import io
import json

import pytest

from splitlie2 import builtin, cli

BAD_NAMES = {
    "nosuch": "example: unknown example 'nosuch'",
    "abelian(9,1)": "example: abelian(9,1): rank1 9 exceeds the limit 8",
    "abelian(1,1,9)": "example: abelian(1,1,9): base_dim 9 exceeds the limit 8",
    "abelian(1.5)": "example: abelian(1.5): rank1 '1.5' is not a non-negative integer",
    "abelian(-1)": "example: abelian(-1): rank1 '-1' is not a non-negative integer",
    "abelian(1,1,1,1)": "example: abelian(1,1,1,1): abelian takes at most three parameters",
    "lsa3(x)": "example: lsa3(x): lsa3 takes one rational parameter",
    "lsa3(1/0)": "example: lsa3(1/0): lsa3 takes one rational parameter",
    "lsa3(1,2)": "example: lsa3(1,2): lsa3 takes one rational parameter",
    "crossed_sl2(1)": "example: example 'crossed_sl2' takes no parameters",
}


def _run(*argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["--quiet", *argv])
    return code, out.getvalue()


@pytest.mark.parametrize("name", sorted(BAD_NAMES))
def test_bad_example_is_a_located_error(monkeypatch, name):
    built = []
    for factory in ("abelian", "lsa3"):  # the builders a parameterized name calls
        original = getattr(builtin, factory)
        monkeypatch.setattr(builtin, factory, lambda *a, _f=original: built.append(a) or _f(*a))
    code, out = _run("example", "show", name)
    assert code == 2 and built == []
    assert json.loads(out)["error"].startswith(BAD_NAMES[name])


@pytest.mark.parametrize("name", ["abelian(8,1,8)", "abelian(0,2)", "lsa3(-3/2)"])
def test_example_at_the_limits_reads_back(tmp_path, name):
    code, out = _run("example", "show", name)
    assert code == 0
    path = tmp_path / "ex.json"
    path.write_text(out)
    assert _run("--file", str(path), "check-structure")[0] == 0
