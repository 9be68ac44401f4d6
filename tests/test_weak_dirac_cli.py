"""dirac-check --weak on a morphism block into the file's double, and the
one-build shape of the command runner, through cli.main in process."""

import contextlib
import io
import json

import pytest

from splitlie2 import cli, structures, twisting
from splitlie2.builtin import builtin_example, example_names
from splitlie2.sfile import mc_blocks, structure_block


def _run(*argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(["--quiet", *argv])
    return code, json.loads(out.getvalue()), err.getvalue()


def _inclusion(r, d):
    """[I; 0]: the first r frame vectors of a frame of d vectors."""
    return [[int(a == i) for i in range(r)] for a in range(d)]


def _file(tmp_path, name, morphism):
    doc = structure_block(builtin_example(name)["structure"], {"morphism": morphism})
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(doc))
    return str(path)


def _inclusion_block(name):
    ch = builtin_example(name)["structure"].chart
    d = ch.rank1 + ch.rank2
    return {"codomain": "double", "f1": _inclusion(ch.rank1, d),
            "f2": _inclusion(ch.rank2, d), "f3": []}


@pytest.mark.parametrize("name", example_names())
def test_inclusion_into_the_double_is_weak_dirac(tmp_path, name):
    code, doc, err = _run("--file", _file(tmp_path, name, _inclusion_block(name)),
                          "dirac-check", "--weak")
    assert code == 0 and err == ""
    ids = [c["id"] for rep in doc["reports"] for c in rep["checks"]]
    assert "weak.isotropic" in ids and any(i.startswith("morphism.") for i in ids)


def test_tilted_inclusion_is_not_isotropic(tmp_path):
    block = _inclusion_block("lsa3")
    block["f1"][3][0] = 1  # E_1 -> E_1 + the first dual frame vector
    code, doc, _ = _run("--file", _file(tmp_path, "lsa3", block), "dirac-check", "--weak")
    assert code == 1
    failed = [c["id"] for rep in doc["reports"] for c in rep["checks"] if not c["passed"]]
    assert "weak.isotropic" in failed


def test_weak_check_on_a_morphism_into_the_structure_is_a_located_error(tmp_path):
    ident = [[int(i == j) for j in range(3)] for i in range(3)]
    path = _file(tmp_path, "lsa3", {"codomain": "self", "f1": ident, "f2": ident})
    code, doc, err = _run("--file", path, "dirac-check", "--weak")
    assert (code, err) == (2, "")
    assert doc["error"].startswith("morphism: ")


def test_check_morphism_on_a_double_codomain_is_a_located_error(tmp_path):
    code, doc, err = _run("--file", _file(tmp_path, "lsa3", _inclusion_block("lsa3")),
                          "check-morphism")
    assert (code, err) == (2, "")
    assert doc["error"].startswith("morphism: ")


def test_double_codomain_shapes_are_located(tmp_path):
    block = _inclusion_block("lsa3")
    block["f3"] = [{"idx": [1, 2, 7], "val": 1}]
    code, doc, _ = _run("--file", _file(tmp_path, "lsa3", block), "dirac-check", "--weak")
    assert code == 2 and doc["error"] == "morphism.f3[0]: f3 index out of range"
    block["f3"] = [{"idx": [1, 2, 6], "val": 1}]  # the last vector of the double's frame
    code, doc, _ = _run("--file", _file(tmp_path, "lsa3", block), "dirac-check", "--weak")
    failed = [c["id"] for rep in doc["reports"] for c in rep["checks"] if not c["passed"]]
    assert code == 1 and failed and all(i.startswith("morphism.") for i in failed)
    block["f1"] = _inclusion(3, 3)
    code, doc, _ = _run("--file", _file(tmp_path, "lsa3", block), "dirac-check", "--weak")
    assert code == 2 and doc["error"] == "morphism: f1 must be 6x3"


def _counted(monkeypatch, owners, name):
    calls = []
    original = getattr(owners[0], name)

    def wrapper(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    for owner in owners:
        monkeypatch.setattr(owner, name, wrapper)
    return calls


@pytest.mark.parametrize("with_lwx", [False, True])
def test_weak_graph_check_builds_one_pair(tmp_path, monkeypatch, with_lwx):
    ex = builtin_example("lsa3")
    blocks = mc_blocks(ex["mc"])
    path = tmp_path / "lsa3.json"
    path.write_text(json.dumps(structure_block(ex["structure"], blocks)))
    if with_lwx:
        _, doc, _ = _run("--file", str(path), "double")
        path.write_text(json.dumps(structure_block(ex["structure"],
                                                   {**blocks, "lwx": doc["lwx"]})))
    calls = _counted(monkeypatch, [twisting.BialgebroidPair], "__init__")
    code, _, _ = _run("--file", str(path), "dirac-check", "--weak", "--graph")
    assert code == 0 and len(calls) == 1


def test_check_structure_encodes_mu_once(tmp_path, monkeypatch):
    path = tmp_path / "lsa3.json"
    path.write_text(json.dumps(structure_block(builtin_example("lsa3")["structure"])))
    calls = _counted(monkeypatch, [structures, cli], "encode_mu")
    assert _run("--file", str(path), "check-structure")[0] == 0
    assert len(calls) == 1


@pytest.mark.parametrize("mode", [["--strict"], ["--weak"], ["--weak", "--graph"]])
def test_dirac_check_without_its_block_builds_no_double(tmp_path, monkeypatch, mode):
    """A file with no subbundles, morphism or degree-3 element block ends in
    a located exit 2 before the double is built."""
    path = tmp_path / "lsa3.json"
    path.write_text(json.dumps(structure_block(builtin_example("lsa3")["structure"])))
    calls = _counted(monkeypatch, [cli], "build_double")
    code, doc, err = _run("--file", str(path), "dirac-check", *mode)
    assert (code, err, calls) == (2, "", [])
    assert doc["error"].split(":")[0] in {"subbundles", "morphism", "H"}
