import json
import os
import subprocess
import sys

import pytest

SRC = os.path.join(os.path.dirname(__file__), "..", "src")


def run_cli(*args, inputs=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, "-m", "splitlie2.cli", *args],
        capture_output=True,
        text=True,
        env=env,
    )


@pytest.fixture(scope="module")
def lsa3_file(tmp_path_factory):
    r = run_cli("example", "show", "lsa3")
    assert r.returncode == 0
    path = tmp_path_factory.mktemp("files") / "lsa3.json"
    path.write_text(r.stdout)
    return str(path)


def test_example_list():
    r = run_cli("example", "list")
    assert r.returncode == 0
    names = json.loads(r.stdout)["examples"]
    assert "lsa3" in names and "string_sl2" in names


def test_check_structure_passes(lsa3_file):
    r = run_cli("--file", lsa3_file, "--quiet", "check-structure")
    assert r.returncode == 0
    doc = json.loads(r.stdout)
    assert doc["summary"]["failed"] == 0
    assert doc["schema_version"] == "1"
    assert "bracket_convention" in doc["engine"]
    assert "input_digest" in doc and "timestamp" in doc


def test_mc_check_reports_three_zero_residuals(lsa3_file):
    r = run_cli("--file", lsa3_file, "--quiet", "mc-check")
    assert r.returncode == 0
    doc = json.loads(r.stdout)
    mc = [rep for rep in doc["reports"] if rep["title"] == "maurer-cartan"][0]
    assert [c["passed"] for c in mc["checks"]] == [True, True, True]
    assert all("residual" not in c for c in mc["checks"])


def test_determinism_modulo_timestamp(lsa3_file):
    a = json.loads(run_cli("--file", lsa3_file, "--quiet", "check-structure").stdout)
    b = json.loads(run_cli("--file", lsa3_file, "--quiet", "check-structure").stdout)
    a.pop("timestamp")
    b.pop("timestamp")
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def test_exit_code_one_on_failing_check(lsa3_file, tmp_path):
    doc = json.loads(open(lsa3_file).read())
    doc["H"] = [{"idx": [1, 1], "val": 1}, {"idx": [1, 2], "val": 1}]
    doc["K"] = [{"idx": [1, 2, 3], "val": 1}]
    path = tmp_path / "broken_mc.json"
    path.write_text(json.dumps(doc))
    r = run_cli("--file", str(path), "--quiet", "mc-check")
    assert r.returncode == 1
    out = json.loads(r.stdout)
    failing = [c for rep in out["reports"] for c in rep["checks"] if not c["passed"]]
    assert failing and all("residual" in c for c in failing)


def test_exit_code_two_on_malformed(tmp_path, lsa3_file):
    doc = json.loads(open(lsa3_file).read())
    doc["mu3"] = [{"idx": [1, 2, 2], "val": 1}, {"idx": [2, 1, 2], "val": 1}]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    r = run_cli("--file", str(path), "--quiet", "check-structure")
    assert r.returncode == 2
    assert "error" in json.loads(r.stdout)
    r2 = run_cli("--quiet", "check-structure")  # no file
    assert r2.returncode == 2


def test_mc_solve_volume_slot(lsa3_file, tmp_path):
    doc = json.loads(open(lsa3_file).read())
    doc["K"] = [{"idx": [1, 2, 3], "val": "?"}]
    path = tmp_path / "solve.json"
    path.write_text(json.dumps(doc))
    r = run_cli("--file", str(path), "--quiet", "mc-solve")
    assert r.returncode == 0
    sol = json.loads(r.stdout)["solution"]
    assert sol["dimension"] == 1 and sol["unknowns"] == ["K[1,2,3]"]


def test_twist_and_bialgebroid_and_double(lsa3_file, tmp_path):
    r = run_cli("--file", lsa3_file, "--quiet", "twist")
    assert r.returncode == 0
    gamma_block = json.loads(r.stdout)["dual_structure"]
    doc = json.loads(open(lsa3_file).read())
    doc["gamma"] = gamma_block
    path = tmp_path / "pair.json"
    path.write_text(json.dumps(doc))
    assert run_cli("--file", str(path), "--quiet", "bialgebroid-check").returncode == 0
    r = run_cli("--file", str(path), "--quiet", "double")
    assert r.returncode == 0
    assert "lwx" in json.loads(r.stdout)
    assert run_cli("--file", str(path), "--quiet", "manin-extract").returncode == 0
    r = run_cli("--file", str(path), "--quiet", "dirac-check", "--weak", "--graph")
    assert r.returncode == 0


def test_dirac_strict_canonical_halves(lsa3_file, tmp_path):
    doc = json.loads(open(lsa3_file).read())
    ident = [[1 if i == j else 0 for j in range(6)] for i in range(6)]
    doc["subbundles"] = {
        "A": {"basis1": ident[:3], "basis2": ident[:3]},
        "B": {"basis1": ident[3:], "basis2": ident[3:]},
    }
    path = tmp_path / "dirac.json"
    path.write_text(json.dumps(doc))
    r = run_cli("--file", str(path), "--quiet", "dirac-check", "--strict")
    assert r.returncode == 0
    doc2 = json.loads(r.stdout)
    assert doc2["summary"]["failed"] == 0


def test_check_filter(lsa3_file):
    r = run_cli("--file", lsa3_file, "--quiet", "--check", "nilpotency", "check-structure")
    assert r.returncode == 0
    doc = json.loads(r.stdout)
    ids = [c["id"] for rep in doc["reports"] for c in rep["checks"]]
    assert ids and all(i.startswith("nilpotency") for i in ids)


@pytest.mark.parametrize("field,value", [("rank1", 1000000000), ("rank2", 9), ("base_dim", 99)])
def test_oversized_chart_is_rejected_quickly(lsa3_file, tmp_path, field, value):
    doc = json.loads(open(lsa3_file).read())
    doc[field] = value
    _assert_rejected_quickly(tmp_path, doc, field)


def test_oversized_exponent_is_rejected_quickly(tmp_path):
    r = run_cli("example", "show", "semidirect_poly")
    doc = json.loads(r.stdout)
    entry = next(e for e in doc["mu1"] if isinstance(e["val"], dict))
    entry["val"] = {"99999999": "1"}
    _assert_rejected_quickly(tmp_path, doc, "exceeds the limit")


def _assert_rejected_quickly(tmp_path, doc, located):
    import time

    from splitlie2.cli import main

    path = tmp_path / "big.json"
    path.write_text(json.dumps(doc))
    r = run_cli("--file", str(path), "--quiet", "check-structure")
    assert r.returncode == 2 and r.stderr == ""
    assert located in json.loads(r.stdout)["error"]
    t0 = time.perf_counter()
    assert main(["--file", str(path), "--quiet", "check-structure"]) == 2
    assert time.perf_counter() - t0 < 1.0
