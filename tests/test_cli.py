import contextlib
import hashlib
import io
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


def _read_doc(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


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


# Exit code and sha256 of the report (timestamp removed, keys sorted) of
# each case of golden_report_digests, recorded with the Fraction-only
# coefficients and the flattened-monomial bracket kernel that the current
# engine replaced.  A passing report carries no residual, so its digest
# pins check ids and verdicts only (seeds 1 and 2 agree); the perturbed
# entries cover failing residuals with non-integral coefficients.
GOLDEN_DIGESTS = {
    "example run-all":
        "0:3d90df100bced845d8cf59a647fe185b5125544b308175639fbb0b5a90f3ecf5",
    "hp-verify --count 20 --seed 1 abelian":
        "0:bcaf0b96108040811d6f74477c87bbea2f825061f3fda8058ca48b25d01d67da",
    "hp-verify --count 20 --seed 2 abelian":
        "0:bcaf0b96108040811d6f74477c87bbea2f825061f3fda8058ca48b25d01d67da",
    "calculus-identities 10 --seed 5 abelian":
        "0:cb3480b5788ec0ec6cc64b6765e89f0716f547e893f3991ab1e44f0df5b090f7",
    "hp-verify --count 20 --seed 1 crossed_sl2":
        "0:954bd56c781c758f60923593a2a08ea41b9f26da60860b36c78e532c5066faf7",
    "hp-verify --count 20 --seed 2 crossed_sl2":
        "0:954bd56c781c758f60923593a2a08ea41b9f26da60860b36c78e532c5066faf7",
    "calculus-identities 10 --seed 5 crossed_sl2":
        "0:f033ae4cf266d1c124906d8caa6ad8605ac3371efb108a6248117264babb20f5",
    "hp-verify --count 20 --seed 1 lsa3":
        "0:4d1edbe87e98ece2a7e451cfd3ecf2f62a18debf3161e06018601f6710d939f0",
    "hp-verify --count 20 --seed 2 lsa3":
        "0:4d1edbe87e98ece2a7e451cfd3ecf2f62a18debf3161e06018601f6710d939f0",
    "calculus-identities 10 --seed 5 lsa3":
        "0:352e65c257dea46d26663ded26d66cd418d91ce5dedfd861a209657988855782",
    "hp-verify --count 20 --seed 1 semidirect_poly":
        "0:efbce9cdf62bf4c0234b0310a242867d69569be5fd4b93c2551e65eaf3d7c111",
    "hp-verify --count 20 --seed 2 semidirect_poly":
        "0:efbce9cdf62bf4c0234b0310a242867d69569be5fd4b93c2551e65eaf3d7c111",
    "calculus-identities 10 --seed 5 semidirect_poly":
        "0:3aefd4d7212a8b00fa6266992e4ac1ac8937c52eef47ba5bf239a7499a6fc79e",
    "hp-verify --count 20 --seed 1 string_sl2":
        "0:bc0465a8f17453f4c50a55534257db4e8aed202aa013f458eebedcb18138f16b",
    "hp-verify --count 20 --seed 2 string_sl2":
        "0:bc0465a8f17453f4c50a55534257db4e8aed202aa013f458eebedcb18138f16b",
    "calculus-identities 10 --seed 5 string_sl2":
        "0:71df940e92a8069e28581e4d4ae94d3cf98bcd5cafe67a0d1113fcda3f459560",
    "check-structure perturbed[11]":
        "1:562a9112b9958807e4179f66bf103332ac2f371a5e5b293bf828b8fd5cfaf6ad",
    "hp-verify --count 20 perturbed[11]":
        "1:a06e09a2e3f7b56253f68e08d5b19e63dee6b45b917f9325c204fc2b6e2cfbea",
    "check-structure perturbed[21]":
        "1:45a7e8ba63aa431438a6f931dd4734f672de748211ecb900622f8eb2c3eb8a26",
    "hp-verify --count 20 perturbed[21]":
        "1:8bb53c93dc9df5a34f5919832f49a78192daa10c10b41a62fe24311f4c5311d4",
    # a failing rank2 = 1 entry (base_dim 1): its residuals depend on every
    # multivector drawn, so the bytes pin the draws of terms that cannot
    # be finished; recorded with the randint/choice sampler
    "hp-verify --count 20 perturbed[17]":
        "1:a446fc1ef349a1e17b4fb1ae9696593b6065484b2f656b75024e5db3a551901e",
}


def _body_digest(body):
    body.pop("timestamp", None)
    return hashlib.sha256(json.dumps(body, sort_keys=True).encode()).hexdigest()


def _cli_digest(*argv):
    from splitlie2.cli import main

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(["--quiet", *argv])
    return f"{code}:{_body_digest(json.loads(buf.getvalue()))}"


def golden_report_digests(workdir):
    """Report digest of every golden case, keyed by a readable label."""
    from splitlie2.builtin import builtin_example, example_names
    from splitlie2.cochains import verify_calculus_identities
    from splitlie2.randomsuite import structure_suite
    from splitlie2.sfile import render_structure

    def write(label, s):
        path = os.path.join(str(workdir), f"{label}.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(render_structure(s))
        return path

    out = {"example run-all": _cli_digest("example", "run-all")}
    for name in example_names():
        s = builtin_example(name)["structure"]
        path = write(name, s)
        for seed in (1, 2):
            out[f"hp-verify --count 20 --seed {seed} {name}"] = _cli_digest(
                "--file", path, "--count", "20", "--seed", str(seed), "hp-verify")
        rep = verify_calculus_identities(s, 10, 5)
        out[f"calculus-identities 10 --seed 5 {name}"] = (
            f"{int(not rep.passed)}:{_body_digest(rep.to_dict())}")
    suite = structure_suite(22, seed=3)
    for t in (11, 21):
        path = write(f"perturbed{t}", suite[t][0])
        out[f"check-structure perturbed[{t}]"] = _cli_digest("--file", path, "check-structure")
        out[f"hp-verify --count 20 perturbed[{t}]"] = _cli_digest(
            "--file", path, "--count", "20", "hp-verify")
    path = write("perturbed17", suite[17][0])
    out["hp-verify --count 20 perturbed[17]"] = _cli_digest(
        "--file", path, "--count", "20", "hp-verify")
    return out


# Exit code and sha256 of the raw stdout, with the timestamp line removed,
# recorded with json.dumps(indent=2) as the printer.  GOLDEN_DIGESTS hashes
# parsed bodies and cannot see indentation, separators or key order.
RAW_DIGESTS = {
    "example run-all":
        "0:539a77faad886a9a5255733dcb37813b811b4c872ca10c778944658a925afaf8",
    "example list":
        "0:80467c71609e16e388f00d9169545a44038cb9ce5a3250a5f86889f9000e5b56",
    "example show lsa3":
        "0:363b31ab563aec21c21d946f504e5331ec268443496157be697e34bcdb24cc2c",
    "check-structure perturbed[11]":
        "1:370f8359967105c94cafd66a70b440fdde2b27f44170202f945204a05e4c9acc",
    "hp-verify --count 20 perturbed[17]":
        "1:511439dfe41d72235457212f5cb7e85b7643f352fd0f168c0ebafc0782932042",
    "twist lsa3":
        "0:db251fc1f3e25364826e14befe249d64122a2a89d9bd1249c2b589200cf3c7aa",
    "manin-extract lsa3":
        "0:559195cf39c6b23d532531c9a6955c67f828f7f46e343144512333ba212fe3ca",
    "manin-extract lsa3+gamma":
        "0:0b792c4ce90e08bcc2d55a2845540fac6afe2bb4ae03ebd82ab9b59130a27892",
    "check-structure mu2=-1":
        "2:f5e1ec2758bc44ec47dcc5c6e1b71245ae31c43a6c1c1e9baaf2ac986f3e12b8",
}


def _raw_digest(*argv):
    from splitlie2.cli import main

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(["--quiet", *argv])
    kept = [line for line in buf.getvalue().splitlines(keepends=True)
            if not line.startswith('  "timestamp": ')]
    return f"{code}:{hashlib.sha256(''.join(kept).encode()).hexdigest()}"


def raw_report_digests(workdir, lsa3_file):
    """Raw-stdout digest of every printer case, keyed by a readable label."""
    from splitlie2.randomsuite import structure_suite
    from splitlie2.sfile import render_structure

    def write(label, text):
        path = os.path.join(str(workdir), f"{label}.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        return path

    suite = structure_suite(22, seed=3)
    p11 = write("perturbed11", render_structure(suite[11][0]))
    p17 = write("perturbed17", render_structure(suite[17][0]))
    doc = _read_doc(lsa3_file)
    twist_out = io.StringIO()
    with contextlib.redirect_stdout(twist_out):
        from splitlie2.cli import main

        main(["--quiet", "--file", lsa3_file, "twist"])
    doc["gamma"] = json.loads(twist_out.getvalue())["dual_structure"]
    pair = write("lsa3_pair", json.dumps(doc))
    doc = _read_doc(lsa3_file)
    doc["mu2"] = -1
    bad = write("bad", json.dumps(doc))
    return {
        "example run-all": _raw_digest("example", "run-all"),
        "example list": _raw_digest("example", "list"),
        "example show lsa3": _raw_digest("example", "show", "lsa3"),
        "check-structure perturbed[11]": _raw_digest("--file", p11, "check-structure"),
        "hp-verify --count 20 perturbed[17]":
            _raw_digest("--file", p17, "--count", "20", "hp-verify"),
        "twist lsa3": _raw_digest("--file", lsa3_file, "twist"),
        "manin-extract lsa3": _raw_digest("--file", lsa3_file, "manin-extract"),
        "manin-extract lsa3+gamma": _raw_digest("--file", pair, "manin-extract"),
        "check-structure mu2=-1": _raw_digest("--file", bad, "check-structure"),
    }


def test_raw_report_bytes_are_pinned(lsa3_file, tmp_path):
    assert raw_report_digests(tmp_path, lsa3_file) == RAW_DIGESTS


def _nest(leaf, depth):
    for i in range(depth):
        leaf = {"k": leaf} if i % 2 else [leaf]
    return leaf


PRINTER_CASES = [
    *[_nest(empty, d) for empty in ({}, []) for d in range(5)],
    [{}, [], {"a": []}, [[], {}]],
    {"a": {"b": {}}, "c": [[], [{}]], "d": 1},
    "café ✓ \U0001d11e", ["\n\t\r\x00\x1f\x7f \"\\ /", {"é\n": "\x08"}],
    {"é": ["é"], "line\nbreak": {"x": "tab\there"}},
    [True, False, None], {"t": True, "f": False, "n": None},
    [-1, 0, -(10 ** 300), 10 ** 4000], {"neg": -7, "big": [2 ** 200, {"b": -2 ** 64}]},
    {1: "int", 2.5: "float", True: "bool", None: "none", -3: [1], 0: {1: 2}},
    [1.5, -0.0, 1e300, float("inf"), float("nan")], {"f": [0.1, {"g": 2.5e-10}]},
    ("tuple", ("nested", ()), {"t": (1, 2)}),
    [[[1, 2], [3]], {"x": [[4]]}],
    {"reports": [{"title": "t", "meta": {}, "checks": [{"id": "a", "passed": True}],
                  "summary": {"total": 1}}]},
]


@pytest.mark.parametrize("c_encoder", [True, False], ids=["c-encoder", "no-c-encoder"])
def test_printer_matches_json_dumps_indent_2(monkeypatch, c_encoder):
    from splitlie2 import report

    if not c_encoder:
        monkeypatch.setattr(report, "c_make_encoder", None)
    for obj in PRINTER_CASES:
        assert report.render_json(obj) == json.dumps(obj, indent=2), obj
    with pytest.raises(TypeError):
        report.render_json({"a": [object()]})
    with pytest.raises(TypeError):
        report.render_json({(1, 2): [1]})


def test_determinism_modulo_timestamp(lsa3_file, tmp_path):
    a = json.loads(run_cli("--file", lsa3_file, "--quiet", "check-structure").stdout)
    b = json.loads(run_cli("--file", lsa3_file, "--quiet", "check-structure").stdout)
    a.pop("timestamp")
    b.pop("timestamp")
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)
    assert golden_report_digests(tmp_path) == GOLDEN_DIGESTS


def test_exit_code_one_on_failing_check(lsa3_file, tmp_path):
    doc = _read_doc(lsa3_file)
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
    doc = _read_doc(lsa3_file)
    doc["mu3"] = [{"idx": [1, 2, 2], "val": 1}, {"idx": [2, 1, 2], "val": 1}]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    r = run_cli("--file", str(path), "--quiet", "check-structure")
    assert r.returncode == 2
    assert "error" in json.loads(r.stdout)
    r2 = run_cli("--quiet", "check-structure")  # no file
    assert r2.returncode == 2


def test_mc_solve_volume_slot(lsa3_file, tmp_path):
    doc = _read_doc(lsa3_file)
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
    doc = _read_doc(lsa3_file)
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
    doc = _read_doc(lsa3_file)
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


def _run_with_block(tmp_path, src_file, key, value, *command):
    doc = _read_doc(src_file)
    doc[key] = value
    path = tmp_path / "wrong_type.json"
    path.write_text(json.dumps(doc))
    return run_cli("--file", str(path), "--quiet", *command)


def test_tensor_block_that_is_not_a_list_exits_two(lsa3_file, tmp_path):
    # "mu2": -1 used to raise TypeError and exit 1, reading as a FAIL verdict
    r = _run_with_block(tmp_path, lsa3_file, "mu2", -1, "check-structure")
    assert r.returncode == 2 and r.stderr == ""
    assert json.loads(r.stdout)["error"].startswith("structure.mu2: must be a list")


def test_subbundles_that_is_not_an_object_exits_two(lsa3_file, tmp_path):
    # "subbundles": true used to raise AttributeError and exit 1
    r = _run_with_block(tmp_path, lsa3_file, "subbundles", True, "dirac-check", "--strict")
    assert r.returncode == 2 and r.stderr == ""
    assert json.loads(r.stdout)["error"] == "subbundles: must be an object"


_IDENT3 = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]


@pytest.mark.parametrize("key,value,location", [
    ("mu3", [{"idx": 5, "val": 1}], "structure.mu3[0]"),
    ("H", "x", "H"),
    ("K", {"a": 1}, "K"),
    ("gamma", 7, "gamma"),
    ("gamma", {"mu1": 3}, "gamma.mu1"),
    ("lwx", [], "lwx"),
    ("lwx", {"c11": 1}, "lwx.c11"),
    ("subbundles", {"A": 3}, "subbundles.A"),
    ("subbundles", {"A": {"basis1": [1, 2]}}, "subbundles.A"),
    ("subbundles", {"A": {"basis1": [["1/0"]]}}, "subbundles.A"),
    ("morphism", "self", "morphism"),
    ("morphism", {"f1": 1, "f2": []}, "morphism"),
    ("morphism", {"f1": _IDENT3, "f2": _IDENT3, "f3": [7]}, "morphism.f3[0]"),
    ("mu2", [{"idx": [1, 1], "val": {"": "abc"}}], "structure.mu2[0]"),
])
def test_wrong_block_type_is_a_located_error(lsa3_file, key, value, location):
    from splitlie2.sfile import StructureFileError, parse_structure_file

    doc = _read_doc(lsa3_file)
    doc[key] = value
    with pytest.raises(StructureFileError) as err:
        parse_structure_file(json.dumps(doc))
    assert err.value.location == location


@pytest.mark.parametrize("field,value", [("rank1", 1000000000), ("rank2", 9), ("base_dim", 99)])
def test_oversized_chart_is_rejected_quickly(lsa3_file, tmp_path, field, value):
    doc = _read_doc(lsa3_file)
    doc[field] = value
    _assert_rejected_quickly(tmp_path, doc, field)


def test_oversized_exponent_is_rejected_quickly(tmp_path):
    r = run_cli("example", "show", "semidirect_poly")
    doc = json.loads(r.stdout)
    entry = next(e for e in doc["mu1"] if isinstance(e["val"], dict))
    entry["val"] = {"99999999": "1"}
    _assert_rejected_quickly(tmp_path, doc, "exceeds the limit")


@pytest.mark.parametrize("site,located", [
    ("value", "structure.mu3[0]: rational '1e5000000' exceeds the limit"),
    ("coefficient", "structure.mu3[0]: rational '1e5000000' exceeds the limit"),
    ("basis-row", "subbundles.A: rational in basis1 '1e5000000' exceeds the limit"),
])
def test_huge_decimal_exponent_is_rejected_quickly(lsa3_file, tmp_path, site, located):
    # Fraction("1e5000000") builds 10**5000000 first: this used to run for
    # 79 s and end in an unlocated integer-conversion error
    doc = _read_doc(lsa3_file)
    if site == "value":
        doc["mu3"][0]["val"] = "1e5000000"
    elif site == "coefficient":
        doc["mu3"][0]["val"] = {"": "1e5000000"}
    else:
        doc["subbundles"] = {"A": {"basis1": [["1e5000000"] + [0] * 5], "basis2": []}}
    _assert_rejected_quickly(tmp_path, doc, located)


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


def test_json_integer_literal_over_the_conversion_limit_is_located(lsa3_file, tmp_path):
    # json.loads raises a plain ValueError for an integer literal over 4300
    # digits; it used to reach the generic catch in cli.main, unlocated.
    # json.dumps cannot write such a literal, so the text is built directly.
    from splitlie2.sfile import StructureFileError, parse_structure_file

    doc = _read_doc(lsa3_file)
    doc["mu3"][0]["val"] = "BIG"
    text = json.dumps(doc).replace('"BIG"', "1" * 5000)
    with pytest.raises(StructureFileError) as err:
        parse_structure_file(text)
    assert err.value.location == "json"
    path = tmp_path / "big_int.json"
    path.write_text(text)
    r = run_cli("--file", str(path), "--quiet", "check-structure")
    assert r.returncode == 2 and r.stderr == ""
    assert json.loads(r.stdout)["error"].startswith("json: Exceeds the limit")


# sha256 prefixes of format_help() at COLUMNS=80, recorded before the common
# flags moved onto one parent parser; "" is the main parser, whose help
# Python 3.13 lays out differently
HELP_DIGESTS = {
    "": "4a69ccedcf6765bf" if sys.version_info >= (3, 13) else "c520294ab0ed1824",
    "check-structure": "ed2a940a5f1bf190", "check-morphism": "1c597d6ff10709b7",
    "hp-verify": "fdf8845dab89e84f", "mc-check": "b54a1d9f437481c5",
    "mc-solve": "f4a2673b2fc45f65", "twist": "b86114dfb251435e",
    "bialgebroid-check": "79fe983ea4d8c8b8", "double": "6c3054a64bd3cb55",
    "lwx-check": "a7d411212109412d", "manin-extract": "05da58eef0c57b4d",
    "dirac-check": "a3913995176e25f6", "example": "cac8495a76d7f9a2",
}
_COMMON = {"check": "all", "count": 100, "file": None, "json": False, "max_degree": 6,
           "quiet": False, "seed": 0}
# (argv, namespace minus the defaults above), recorded with the digests
NAMESPACES = [
    (["check-structure"], {"command": "check-structure", "fn": "cmd_check_structure"}),
    (["--file", "a.json", "check-structure", "--quiet"],
     {"command": "check-structure", "fn": "cmd_check_structure", "file": "a.json",
      "quiet": True}),
    (["--seed", "3", "hp-verify", "--count", "5", "--max-degree", "4"],
     {"command": "hp-verify", "fn": "cmd_hp_verify", "seed": 3, "count": 5, "max_degree": 4}),
    (["hp-verify", "--seed", "7"], {"command": "hp-verify", "fn": "cmd_hp_verify", "seed": 7}),
    (["--check", "x", "dirac-check", "--strict", "--file", "f"],
     {"command": "dirac-check", "fn": "cmd_dirac_check", "check": "x", "file": "f",
      "graph": False, "strict": True, "weak": False}),
    (["dirac-check", "--weak", "--graph"],
     {"command": "dirac-check", "fn": "cmd_dirac_check", "graph": True, "strict": False,
      "weak": True}),
    (["example", "show", "lsa3", "--json"],
     {"command": "example", "fn": "cmd_example", "action": "show", "name": "lsa3",
      "json": True}),
    (["--quiet", "--json", "lwx-check"],
     {"command": "lwx-check", "fn": "cmd_lwx_check", "json": True, "quiet": True}),
    (["--count", "1", "mc-solve", "--count", "2"],
     {"command": "mc-solve", "fn": "cmd_mc_solve", "count": 2}),
    (["example", "list"],
     {"command": "example", "fn": "cmd_example", "action": "list", "name": None}),
]


def test_parser_help_and_namespaces_are_pinned(monkeypatch):
    import argparse

    from splitlie2.cli import build_parser

    monkeypatch.setenv("COLUMNS", "80")
    ap = build_parser()
    sub = next(a for a in ap._actions if isinstance(a, argparse._SubParsersAction))
    helps = {"": ap.format_help()}
    helps.update((name, p.format_help()) for name, p in sub.choices.items())
    assert {k: hashlib.sha256(v.encode()).hexdigest()[:16] for k, v in helps.items()} \
        == HELP_DIGESTS
    for argv, changed in NAMESPACES:
        ns = vars(ap.parse_args(argv))
        ns["fn"] = ns["fn"].__name__
        assert ns == {**_COMMON, **changed}, argv


def test_hp_verify_with_an_unreachable_degree_bound_exits_two(tmp_path, capsys):
    # without th_ frames every multivector has even degree; --max-degree 1
    # used to keep the sampler drawing for ever
    from splitlie2.cli import main

    path = tmp_path / "even.json"
    path.write_text(json.dumps({"format_version": 1, "base_dim": 0, "rank1": 2, "rank2": 0}))
    assert main(["--file", str(path), "--quiet", "--max-degree", "1", "hp-verify"]) == 2
    assert "degree 1" in json.loads(capsys.readouterr().out)["error"]


def test_reused_parser_gives_the_namespaces_and_exits_of_fresh_ones(lsa3_file, tmp_path):
    import argparse

    from splitlie2 import cli

    doc = _read_doc(lsa3_file)
    ident = [[int(i == j) for j in range(6)] for i in range(6)]
    doc["subbundles"] = {"A": {"basis1": ident[:3], "basis2": ident[:3]}}
    dirac = tmp_path / "dirac.json"
    dirac.write_text(json.dumps(doc))
    sequence = [
        ["--file", lsa3_file, "--quiet", "check-structure"],
        ["check-structure", "--file", lsa3_file, "--check", "nilpotency", "--quiet"],
        ["--file", str(dirac), "dirac-check", "--strict", "--quiet"],
        ["--quiet", "dirac-check", "--file", lsa3_file, "--weak", "--graph"],
        ["dirac-check", "--strict", "--weak"],  # argparse exits: the flags exclude each other
        ["--seed", "2", "--file", lsa3_file, "hp-verify", "--count", "3", "--quiet"],
        ["--quiet", "example", "list"],
    ]

    def run(argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                code = f"exit {exc.code}"
        kept = [line for line in out.getvalue().splitlines()
                if not line.startswith('  "timestamp": ')]
        return code, kept, err.getvalue()

    fresh = []
    for argv in sequence:
        cli._parser.cache_clear()
        fresh.append(run(argv))
    cli._parser.cache_clear()
    reused = [run(argv) for argv in sequence]
    assert cli._parser.cache_info().misses == 1
    assert reused == fresh
    assert [r[0] for r in reused] == [0, 0, 0, 0, "exit 2", 0, 0]
    ap = cli._parser()
    for argv in sequence[:4] + sequence[5:] + [a for a, _ in NAMESPACES]:
        assert vars(ap.parse_args(argv)) == vars(cli.build_parser().parse_args(argv)), argv
    assert isinstance(ap, argparse.ArgumentParser) and ap is cli._parser()
