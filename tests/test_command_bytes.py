"""Exit code and raw stdout bytes of the file commands that RAW_DIGESTS and
GOLDEN_DIGESTS in test_cli.py leave out, run through cli.main in process.

Each case pins the exit code and the sha256 of raw stdout with the
timestamp line removed.  They were recorded while every command still read
its own file and wrote its own report, before one runner did both.
"""

import contextlib
import copy
import hashlib
import io
import json

import pytest

from splitlie2.builtin import builtin_example
from splitlie2.cli import main
from splitlie2.sfile import mc_blocks, render_structure

COMMAND_DIGESTS = {
    "mc-check string_sl2[3]":
        "0:5d621accf9a963d4c9af6f7c17f851a0f4acc50d7fd52a3a1b253bd36278584f",
    "twist string_sl2[3]":
        "0:cb3dcd1bff7928f5551cd7577433f203262b086dfd72de2ddd9734f890e7e659",
    "mc-solve affine lsa3(2)":
        "0:50e56091e9da87e6bbac1bda4b7c71a62538a8ca926f9d15750ee061994fbd5d",
    "mc-solve nonlinear lsa3(2)":
        "1:77e0e32ca7f888fcd73c5499bde248a7eb3970c3c7dd6328389c082cd97a2aea",
    "bialgebroid-check lsa3":
        "0:4b4b7e9cd0e2adc30da583b51e2b680281030544219afc4ee90fff35be82bb21",
    "bialgebroid-check lsa3+gamma":
        "0:aa3de3d4beed713fbcfb303aedc834f442561794fb005f95923de90253393f26",
    "bialgebroid-check crossed_sl2":
        "0:2057a70d2dd2c4a086932dd4d8f344f77516373d748ae361699d3282293abf90",
    "double lsa3+gamma":
        "0:a034ea1e744983cc78d9c21931a78f1df595fe65d6725eecef8d9c489d6aad1a",
    "double crossed_sl2":
        "0:daaaf4bc718199602afeee401486bf60a367242e251bddf4ee7b41435ea52c8a",
    "lwx-check lsa3":
        "0:9521a9ccc7b26be850aa9419f001a97da4ea8f7fc5f4f174e7b069a775304964",
    "lwx-check lsa3+gamma":
        "0:5802744afc51557f97ed66e6628bff5f387400b293b7d4e6296780d244bebeea",
    "lwx-check lsa3+lwx":
        "0:4150b38f6c7eaae0df6db47ecbffbcd59852c35fb35abc684c3abf1546f72c4c",
    "dirac-check --strict lsa3 A/B":
        "0:cb1a9225a4852f38ad6af1715cb8b479df77e1fef69a0baf7b40442751e76f71",
    "dirac-check --strict lsa3 A/tilted":
        "1:c39168919954cef8f1ce3892cc64afa5a4904452f570908101b2d19b219b6c9a",
    "dirac-check --weak --graph lsa3":
        "0:a4904e3bf6b0e39b794a3ed22c0a4743b55d3ea13565ecd858e0676e6962e9d5",
    "dirac-check --weak --graph string_sl2[3]":
        "0:8e6fbf182a64638771098bf46bc434bb61e69adb210bdee3db99cc72c6d93781",
    "--check lwx.ii lwx-check lsa3":
        "0:824a32bcc7c243487c104af4438ab1a92b94c6eb1f6f40ad55303de4c0a43a3a",
    "double without --file":
        "2:ce7eb9a527ee8bdf8968fbf4796cdb37c2af487f3af7142bd1c43aa0cab3ea2b",
    "double on a missing file":
        "2:62117c887eb97b2044ba5a2722a31683987314f320b4de63fa0caebe4d00efc7",
}

# the stderr summary line of one run without --quiet
SUMMARY_LINE = "lwx-check: 4288/4288 checks passed\n"


def _run(*argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def _digest(*argv):
    code, out, _ = _run("--quiet", *argv)
    kept = [line for line in out.splitlines(keepends=True)
            if not line.startswith('  "timestamp": ')]
    return f"{code}:{hashlib.sha256(''.join(kept).encode()).hexdigest()}"


def _doc(name, m=None):
    return json.loads(render_structure(builtin_example(name)["structure"],
                                       extra=mc_blocks(m) if m else None))


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """Path of each input file, keyed by a readable label."""
    root = tmp_path_factory.mktemp("command_bytes")
    paths = {}

    def write(label, doc):
        paths[label] = str(root / f"{label}.json")
        with open(paths[label], "w", encoding="utf-8") as fh:
            fh.write(doc if isinstance(doc, str) else json.dumps(doc))

    ex = builtin_example("string_sl2")
    write("string_sl2[3]", _doc("string_sl2", ex["mc_family"][3]))
    lsa3 = _doc("lsa3", builtin_example("lsa3")["mc"])
    write("lsa3", lsa3)
    write("crossed_sl2", _doc("crossed_sl2"))
    # the two mc-solve inputs: K[1,2,3] unknown (affine), off-diagonal H unknown
    base = _doc("lsa3(2)", builtin_example("lsa3(2)")["mc"])
    affine = copy.deepcopy(base)
    affine["K"] = [{"idx": [1, 2, 3], "val": "?"}]
    write("affine", json.dumps(affine, indent=2))
    nonlinear = copy.deepcopy(base)
    nonlinear["H"] = [{"idx": [i, j], "val": 1 if i == j else "?"}
                      for i in (1, 2, 3) for j in (1, 2, 3)]
    write("nonlinear", json.dumps(nonlinear, indent=2))
    _, twist, _ = _run("--quiet", "--file", paths["lsa3"], "twist")
    write("lsa3+gamma", {**lsa3, "gamma": json.loads(twist)["dual_structure"]})
    _, double, _ = _run("--quiet", "--file", paths["lsa3+gamma"], "double")
    write("lsa3+lwx", {**lsa3, "lwx": json.loads(double)["lwx"]})
    ident = [[int(i == j) for j in range(6)] for i in range(6)]
    tilted = [[1, 0, 0, 1, 0, 0]] + ident[4:]
    write("lsa3+subbundles", {**lsa3, "subbundles": {
        "A": {"basis1": ident[:3], "basis2": ident[:3]},
        "B": {"basis1": ident[3:], "basis2": ident[3:]},
    }})
    write("lsa3+tilted", {**lsa3, "subbundles": {
        "A": {"basis1": ident[:3], "basis2": ident[:3]},
        "T": {"basis1": tilted, "basis2": tilted},
    }})
    return paths


def command_digests(files):
    """Digest of every case, keyed as in COMMAND_DIGESTS."""
    f = lambda label: ("--file", files[label])
    return {
        "mc-check string_sl2[3]": _digest(*f("string_sl2[3]"), "mc-check"),
        "twist string_sl2[3]": _digest(*f("string_sl2[3]"), "twist"),
        "mc-solve affine lsa3(2)": _digest(*f("affine"), "mc-solve"),
        "mc-solve nonlinear lsa3(2)": _digest(*f("nonlinear"), "mc-solve"),
        "bialgebroid-check lsa3": _digest(*f("lsa3"), "bialgebroid-check"),
        "bialgebroid-check lsa3+gamma": _digest(*f("lsa3+gamma"), "bialgebroid-check"),
        "bialgebroid-check crossed_sl2": _digest(*f("crossed_sl2"), "bialgebroid-check"),
        "double lsa3+gamma": _digest(*f("lsa3+gamma"), "double"),
        "double crossed_sl2": _digest(*f("crossed_sl2"), "double"),
        "lwx-check lsa3": _digest(*f("lsa3"), "lwx-check"),
        "lwx-check lsa3+gamma": _digest(*f("lsa3+gamma"), "lwx-check"),
        "lwx-check lsa3+lwx": _digest(*f("lsa3+lwx"), "lwx-check"),
        "dirac-check --strict lsa3 A/B":
            _digest(*f("lsa3+subbundles"), "dirac-check", "--strict"),
        "dirac-check --strict lsa3 A/tilted":
            _digest(*f("lsa3+tilted"), "dirac-check", "--strict"),
        "dirac-check --weak --graph lsa3":
            _digest(*f("lsa3"), "dirac-check", "--weak", "--graph"),
        "dirac-check --weak --graph string_sl2[3]":
            _digest(*f("string_sl2[3]"), "dirac-check", "--weak", "--graph"),
        "--check lwx.ii lwx-check lsa3": _digest("--check", "lwx.ii", *f("lsa3"), "lwx-check"),
        "double without --file": _digest("double"),
        "double on a missing file": _digest("--file", "no/such/file.json", "double"),
    }


def test_command_bytes_are_pinned(files):
    assert command_digests(files) == COMMAND_DIGESTS


def test_summary_line_is_pinned(files):
    code, _, err = _run("--file", files["lsa3+gamma"], "lwx-check")
    assert (code, err) == (0, SUMMARY_LINE)
