"""Exit code and raw stdout bytes of the axiom checks over a point base and
over a line, run through cli.main in process.

Each case pins the exit code and the sha256 of raw stdout with the
timestamp line removed.  The check-structure cases are structure_suite
entries of base_dim 0 and 1, valid and perturbed; the failing base_dim 0
ones with fractional entries render residuals divided by d^2 (see
structures.clearing_denominator).  The lwx-check and dirac-check cases run
on the double of lsa3 with its twisted dual, with one c21 entry and one
omega entry, with its signed images, bumped by 1/2: failing lwx-check
records carry fractional residuals, and the omega entry lies in the first
half, whose strict Dirac restriction then has a fractional mu5 (it still
passes its axioms).
"""

import contextlib
import hashlib
import io
from fractions import Fraction

import pytest

from splitlie2.builtin import builtin_example
from splitlie2.cli import main
from splitlie2.gradedpoly import Poly
from splitlie2.lwx import build_double
from splitlie2.randomsuite import structure_suite
from splitlie2.sfile import lwx_block, render_structure
from splitlie2.structures import signed_permutations
from splitlie2.twisting import BialgebroidPair

# structure_suite(24, 5) positions: base_dim 1 at 0, 3, 21 and 22, base_dim 0
# elsewhere; fractional entries at 1, 2, 7, 11, 17 and 19
SUITE_SEED, SUITE_PICKS = 5, (0, 1, 2, 3, 6, 7, 11, 15, 17, 19, 21, 22)

DIGESTS = {
    "check-structure suite[0]":
        "0:26139152b401eca8f3926a3512b749b02e3399c93b36e7c371bb1bab31f36ef5",
    "check-structure suite[1]":
        "1:b066a20be79530276ac63f3c3f513ab93e3e53bacaf2e89973c944fe620e7f39",
    "check-structure suite[2]":
        "0:7e280a5189b0aa3163fcc5e66c2725fef5ae412e61de2007bcf524a07e8bb2bc",
    "check-structure suite[3]":
        "1:d05d72db048c7d675a67f10ffbe7085024fb35db07cce518d64b1e186d55f0ec",
    "check-structure suite[6]":
        "0:c1d87c5a38f4558a85b8a6eb21c86fbdef235ebe74467805d12d8437179273e3",
    "check-structure suite[7]":
        "0:f7e0acbbaec606213c1d3c6489457f3ce7aba63666b629bb5b872e1c3eddea31",
    "check-structure suite[11]":
        "1:75e6765aad67a1161ed9e987e6d43d1bca238805a50a434e1da0fdabc361293f",
    "check-structure suite[15]":
        "0:c3e568b52c8b2ab6da698fe6026f9ba9b122389ad12c289618b9bcaf08eb3802",
    "check-structure suite[17]":
        "1:0d87e491e59cef59602171ed4183413e6b19138cc47d4d3235047effd7e00df4",
    "check-structure suite[19]":
        "1:e8ab6f8615590c5b9157d82730272fe01ba1a2fde3860928bd782774475f4c18",
    "check-structure suite[21]":
        "1:634eba9b50627f89330cd8cf73cd370c89d4d221da456f339b30904134d429ec",
    "check-structure suite[22]":
        "0:3dc9b9473ec8c300691c9a0d5ce81563d30864980f3109f450339856e87225b6",
    "lwx-check lsa3+bumped":
        "1:bf10c94f92db9d865986e57dd1730b9dd4d2303346f7542aecdfe4c163d4a6ff",
    "dirac-check --strict lsa3+bumped":
        "0:87c654234d6a8907bdf9e4c6a8094edfaf4d0599b388f5594f43407d4ba70725",
}


def _run(*argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(["--quiet", *argv])
    kept = [line for line in out.getvalue().splitlines(keepends=True)
            if not line.startswith('  "timestamp": ')]
    return f"{code}:{hashlib.sha256(''.join(kept).encode()).hexdigest()}"


def _bumped_lsa3_double():
    ex = builtin_example("lsa3")
    e, _ = build_double(BialgebroidPair.from_twist(ex["structure"], ex["mc"]),
                        cross_check=False)
    half = Poly.const(e.chart, Fraction(1, 2))
    e.c21[1][3][2] = e.c21[1][3][2] + half
    # omega alternates in its first three slots, so the bump goes to every
    # signed image of [1][2][3][2]: the file holds the ordered slot only
    for (a, b, c), sign in signed_permutations((0, 1, 2)):
        e.omega[a][b][c][1] = e.omega[a][b][c][1] + sign * half
    return ex["structure"], e


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    root = tmp_path_factory.mktemp("point_base_bytes")
    paths = {}

    def write(label, text):
        paths[label] = str(root / f"{label}.json")
        with open(paths[label], "w", encoding="utf-8") as fh:
            fh.write(text)

    suite = structure_suite(max(SUITE_PICKS) + 1, SUITE_SEED)
    for i in SUITE_PICKS:
        write(f"suite[{i}]", render_structure(suite[i][0]))
    s, e = _bumped_lsa3_double()
    ident = [[int(i == j) for j in range(e.d1)] for i in range(e.d1)]
    r1, r2 = s.chart.rank1, s.chart.rank2
    write("lsa3+bumped", render_structure(s, extra={
        "lwx": lwx_block(e),
        "subbundles": {
            "A": {"basis1": ident[:r1], "basis2": ident[:r2]},
            "B": {"basis1": ident[r1:], "basis2": ident[r2:]},
        },
    }))
    return paths


def point_base_digests(files):
    out = {f"check-structure suite[{i}]":
           _run("--file", files[f"suite[{i}]"], "check-structure") for i in SUITE_PICKS}
    out["lwx-check lsa3+bumped"] = _run("--file", files["lsa3+bumped"], "lwx-check")
    out["dirac-check --strict lsa3+bumped"] = _run("--file", files["lsa3+bumped"],
                                                   "dirac-check", "--strict")
    return out


def test_point_base_bytes_are_pinned(files):
    assert point_base_digests(files) == DIGESTS
