"""check-morphism end to end: a structure file with a morphism block, run
through the CLI entry point in process.

Each case pins the exit code and the sha256 of the report (timestamp
removed, keys sorted), recorded with the morphism check that evaluated
every bracket of the domain and codomain afresh, before it read frame
tables.
"""

import contextlib
import hashlib
import io
import json

import pytest

from splitlie2.builtin import builtin_example
from splitlie2.cli import main
from splitlie2.sfile import structure_block

MORPHISM_DIGESTS = {
    "lsa3 identity":
        "0:4b0bcf0de74e930e6216dbf139653300dd84a273b90de2d2b58c79461530c782",
    "crossed_sl2 identity":
        "0:47c8b27d712536778cde89eaed44c441c7855a0751dde7f947c686cd23fd3216",
    "crossed_sl2 skew f3 pair":
        "1:c35f00d9094ab2cd06bfb7057c63b8bab3aae029338b9f7f12e9c04a4c6fb747",
}


def _identity(r):
    return [[int(i == j) for j in range(r)] for i in range(r)]


def _morphism_file(tmp_path, name, f3):
    s = builtin_example(name)["structure"]
    ch = s.chart
    doc = structure_block(s, {"morphism": {
        "codomain": "self",
        "f1": _identity(ch.rank1),
        "f2": _identity(ch.rank2),
        "f3": f3,
    }})
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(doc))
    return str(path)


def _digest(path):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(["--quiet", "--file", path, "check-morphism"])
    body = json.loads(buf.getvalue())
    body.pop("timestamp", None)
    return f"{code}:{hashlib.sha256(json.dumps(body, sort_keys=True).encode()).hexdigest()}"


_SKEW_PAIR = [{"idx": [1, 2, 1], "val": "1/2"}, {"idx": [2, 1, 1], "val": "-1/2"}]


@pytest.mark.parametrize("label,name,f3", [
    ("lsa3 identity", "lsa3", []),
    ("crossed_sl2 identity", "crossed_sl2", []),
    ("crossed_sl2 skew f3 pair", "crossed_sl2", _SKEW_PAIR),
])
def test_check_morphism_cli_digest(tmp_path, label, name, f3):
    assert _digest(_morphism_file(tmp_path, name, f3)) == MORPHISM_DIGESTS[label]
