"""sha256 of the calculus-identities report, byte for byte.

No command prints this report, so no CLI digest covers it.  Each case pins
json.dumps(verify_calculus_identities(s, 10, seed).to_dict(), sort_keys=True)
on a builtin, and on lsa3 with one mu3 entry (and its antisymmetric
partner) bumped, whose report has failing records.
"""

import copy
import hashlib
import json

import pytest

from splitlie2.builtin import builtin_example
from splitlie2.cochains import verify_calculus_identities
from splitlie2.gradedpoly import Poly

CALCULUS_DIGESTS = {
    ("abelian", 0): "2c84559979b3fbd13608b097eaa7e0f81004086f511d788cd1a1e3734bbb3941",
    ("abelian", 7): "9d1a595fffa19849b8717f5a32d87d6680e6bf54f155bd76437d9409789e9cb2",
    ("crossed_sl2", 0): "aa0fe5ba53d4ac03144b31928bc1da556ab780665f733f9e3d4b680f67509bb0",
    ("crossed_sl2", 7): "a60859b1f0557ccbce2b99c4c524ffe0025c2e2000e7ea6f92221eb0a6f361f6",
    ("lsa3", 0): "9cc59f44ee2f5cf07b6e463dd2652aa61cc21dfbdd5dc06843a495d68fa48f7d",
    ("lsa3", 7): "5a22404fc05833ccd1d3cdbd58236f77f52ade2a2120885d7e0335f6c33ab056",
    ("semidirect_poly", 0): "2fcf775a471645d08ab5ae33dbf612c986b95a2d8a87c87573dbdd38db2b9c23",
    ("semidirect_poly", 7): "784ac694e3a04cfe9999a0c90366390983af7c7b8e39abac8c2e0b5518f4c1e8",
    ("string_sl2", 0): "38e7f87bca63a1ec4f98769a347fccb38fa2641d50b0a293ea68c9c49a65e3ef",
    ("string_sl2", 7): "23f020fae4b46c00ebc375bf738add2eddf60d61c8bd2aa72b0c4927369cce2c",
    ("lsa3 bumped", 0): "af168b76606cc43c6bb324af26f5dff657314b1c40d8c365ba9fe6be7bb9c8b6",
    ("lsa3 bumped", 7): "ae0eeaa864847a110d23028b906c4bb297bb245b99a1030f422686168b8033e0",
}


def _structure(name):
    if name != "lsa3 bumped":
        return builtin_example(name)["structure"]
    s = copy.deepcopy(builtin_example("lsa3")["structure"])
    one = Poly.const(s.chart, 1)
    s.mu3[0][1][2] = s.mu3[0][1][2] + one
    s.mu3[1][0][2] = s.mu3[1][0][2] - one
    return s


@pytest.mark.parametrize("name,seed", sorted(CALCULUS_DIGESTS))
def test_calculus_report_bytes(name, seed):
    rep = verify_calculus_identities(_structure(name), 10, seed)
    if name == "lsa3 bumped":
        assert not rep.passed
    text = json.dumps(rep.to_dict(), sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == CALCULUS_DIGESTS[(name, seed)]
