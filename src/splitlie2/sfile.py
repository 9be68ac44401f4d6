"""JSON structure files: exact tensors as sparse index/value lists.

Rationals are strings "p/q" (or plain integers); base-polynomial values
are objects mapping a comma-separated exponent vector over the base
variables to a rational, e.g. {"2,0": "3/4", "0,0": "1"}.  Indices are
1-based.  The names, shapes and alternating slots of the tensor blocks
come from structures.lie2_layout (mu1..mu5) and lwx.lwx_layout (the lwx
block).  Alternating tensors may be given on any index tuples; slots
whose signed images are omitted are completed automatically, and explicit
entries that contradict the required symmetry are rejected.  Every entry,
in a tensor block or in morphism.f3, needs its "val", and a second entry on
the same slot is rejected.
"""

from __future__ import annotations

import json
from fractions import Fraction

from .gradedpoly import Chart, Poly, X
from .multivectors import MCElement
from .report import render_json
from .structures import (Lie2Structure, MorphismData, _tensor, alternation_failures, lie2_layout,
                         signed_permutations)
from .lwx import LWXStructure, Subbundle, hyperbolic_pairing, lwx_layout

FORMAT_VERSION = 1

# Input limits, checked before any tensor is allocated or any power expanded.
MAX_RANK = 8  # rank1, rank2 of every structure block
MAX_BASE_DIM = 8
MAX_EXPONENT = 32  # per base variable, in polynomial values
MAX_TERMS = 256  # exponent vectors in one polynomial value
MAX_DIGITS = 4300  # decimal digits of a rational's numerator or denominator


class StructureFileError(ValueError):
    """Malformed input file; carries a location string."""

    def __init__(self, location, message):
        super().__init__(f"{location}: {message}")
        self.location = location


UNKNOWN = object()  # sentinel for "?" slots


def _digit_bound(text: str) -> int:
    """An upper bound on the decimal digits of the numerator and of the
    denominator that Fraction(text) builds, read off the text: "p/q" gives
    the digits of p and of q; a decimal "a.bEk" gives those of a and b plus
    k on the numerator, or 1 plus those of b minus k on the denominator."""
    mant, _, exp_text = text.lower().partition("e")
    try:
        exp = int(exp_text.replace("_", "")) if exp_text else 0
    except ValueError:
        return 0  # not a rational; Fraction rejects it without expanding
    count = lambda part: sum(ch.isdigit() for ch in part)
    num, _, den = mant.partition("/")
    whole, _, frac = num.partition(".")
    return max(count(whole) + count(frac) + max(exp, 0),
               (count(den) if den else 1 + count(frac)) + max(-exp, 0))


def _rational(v, where: str, what: str = "rational") -> Fraction:
    """A rational from an int or a string, or a located error.  The size is
    checked before Fraction runs: Fraction("1e5000000") would build
    10**5000000 first."""
    text = str(v)
    if _digit_bound(text) > MAX_DIGITS:
        raise StructureFileError(
            where, f"{what} {text[:40]!r} exceeds the limit of {MAX_DIGITS} digits"
        )
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise StructureFileError(where, f"bad {what} {v!r}: {exc}")


def _parse_value(chart: Chart, v, where: str, allow_unknown=False):
    if v == "?" and allow_unknown:
        return UNKNOWN
    if isinstance(v, bool):
        raise StructureFileError(where, "boolean is not a valid value")
    if isinstance(v, int):
        return Poly.const(chart, v)
    if isinstance(v, str):
        return Poly.const(chart, _rational(v, where))
    if isinstance(v, dict):
        if len(v) > MAX_TERMS:
            raise StructureFileError(
                where, f"polynomial value has {len(v)} terms, over the limit {MAX_TERMS}"
            )
        terms = {}
        for exps, coeff in v.items():
            try:
                parts = [int(p) for p in str(exps).split(",")] if str(exps).strip() else []
            except ValueError:
                raise StructureFileError(where, f"bad exponent vector {exps!r}")
            if len(parts) != chart.base_dim or any(p < 0 for p in parts):
                raise StructureFileError(
                    where, f"exponent vector {exps!r} does not fit base dimension"
                )
            if any(p > MAX_EXPONENT for p in parts):
                raise StructureFileError(
                    where, f"exponent vector {exps!r} exceeds the limit {MAX_EXPONENT}"
                )
            mono = tuple((X, i + 1, p) for i, p in enumerate(parts) if p)
            terms[mono] = terms.get(mono, 0) + _rational(coeff, where)
        return Poly(chart, terms)  # drops the zero sums
    raise StructureFileError(where, f"unsupported value {v!r}")


def _render_value(p: Poly):
    if p.is_zero:
        return "0"
    if list(p.terms) == [()]:
        c = p.terms[()]
        return str(c)
    out = {}
    n = p.chart.base_dim
    for mono, c in sorted(p.terms.items()):
        exps = [0] * n
        for k, idx, e in mono:
            if k != X:
                raise ValueError("only base polynomials are serializable")
            exps[idx - 1] = e
        out[",".join(str(e) for e in exps)] = str(c)
    return out


def _load_sparse(chart, entries, shape, name, alt_slots=0, allow_unknown=False):
    """Tensor from sparse entries; first alt_slots indices alternate."""
    if entries is not None and not isinstance(entries, list):
        raise StructureFileError(name, "must be a list of {\"idx\": [...], \"val\": ...} entries")
    tensor = _tensor(chart, shape, None, name)
    given = {}
    for pos, ent in enumerate(entries or []):
        where = f"{name}[{pos}]"
        if not isinstance(ent, dict) or "idx" not in ent or "val" not in ent:
            raise StructureFileError(where, "entry must be {\"idx\": [...], \"val\": ...}")
        idx = ent["idx"]
        if not isinstance(idx, list) or len(idx) != len(shape):
            raise StructureFileError(where, f"expected a list of {len(shape)} indices")
        for q, (i, dim) in enumerate(zip(idx, shape)):
            if not isinstance(i, int) or not 1 <= i <= dim:
                raise StructureFileError(where, f"index {i} out of range 1..{dim}")
        val = _parse_value(chart, ent["val"], where, allow_unknown)
        key = tuple(i - 1 for i in idx)
        if key in given:
            raise StructureFileError(where, f"duplicate slot {idx}")
        given[key] = (val, where)

    filled = {}
    for key, (val, where) in given.items():
        images = [(key, val, 1)]
        if alt_slots == 2:
            i, j = key[0], key[1]
            images = [(key, val, 1), ((j, i) + key[2:], val, -1)]
            if i == j and not (val is UNKNOWN or val.is_zero):
                raise StructureFileError(where, "diagonal slot of an alternating tensor")
        elif alt_slots == 3:
            trip = key[:3]
            if len(set(trip)) < 3 and not (val is UNKNOWN or val.is_zero):
                raise StructureFileError(where, "repeated slot of an alternating tensor")
            images = [(p + key[3:], val, sg) for p, sg in signed_permutations(trip)]
        for slot, v, sg in images:
            if v is UNKNOWN:
                newv = UNKNOWN
            else:
                newv = v * sg
            if slot in filled:
                old = filled[slot][0]
                conflict = (
                    (old is UNKNOWN) != (newv is UNKNOWN)
                    or (old is not UNKNOWN and old != newv)
                )
                if conflict:
                    raise StructureFileError(
                        where, "entry contradicts the alternating symmetry"
                    )
            else:
                filled[slot] = (newv, where)

    for slot, (v, _) in filled.items():
        node = tensor
        for i in slot[:-1]:
            node = node[i]
        node[slot[-1]] = v
    return tensor


def _dump_sparse(tensor, shape, alt_slots=0, name=""):
    """The nonzero entries of a tensor; of one that alternates in its first
    alt_slots slots, the ordered slots only.  A tensor that breaks that
    alternation is refused: the reader would complete it to another one."""
    bad = alt_slots and alternation_failures(tensor, shape, alt_slots)
    if bad:
        slot = "".join(f"[{i + 1}]" for i in bad[0])
        raise ValueError(f"{name}{slot} breaks the alternation of its first {alt_slots} slots")
    out = []

    def walk(node, idx):
        if len(idx) == len(shape):
            if isinstance(node, Poly) and node.is_zero:
                return
            if alt_slots == 2 and idx[0] > idx[1]:
                return
            if alt_slots == 3 and not (idx[0] < idx[1] < idx[2]):
                return
            out.append({"idx": [i + 1 for i in idx], "val": _render_value(node)})
            return
        for i, sub in enumerate(node):
            walk(sub, idx + (i,))

    walk(tensor, ())
    return out


def _object(block, where: str) -> dict:
    if not isinstance(block, dict):
        raise StructureFileError(where, "must be an object")
    return block


def _rational_rows(raw, where: str, what: str):
    """A list of lists of rationals; anything else is a located error."""
    if not isinstance(raw, list) or not all(isinstance(r, list) for r in raw):
        raise StructureFileError(where, f"{what} must be a list of rows")
    return [[_rational(v, where, f"rational in {what}") for v in r] for r in raw]


def _structure_from_block(block, where: str):
    for field in ("base_dim", "rank1", "rank2"):
        if field not in block:
            raise StructureFileError(where, f"missing {field}")
        if not isinstance(block[field], int) or block[field] < 0:
            raise StructureFileError(where, f"{field} must be a non-negative integer")
        limit = MAX_BASE_DIM if field == "base_dim" else MAX_RANK
        if block[field] > limit:
            raise StructureFileError(where, f"{field} {block[field]} exceeds the limit {limit}")
    ch = Chart(block["base_dim"], block["rank1"], block["rank2"])
    s = Lie2Structure(ch, *[_load_sparse(ch, block.get(name), shape, f"{where}.{name}", alt)
                            for name, shape, alt in lie2_layout(ch)])
    bad = s.symmetry_violations()
    if bad:
        raise StructureFileError(where, "; ".join(bad))
    return s


class StructureFile:
    """Parsed contents of one input file."""

    def __init__(self):
        self.structure = None
        self.mc_h = None  # entries may contain the UNKNOWN sentinel
        self.mc_k = None
        self.dual = None
        self.morphism = None
        self.morphism_codomain = None  # a Lie2Structure, or "double": the file's double
        self.subbundles = {}
        self.lwx = None

    @property
    def chart(self):
        return self.structure.chart

    def mc_element(self) -> MCElement:
        ch = self.chart
        if self.mc_h is None and self.mc_k is None:
            raise StructureFileError("H", "no degree-3 element in this file")
        h = self.mc_h or [[Poly.zero(ch)] * ch.rank2 for _ in range(ch.rank1)]
        for row in h:
            for v in row:
                if v is UNKNOWN:
                    raise StructureFileError("H", "unknown slots need the solver command")
        k = {}
        for idx, v in (self.mc_k or {}).items():
            if v is UNKNOWN:
                raise StructureFileError("K", "unknown slots need the solver command")
            k[idx] = v
        return MCElement.build(ch, h=h, k=k)

    def mc_patterns(self):
        """(h_pattern, k_pattern) with None in unknown slots, for the solver."""
        ch = self.chart
        h = [[Poly.zero(ch)] * ch.rank2 for _ in range(ch.rank1)] if self.mc_h is None \
            else [[None if v is UNKNOWN else v for v in row] for row in self.mc_h]
        k = {idx: (None if v is UNKNOWN else v) for idx, v in (self.mc_k or {}).items()}
        return h, k


def parse_structure_file(text: str) -> StructureFile:
    try:
        doc = json.loads(text)
    except ValueError as exc:  # a JSONDecodeError, or an integer literal over 4300 digits
        raise StructureFileError("json", str(exc))
    if not isinstance(doc, dict):
        raise StructureFileError("json", "top level must be an object")
    version = doc.get("format_version")
    if version != FORMAT_VERSION:
        raise StructureFileError("format_version", f"expected {FORMAT_VERSION}, got {version!r}")
    sf = StructureFile()
    sf.structure = _structure_from_block(doc, "structure")
    ch = sf.chart
    n, r1, r2 = ch.base_dim, ch.rank1, ch.rank2
    if "H" in doc:
        sf.mc_h = _load_sparse(ch, doc["H"], (r1, r2), "H", allow_unknown=True)
    if "K" in doc:
        kt = _load_sparse(ch, doc["K"], (r2, r2, r2), "K", alt_slots=3, allow_unknown=True)
        sf.mc_k = {}
        for i in range(r2):
            for j in range(i + 1, r2):
                for l in range(j + 1, r2):
                    v = kt[i][j][l]
                    if v is UNKNOWN or not v.is_zero:
                        sf.mc_k[(i + 1, j + 1, l + 1)] = v
    if "gamma" in doc:
        gblock = dict(_object(doc["gamma"], "gamma"))
        gblock.setdefault("base_dim", n)
        gblock.setdefault("rank1", r2)
        gblock.setdefault("rank2", r1)
        if gblock["base_dim"] != n or gblock["rank1"] != r2 or gblock["rank2"] != r1:
            raise StructureFileError("gamma", "dual block must have swapped ranks")
        sf.dual = _structure_from_block(gblock, "gamma")
    if "morphism" in doc:
        where = "morphism"
        mb = _object(doc["morphism"], where)
        cod = mb.get("codomain", "self")
        if cod == "self":
            sf.morphism_codomain = sf.structure
        elif cod == "dual":
            if sf.dual is None:
                raise StructureFileError(where, "codomain 'dual' needs a gamma block")
            sf.morphism_codomain = sf.dual
        elif isinstance(cod, dict):
            sf.morphism_codomain = _structure_from_block(cod, "morphism.codomain")
        elif cod != "double":
            raise StructureFileError(where, f"bad codomain {cod!r}")
        if cod == "double":  # both frames of the double have rank1 + rank2 vectors
            sf.morphism_codomain, r1c, r2c = cod, r1 + r2, r1 + r2
        else:
            r1c, r2c = sf.morphism_codomain.chart.rank1, sf.morphism_codomain.chart.rank2

        def matrix(field, rows, cols):
            raw = mb.get(field)
            if raw is None:
                raise StructureFileError(where, f"missing {field}")
            out = _rational_rows(raw, where, field)
            if len(out) != rows or any(len(r) != cols for r in out):
                raise StructureFileError(where, f"{field} must be {rows}x{cols}")
            return out

        f1 = matrix("f1", r1c, ch.rank1)
        f2 = matrix("f2", r2c, ch.rank2)
        f3 = [[[Fraction(0)] * r2c for _ in range(ch.rank1)] for _ in range(ch.rank1)]
        f3_entries = mb.get("f3", [])
        if not isinstance(f3_entries, list):
            raise StructureFileError(f"{where}.f3", "must be a list of entries")
        given = set()
        for pos, ent in enumerate(f3_entries):
            w = f"{where}.f3[{pos}]"
            idx = ent.get("idx") if isinstance(ent, dict) else None
            if not (isinstance(idx, list) and len(idx) == 3
                    and all(type(i) is int for i in idx) and "val" in ent):
                raise StructureFileError(w, "f3 entries are {idx: [a,b,k], val: ...}")
            a, b, k = idx
            if not (1 <= a <= ch.rank1 and 1 <= b <= ch.rank1 and 1 <= k <= r2c):
                raise StructureFileError(w, "f3 index out of range")
            if (a, b, k) in given:
                raise StructureFileError(w, f"duplicate slot {idx}")
            given.add((a, b, k))
            f3[a - 1][b - 1][k - 1] = _rational(ent["val"], w)
        sf.morphism = MorphismData(f1, f2, f3)
    if "subbundles" in doc:
        d = r1 + r2
        for name, sb in _object(doc["subbundles"], "subbundles").items():
            where = f"subbundles.{name}"
            sb = _object(sb, where)
            b1 = _rational_rows(sb.get("basis1", []), where, "basis1")
            b2 = _rational_rows(sb.get("basis2", []), where, "basis2")
            if any(len(r) != d for r in b1) or any(len(r) != d for r in b2):
                raise StructureFileError(where, f"basis vectors must have length {d}")
            sf.subbundles[name] = Subbundle(b1, b2)
    if "lwx" in doc:
        lb = _object(doc["lwx"], "lwx")
        sf.lwx = LWXStructure(ch, *[_load_sparse(ch, lb.get(name), shape, f"lwx.{name}", alt)
                                    for name, shape, alt in lwx_layout(ch)],
                              hyperbolic_pairing(r1, r2))
    return sf


def structure_block(s: Lie2Structure, extra=None) -> dict:
    """The file document of a structure, with extra blocks appended."""
    ch = s.chart
    doc = {
        "format_version": FORMAT_VERSION,
        "base_dim": ch.base_dim,
        "rank1": ch.rank1,
        "rank2": ch.rank2,
        **dual_block(s),
    }
    if extra:
        doc.update(extra)
    return doc


def render_structure(s: Lie2Structure, extra=None) -> str:
    return render_json(structure_block(s, extra))


def dual_block(dual: Lie2Structure):
    """The nonempty mu1..mu5 blocks of a structure, in that order: a gamma
    block, and the body of a structure file."""
    block = {name: _dump_sparse(getattr(dual, name), shape, alt, name)
             for name, shape, alt in lie2_layout(dual.chart)}
    return {k: v for k, v in block.items() if v}


def mc_blocks(m: MCElement):
    out = {}
    h = _dump_sparse(m.h, (m.chart.rank1, m.chart.rank2))
    if h:
        out["H"] = h
    k = [
        {"idx": list(idx), "val": _render_value(v)}
        for idx, v in sorted(m.k.items())
        if not v.is_zero
    ]
    if k:
        out["K"] = k
    return out


def lwx_block(e: LWXStructure):
    """Every tensor block of a double, empty ones included."""
    return {name: _dump_sparse(getattr(e, name), shape, alt, name)
            for name, shape, alt in lwx_layout(e.chart)}
