"""JSON structure files: exact tensors as sparse index/value lists.

Rationals are strings "p/q" (or plain integers); base-polynomial values
are objects mapping a comma-separated exponent vector over the base
variables to a rational, e.g. {"2,0": "3/4", "0,0": "1"}.  Indices are
1-based.  Alternating tensors may be given on any index tuples; slots
whose signed images are omitted are completed automatically, and explicit
entries that contradict the required symmetry are rejected.
"""

from __future__ import annotations

import json
from fractions import Fraction

from .gradedpoly import Chart, Poly, X
from .multivectors import MCElement
from .structures import Lie2Structure, MorphismData
from .lwx import LWXStructure, Subbundle, hyperbolic_pairing

FORMAT_VERSION = 1

# Input limits, checked before any tensor is allocated or any power expanded.
MAX_RANK = 8  # rank1, rank2 of every structure block
MAX_BASE_DIM = 8
MAX_EXPONENT = 32  # per base variable, in polynomial values


class StructureFileError(ValueError):
    """Malformed input file; carries a location string."""

    def __init__(self, location, message):
        super().__init__(f"{location}: {message}")
        self.location = location


UNKNOWN = object()  # sentinel for "?" slots


def _parse_value(chart: Chart, v, where: str, allow_unknown=False):
    if v == "?" and allow_unknown:
        return UNKNOWN
    if isinstance(v, bool):
        raise StructureFileError(where, "boolean is not a valid value")
    if isinstance(v, int):
        return Poly.const(chart, v)
    if isinstance(v, str):
        try:
            return Poly.const(chart, Fraction(v))
        except (ValueError, ZeroDivisionError) as exc:
            raise StructureFileError(where, f"bad rational {v!r}: {exc}")
    if isinstance(v, dict):
        acc = Poly.zero(chart)
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
            mono = Poly.const(chart, Fraction(str(coeff)))
            for i, p in enumerate(parts):
                for _ in range(p):
                    mono = mono * Poly.var(chart, X, i + 1)
            acc = acc + mono
        return acc
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


def _perm3_signs(trip):
    (i, j, k) = trip
    yield (i, j, k), 1
    yield (j, k, i), 1
    yield (k, i, j), 1
    yield (j, i, k), -1
    yield (i, k, j), -1
    yield (k, j, i), -1


def _load_sparse(chart, entries, shape, name, alt_slots=0, allow_unknown=False):
    """Tensor from sparse entries; first alt_slots indices alternate."""
    def build(dims):
        if not dims:
            return None
        return [build(dims[1:]) for _ in range(dims[0])]

    tensor = build(list(shape))
    given = {}
    for pos, ent in enumerate(entries or []):
        where = f"{name}[{pos}]"
        if not isinstance(ent, dict) or "idx" not in ent or "val" not in ent:
            raise StructureFileError(where, "entry must be {\"idx\": [...], \"val\": ...}")
        idx = ent["idx"]
        if len(idx) != len(shape):
            raise StructureFileError(where, f"expected {len(shape)} indices")
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
            images = [(p + key[3:], val, sg) for p, sg in _perm3_signs(trip)]
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

    def finalize(node, dims):
        if not dims:
            return Poly.zero(chart) if node is None else node
        return [finalize(sub, dims[1:]) for sub in node]

    return finalize(tensor, list(shape))


def _dump_sparse(tensor, shape, alt_slots=0):
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


def _structure_from_block(block, where: str, chart=None):
    for field in ("base_dim", "rank1", "rank2"):
        if field not in block:
            raise StructureFileError(where, f"missing {field}")
        if not isinstance(block[field], int) or block[field] < 0:
            raise StructureFileError(where, f"{field} must be a non-negative integer")
        limit = MAX_BASE_DIM if field == "base_dim" else MAX_RANK
        if block[field] > limit:
            raise StructureFileError(where, f"{field} {block[field]} exceeds the limit {limit}")
    ch = Chart(block["base_dim"], block["rank1"], block["rank2"])
    n, r1, r2 = ch.base_dim, ch.rank1, ch.rank2
    s = Lie2Structure(
        ch,
        _load_sparse(ch, block.get("mu1"), (r1, n), f"{where}.mu1"),
        _load_sparse(ch, block.get("mu2"), (r2, r1), f"{where}.mu2"),
        _load_sparse(ch, block.get("mu3"), (r1, r1, r1), f"{where}.mu3", alt_slots=2),
        _load_sparse(ch, block.get("mu4"), (r1, r2, r2), f"{where}.mu4"),
        _load_sparse(ch, block.get("mu5"), (r1, r1, r1, r2), f"{where}.mu5", alt_slots=3),
    )
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
        self.morphism_codomain = None
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
    except json.JSONDecodeError as exc:
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
        gblock = dict(doc["gamma"])
        gblock.setdefault("base_dim", n)
        gblock.setdefault("rank1", r2)
        gblock.setdefault("rank2", r1)
        if gblock["base_dim"] != n or gblock["rank1"] != r2 or gblock["rank2"] != r1:
            raise StructureFileError("gamma", "dual block must have swapped ranks")
        sf.dual = _structure_from_block(gblock, "gamma")
    if "morphism" in doc:
        mb = doc["morphism"]
        where = "morphism"
        cod = mb.get("codomain", "self")
        if cod == "self":
            cod_chart = ch
        elif cod == "dual":
            if sf.dual is None:
                raise StructureFileError(where, "codomain 'dual' needs a gamma block")
            cod_chart = sf.dual.chart
        elif isinstance(cod, dict):
            sf.morphism_codomain = _structure_from_block(cod, "morphism.codomain")
            cod_chart = sf.morphism_codomain.chart
        else:
            raise StructureFileError(where, f"bad codomain {cod!r}")
        if cod == "dual":
            sf.morphism_codomain = sf.dual
        elif cod == "self":
            sf.morphism_codomain = sf.structure

        def matrix(field, rows, cols):
            raw = mb.get(field)
            if raw is None:
                raise StructureFileError(where, f"missing {field}")
            if len(raw) != rows or any(len(r) != cols for r in raw):
                raise StructureFileError(where, f"{field} must be {rows}x{cols}")
            try:
                return [[Fraction(str(v)) for v in r] for r in raw]
            except ValueError as exc:
                raise StructureFileError(where, f"bad rational in {field}: {exc}")

        r1c, r2c = cod_chart.rank1, cod_chart.rank2
        f1 = matrix("f1", r1c, ch.rank1)
        f2 = matrix("f2", r2c, ch.rank2)
        f3 = [[[Fraction(0)] * r2c for _ in range(ch.rank1)] for _ in range(ch.rank1)]
        for pos, ent in enumerate(mb.get("f3", [])):
            w = f"{where}.f3[{pos}]"
            idx = ent.get("idx")
            if not idx or len(idx) != 3:
                raise StructureFileError(w, "f3 entries are {idx: [a,b,k], val: ...}")
            a, b, k = idx
            if not (1 <= a <= ch.rank1 and 1 <= b <= ch.rank1 and 1 <= k <= r2c):
                raise StructureFileError(w, "f3 index out of range")
            f3[a - 1][b - 1][k - 1] = Fraction(str(ent.get("val", 0)))
        sf.morphism = MorphismData(f1, f2, f3)
    if "subbundles" in doc:
        d = r1 + r2
        for name, sb in doc["subbundles"].items():
            where = f"subbundles.{name}"
            try:
                b1 = [[Fraction(str(v)) for v in row] for row in sb.get("basis1", [])]
                b2 = [[Fraction(str(v)) for v in row] for row in sb.get("basis2", [])]
            except ValueError as exc:
                raise StructureFileError(where, f"bad rational: {exc}")
            if any(len(r) != d for r in b1) or any(len(r) != d for r in b2):
                raise StructureFileError(where, f"basis vectors must have length {d}")
            sf.subbundles[name] = Subbundle(b1, b2)
    if "lwx" in doc:
        lb = doc["lwx"]
        d = r1 + r2
        e = LWXStructure.empty(ch)
        e.partial = _load_sparse(ch, lb.get("partial"), (d, d), "lwx.partial")
        e.rho = _load_sparse(ch, lb.get("rho"), (d, n), "lwx.rho")
        e.c11 = _load_sparse(ch, lb.get("c11"), (d, d, d), "lwx.c11", alt_slots=2)
        e.c12 = _load_sparse(ch, lb.get("c12"), (d, d, d), "lwx.c12")
        e.c21 = _load_sparse(ch, lb.get("c21"), (d, d, d), "lwx.c21")
        e.omega = _load_sparse(ch, lb.get("omega"), (d, d, d, d), "lwx.omega", alt_slots=3)
        e.pairing = hyperbolic_pairing(r1, r2)
        sf.lwx = e
    return sf


def render_structure(s: Lie2Structure, extra=None) -> str:
    ch = s.chart
    doc = {
        "format_version": FORMAT_VERSION,
        "base_dim": ch.base_dim,
        "rank1": ch.rank1,
        "rank2": ch.rank2,
        "mu1": _dump_sparse(s.mu1, (ch.rank1, ch.base_dim)),
        "mu2": _dump_sparse(s.mu2, (ch.rank2, ch.rank1)),
        "mu3": _dump_sparse(s.mu3, (ch.rank1,) * 3, alt_slots=2),
        "mu4": _dump_sparse(s.mu4, (ch.rank1, ch.rank2, ch.rank2)),
        "mu5": _dump_sparse(s.mu5, (ch.rank1,) * 3 + (ch.rank2,), alt_slots=3),
    }
    for name in ("mu1", "mu2", "mu3", "mu4", "mu5"):
        if not doc[name]:
            del doc[name]
    if extra:
        doc.update(extra)
    return json.dumps(doc, indent=2, sort_keys=False)


def dual_block(dual: Lie2Structure):
    ch = dual.chart
    block = {
        "mu1": _dump_sparse(dual.mu1, (ch.rank1, ch.base_dim)),
        "mu2": _dump_sparse(dual.mu2, (ch.rank2, ch.rank1)),
        "mu3": _dump_sparse(dual.mu3, (ch.rank1,) * 3, alt_slots=2),
        "mu4": _dump_sparse(dual.mu4, (ch.rank1, ch.rank2, ch.rank2)),
        "mu5": _dump_sparse(dual.mu5, (ch.rank1,) * 3 + (ch.rank2,), alt_slots=3),
    }
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
    d = e.d1
    n = e.chart.base_dim
    return {
        "partial": _dump_sparse(e.partial, (d, d)),
        "rho": _dump_sparse(e.rho, (d, n)),
        "c11": _dump_sparse(e.c11, (d, d, d), alt_slots=2),
        "c12": _dump_sparse(e.c12, (d, d, d)),
        "c21": _dump_sparse(e.c21, (d, d, d)),
        "omega": _dump_sparse(e.omega, (d, d, d, d), alt_slots=3),
    }
