"""Check reports: per-identity residual records with pass/fail verdicts."""

from __future__ import annotations

import functools
import hashlib
import json
from dataclasses import dataclass, field
from fractions import Fraction
from json.encoder import c_make_encoder, encode_basestring_ascii

from .gradedpoly import Poly

ENGINE_CONVENTION = "pair-signs {p,x}=-1 {xi_,xi^}=-1 {th_,th^}=+1"


def render_residual(value, scale=1) -> str | None:
    """Canonical text of a residual, each nonzero polynomial in it
    multiplied by scale first; None when it vanishes."""
    if value is None:
        return None
    if isinstance(value, Poly):
        if value.is_zero:
            return None
        return (value if scale == 1 else value * scale).render()
    if isinstance(value, (list, tuple)):
        parts = []
        for i, v in enumerate(value):
            if isinstance(v, Poly):
                if not v.is_zero:
                    parts.append(f"[{i + 1}] {(v if scale == 1 else v * scale).render()}")
            elif v:
                parts.append(f"[{i + 1}] {v}")
        return "; ".join(parts) if parts else None
    return None if not value else str(value)


@dataclass
class CheckRecord:
    check_id: str
    law: str
    passed: bool
    residual: str | None = None

    def to_dict(self):
        d = {"id": self.check_id, "law": self.law, "passed": self.passed}
        if self.residual is not None:
            d["residual"] = self.residual
        return d


@dataclass
class CheckReport:
    """Records in order.  `add` renders each residual times `scale`: a check
    that runs on tensors scaled by d sets it to 1/d^2 while it adds its
    quadratic residuals (see structures.check_lie2_axioms)."""

    title: str
    records: list = field(default_factory=list)
    meta: dict = field(default_factory=dict)
    scale: int | Fraction = 1

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.records)

    @property
    def failures(self):
        return [r for r in self.records if not r.passed]

    def add(self, check_id: str, law: str, residual) -> bool:
        text = render_residual(residual, self.scale)
        ok = text is None
        self.records.append(CheckRecord(check_id, law, ok, text))
        return ok

    def add_flag(self, check_id: str, law: str, ok: bool, detail: str | None = None):
        self.records.append(CheckRecord(check_id, law, ok, None if ok else detail))
        return ok

    def extend(self, other: "CheckReport"):
        self.records.extend(other.records)
        for k, v in other.meta.items():
            self.meta.setdefault(k, v)
        return self

    def summary(self):
        total = len(self.records)
        good = sum(1 for r in self.records if r.passed)
        return {"total": total, "passed": good, "failed": total - good}

    def to_dict(self):
        return {
            "title": self.title,
            "engine": {"bracket_convention": ENGINE_CONVENTION},
            "meta": self.meta,
            "checks": [r.to_dict() for r in self.records],
            "summary": self.summary(),
        }


def digest(obj) -> str:
    """Stable short digest of any JSON-serializable input description."""
    blob = json.dumps(obj, sort_keys=True, default=str).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


_CONTAINERS = (dict, list, tuple)


def _json_default(o):
    raise TypeError(f"Object of type {o.__class__.__name__} is not JSON serializable")


@functools.cache
def _level(depth):
    """(C encoder, item separator, closing indent) of a container at this
    depth.  The encoder is for a container that holds only scalars: its
    item separator carries the newline and the indent of its items."""
    sep = ",\n" + "  " * (depth + 1)
    enc = c_make_encoder(None, _json_default, encode_basestring_ascii, None,
                         ": ", sep, False, False, True)
    return enc, sep, "\n" + "  " * depth


def _key_text(k):
    if not isinstance(k, str):
        if not (k is None or isinstance(k, (int, float))):
            raise TypeError(f"keys must be str, int, float, bool or None, "
                            f"not {k.__class__.__name__}")
        k = "".join(_level(0)[0](k, 0))
    return encode_basestring_ascii(k)


def _render(o, depth):
    enc, sep, close = _level(depth)
    if not isinstance(o, _CONTAINERS):
        return "".join(enc(o, 0))
    if not o:
        return "{}" if isinstance(o, dict) else "[]"
    for v in (o.values() if isinstance(o, dict) else o):
        if isinstance(v, _CONTAINERS):
            break
    else:
        text = "".join(enc(o, 0))
        return f"{text[0]}{sep[1:]}{text[1:-1]}{close}{text[-1]}"
    if isinstance(o, dict):
        body = sep.join([f"{_key_text(k)}: {_render(v, depth + 1)}" for k, v in o.items()])
        return f"{{{sep[1:]}{body}{close}}}"
    body = sep.join([_render(v, depth + 1) for v in o])
    return f"[{sep[1:]}{body}{close}]"


def render_json(obj) -> str:
    """Exactly json.dumps(obj, indent=2) for an acyclic obj.  With an indent,
    json.dumps runs its pure-Python encoder; here each container that holds
    only scalars goes through the C encoder in one call."""
    if c_make_encoder is None:
        return json.dumps(obj, indent=2)
    return _render(obj, 0)
