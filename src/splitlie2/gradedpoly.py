"""Exact graded-commutative polynomial arithmetic on a shifted-cotangent chart.

Variables come in six kinds with fixed total degree and a fixed triple grading:

    kind        rendered   degree   grading
    base        x1         0        (0,0,0)
    fiber1      xi1        1        (0,1,0)
    fiber2      th1        2        (1,1,0)
    momentum0   p1         3        (1,1,1)
    momentum1   xi_1       2        (1,0,1)
    momentum2   th_1       1        (0,0,1)

plus an optional seventh kind of degree-0 central "unknowns" (u1, u2, ...)
used by the linear solver.  Odd-degree variables anticommute and square to
zero; even variables commute with everything.  Coefficients are exact
rationals: constructors store an integral value as a plain int and keep
Fraction for the others.  Products and sums may leave an integral
Fraction in place; it compares, hashes and renders like the int.  No zero
coefficient is ever stored, so equality to zero is decidable by comparing
against the empty polynomial.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

X, XI, TH, P, XID, THD, UNK = range(7)

KIND_DEGREE = (0, 1, 2, 3, 2, 1, 0)
KIND_TRIDEG = ((0, 0, 0), (0, 1, 0), (1, 1, 0), (1, 1, 1), (1, 0, 1), (0, 0, 1), (0, 0, 0))
KIND_ODD = tuple(d % 2 == 1 for d in KIND_DEGREE)
KIND_NAME = ("x", "xi", "th", "p", "xi_", "th_", "u")

INHOMOGENEOUS = "inhomogeneous"

# A monomial is a tuple of (kind, index, exponent) factors sorted by
# (kind, index); the empty tuple is the constant monomial 1.
Mono = tuple
ONE_MONO: Mono = ()


class ChartMismatchError(ValueError):
    pass


@dataclass(frozen=True)
class Chart:
    """Dimensions of one chart: base manifold and the two fiber ranks."""

    base_dim: int
    rank1: int
    rank2: int
    unknowns: int = 0

    def __post_init__(self):
        if min(self.base_dim, self.rank1, self.rank2, self.unknowns) < 0:
            raise ValueError("chart dimensions must be non-negative")

    def kind_rank(self, kind: int) -> int:
        if kind in (X, P):
            return self.base_dim
        if kind in (XI, XID):
            return self.rank1
        if kind in (TH, THD):
            return self.rank2
        return self.unknowns

    def swapped(self) -> "Chart":
        """Chart with the two fiber ranks exchanged (dual-role chart)."""
        return Chart(self.base_dim, self.rank2, self.rank1, self.unknowns)

    def with_unknowns(self, m: int) -> "Chart":
        return Chart(self.base_dim, self.rank1, self.rank2, m)


def mono_degree(m: Mono) -> int:
    return sum(KIND_DEGREE[k] * e for k, _, e in m)


def mono_tridegree(m: Mono) -> tuple:
    a = b = c = 0
    for k, _, e in m:
        t = KIND_TRIDEG[k]
        a += t[0] * e
        b += t[1] * e
        c += t[2] * e
    return (a, b, c)


def mono_mul(m1: Mono, m2: Mono):
    """Product of two canonical monomials.

    Returns (sign, mono); sign 0 means the product vanished (odd square).
    The sign is the parity of the odd-odd transpositions needed to merge:
    each odd factor of m2 passes the odd factors of m1 not yet merged.
    """
    if not m1:
        return 1, m2
    if not m2:
        return 1, m1
    odd_left = 0
    for f in m1:
        if KIND_ODD[f[0]]:
            odd_left += 1
    sign = 1
    out = []
    i = j = 0
    n1, n2 = len(m1), len(m2)
    while i < n1 and j < n2:
        f1, f2 = m1[i], m2[j]
        k1, k2 = f1[0], f2[0]
        d = f1[1] - f2[1] if k1 == k2 else k1 - k2
        if d < 0:
            out.append(f1)
            i += 1
            if KIND_ODD[k1]:
                odd_left -= 1
        elif d > 0:
            if odd_left & 1 and KIND_ODD[k2]:
                sign = -sign
            out.append(f2)
            j += 1
        else:
            if KIND_ODD[k1]:
                return 0, ONE_MONO
            out.append((k1, f1[1], f1[2] + f2[2]))
            i += 1
            j += 1
    out.extend(m1[i:])
    out.extend(m2[j:])
    return sign, tuple(out)


def mono_from_sequence(seq):
    """Canonicalize a sequence of (kind, index) single factors.

    Returns (sign, mono); sign 0 when some odd factor repeats.
    """
    n = len(seq)
    sign = 1
    for i in range(n):
        ki, oi = seq[i], KIND_ODD[seq[i][0]]
        if not oi:
            continue
        for j in range(i + 1, n):
            if seq[j] == ki:
                return 0, ONE_MONO
            if KIND_ODD[seq[j][0]] and seq[j] < ki:
                sign = -sign
    counts = {}
    for f in seq:
        counts[f] = counts.get(f, 0) + 1
    mono = tuple((k, idx, e) for (k, idx), e in sorted(counts.items()))
    return sign, mono


def mono_render(m: Mono) -> str:
    if not m:
        return "1"
    parts = []
    for k, idx, e in m:
        name = f"{KIND_NAME[k]}{idx}"
        parts.append(name if e == 1 else f"{name}^{e}")
    return " ".join(parts)


def _coerce_coeff(c):
    """An exact coefficient: int when integral, else Fraction."""
    if isinstance(c, int):
        return int(c)
    if isinstance(c, str):
        c = Fraction(c)
    if isinstance(c, Fraction):
        return c.numerator if c.denominator == 1 else c
    raise TypeError(f"cannot use {type(c).__name__} as a coefficient")


class Poly:
    """Sparse graded polynomial over one chart, immutable by convention."""

    __slots__ = ("chart", "terms")

    def __init__(self, chart: Chart, terms=None):
        self.chart = chart
        if terms is None:
            self.terms = {}
        else:
            self.terms = {
                m: c.numerator if type(c) is Fraction and c.denominator == 1 else c
                for m, c in terms.items()
                if c != 0
            }

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(chart: Chart) -> "Poly":
        return Poly(chart)

    @staticmethod
    def const(chart: Chart, c) -> "Poly":
        c = _coerce_coeff(c)
        if c == 0:
            return Poly(chart)
        return Poly(chart, {ONE_MONO: c})

    @staticmethod
    def var(chart: Chart, kind: int, index: int) -> "Poly":
        if not 1 <= index <= chart.kind_rank(kind):
            raise ValueError(
                f"index {index} out of range for kind {KIND_NAME[kind]!r} on {chart}"
            )
        return Poly(chart, {((kind, index, 1),): 1})

    # -- ring operations ---------------------------------------------------

    def _check(self, other: "Poly"):
        if self.chart is not other.chart and self.chart != other.chart:
            raise ChartMismatchError(f"chart mismatch: {self.chart} vs {other.chart}")

    def __add__(self, other):
        if type(other) is not Poly and isinstance(other, (int, Fraction)):
            other = Poly.const(self.chart, other)
        self._check(other)
        # polys are immutable, so a zero operand can hand back the other one
        if not other.terms:
            return self
        if not self.terms:
            return other
        terms = dict(self.terms)
        for m, c in other.terms.items():
            c2 = terms.get(m, 0) + c
            if c2 == 0:
                terms.pop(m, None)
            else:
                terms[m] = c2
        out = Poly.__new__(Poly)
        out.chart, out.terms = self.chart, terms
        return out

    __radd__ = __add__

    def __neg__(self):
        out = Poly.__new__(Poly)
        out.chart = self.chart
        out.terms = {m: -c for m, c in self.terms.items()}
        return out

    def __sub__(self, other):
        if type(other) is not Poly and isinstance(other, (int, Fraction)):
            other = Poly.const(self.chart, other)
        self._check(other)
        if not other.terms:
            return self
        terms = dict(self.terms)
        for m, c in other.terms.items():
            c2 = terms.get(m, 0) - c
            if c2 == 0:
                terms.pop(m, None)
            else:
                terms[m] = c2
        out = Poly.__new__(Poly)
        out.chart, out.terms = self.chart, terms
        return out

    def __rsub__(self, other):
        return Poly.const(self.chart, other) - self

    def __mul__(self, other):
        if type(other) is not Poly and isinstance(other, (int, Fraction, str)):
            c = _coerce_coeff(other)
            if c == 0:
                return Poly(self.chart)
            out = Poly.__new__(Poly)
            out.chart = self.chart
            out.terms = {m: v * c for m, v in self.terms.items()}
            return out
        self._check(other)
        terms = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                s, m = mono_mul(m1, m2)
                if s == 0:
                    continue
                c = c1 * c2
                c = terms.get(m, 0) + (c if s > 0 else -c)
                if c == 0:
                    terms.pop(m, None)
                else:
                    terms[m] = c
        out = Poly.__new__(Poly)
        out.chart, out.terms = self.chart, terms
        return out

    def __rmul__(self, other):
        return self.__mul__(other)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Poly.const(self.chart, other)
        return isinstance(other, Poly) and self.chart == other.chart and self.terms == other.terms

    def __hash__(self):
        return hash((self.chart, frozenset(self.terms.items())))

    def __bool__(self):
        return bool(self.terms)

    @property
    def is_zero(self) -> bool:
        return not self.terms

    # -- grading -----------------------------------------------------------

    def degree(self):
        """Total degree, or the inhomogeneous marker, 0 for the zero poly."""
        degs = {mono_degree(m) for m in self.terms}
        if not degs:
            return 0
        if len(degs) > 1:
            return INHOMOGENEOUS
        return degs.pop()

    def project_tridegree(self, t) -> "Poly":
        t = tuple(t)
        return Poly(self.chart, {m: c for m, c in self.terms.items() if mono_tridegree(m) == t})

    def tridegree_components(self):
        """All nonzero tridegree components, as a sorted dict."""
        comps = {}
        for m, c in self.terms.items():
            comps.setdefault(mono_tridegree(m), {})[m] = c
        return {t: Poly(self.chart, d) for t, d in sorted(comps.items())}

    # -- structure queries ---------------------------------------------------

    def coefficient(self, mono: Mono):
        return self.terms.get(mono, 0)

    def lift(self, chart: Chart) -> "Poly":
        """Reinterpret on another chart; indices must stay in range."""
        if chart == self.chart:
            return self
        for m in self.terms:
            for k, idx, _ in m:
                if idx > chart.kind_rank(k):
                    raise ChartMismatchError(
                        f"cannot lift: index {idx} of kind {KIND_NAME[k]!r} "
                        f"exceeds the target chart"
                    )
        return Poly(chart, dict(self.terms))

    # -- rendering -----------------------------------------------------------

    def render(self) -> str:
        if not self.terms:
            return "0"
        keys = sorted(self.terms, key=lambda m: (mono_degree(m), m))
        chunks = []
        for m in keys:
            c = self.terms[m]
            body = mono_render(m)
            mag = -c if c < 0 else c
            if body == "1":
                piece = str(mag)
            elif mag == 1:
                piece = body
            else:
                piece = f"{mag} {body}"
            if not chunks:
                chunks.append(piece if c > 0 else f"-{piece}")
            else:
                chunks.append(("+ " if c > 0 else "- ") + piece)
        return " ".join(chunks)

    def __repr__(self):
        return f"Poly({self.render()})"


# -- convenience generators ------------------------------------------------

def x_(chart, i):
    return Poly.var(chart, X, i)


def xi_up(chart, j):
    return Poly.var(chart, XI, j)


def th_up(chart, k):
    return Poly.var(chart, TH, k)


def p_(chart, i):
    return Poly.var(chart, P, i)


def xi_dn(chart, j):
    return Poly.var(chart, XID, j)


def th_dn(chart, k):
    return Poly.var(chart, THD, k)


def unknown(chart, a):
    return Poly.var(chart, UNK, a)
