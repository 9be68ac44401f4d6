"""Structure constants of split Lie 2-algebroids and their direct axioms.

A structure over a chart (n, r1, r2) is the tensor tuple (mu1..mu5) with
base-polynomial entries:

    anchor      a(E_j)       = mu1[j][i] d/dx_i          (r1 x n)
    unary       l1(F_j)      = mu2[j][i] E_i             (r2 x r1)
    binary      l2(E_i, E_j) = mu3[i][j][k] E_k          (r1 x r1 x r1)
    mixed       l2(E_i, F_j) = mu4[i][j][k] F_k          (r1 x r2 x r2)
    ternary     l3(E_i,E_j,E_k) = mu5[i][j][k][l] F_l    (r1^3 x r2)

where E_* is the degree -1 frame and F_* the degree -2 frame.  mu3 is
antisymmetric in its first two slots and mu5 in its first three.  Sections
are coefficient vectors of base polynomials; all bracket evaluations apply
the anchor-derivation rule in the function coefficients.

The same data encodes as a single degree-4 generating function whose
self-bracket vanishes exactly when the axioms hold; both routes are
implemented so each can check the other.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .bracket import derived_table, nilpotency_check
from .gradedpoly import (
    ONE_MONO,
    THD,
    X,
    XID,
    Chart,
    Poly,
    mono_tridegree,
    p_,
    th_dn,
    th_up,
    x_,
    xi_dn,
    xi_up,
)
from .linalg import invert
from .report import CheckReport

MU_TRIDEGREES = ((2, 1, 1), (1, 2, 1), (0, 3, 1))
GAMMA_TRIDEGREES = ((2, 1, 1), (1, 1, 2), (0, 1, 3))


class ShapeError(ValueError):
    pass


def _coerce_entry(chart, v) -> Poly:
    if v is None:
        return Poly.zero(chart)
    if isinstance(v, Poly):
        if v.chart != chart:
            return v.lift(chart)
        return v
    return Poly.const(chart, v)


def _tensor(chart, shape, data, name):
    """Deep-coerce a nested list into base polynomials, checking the shape."""

    def build(dims, node):
        if not dims:
            return _coerce_entry(chart, node)
        if node is None:
            return [build(dims[1:], None) for _ in range(dims[0])]
        if len(node) != dims[0]:
            raise ShapeError(f"{name}: expected axis of length {dims[0]}, got {len(node)}")
        return [build(dims[1:], sub) for sub in node]

    return build(list(shape), data)


def map_tensor(fn, t):
    """A nested tensor with fn applied to each of its polynomial entries."""
    if isinstance(t, Poly):
        return fn(t)
    return [map_tensor(fn, sub) for sub in t]


def point_value(p: Poly):
    """The value of a base polynomial over a point base (base_dim 0), where
    it is a constant: an int, or a Fraction.

    The axiom checks turn every tensor entry into its value once, at their
    entry, and run the section calculus on plain numbers (see Lie2Ops)."""
    return p.terms.get(ONE_MONO, 0)


def tensor_entries(t, shape):
    """The (index_tuple, entry) pairs of a nested tensor, in index order."""
    level = [((), t)]
    for _ in shape:
        level = [(idx + (i,), sub) for idx, node in level for i, sub in enumerate(node)]
    return level


def alternation_failures(t, shape, arity):
    """Index tuples of the entries of a nested tensor that break its
    alternation in the first `arity` slots: the entry plus the one with
    slots q and q + 1 swapped is nonzero for some q < arity - 1."""
    entry = dict(tensor_entries(t, shape))
    bad = []
    for idx, c in entry.items():
        for q in range(arity - 1):
            if c + entry[idx[:q] + (idx[q + 1], idx[q]) + idx[q + 2:]]:
                bad.append(idx)
                break
    return bad


def signed_permutations(trip):
    """(permuted triple, sign) for the six permutations of a triple."""
    i, j, k = trip
    return [((i, j, k), 1), ((j, k, i), 1), ((k, i, j), 1),
            ((j, i, k), -1), ((i, k, j), -1), ((k, j, i), -1)]


def lie2_layout(chart):
    """(name, shape, alternating slots) of mu1..mu5 on chart, in file order:
    mu3 alternates in its first 2 slots and mu5 in its first 3."""
    n, r1, r2 = chart.base_dim, chart.rank1, chart.rank2
    return (("mu1", (r1, n), 0), ("mu2", (r2, r1), 0), ("mu3", (r1, r1, r1), 2),
            ("mu4", (r1, r2, r2), 0), ("mu5", (r1, r1, r1, r2), 3))


@dataclass
class Lie2Structure:
    chart: Chart
    mu1: list
    mu2: list
    mu3: list
    mu4: list
    mu5: list

    @staticmethod
    def build(chart: Chart, mu1=None, mu2=None, mu3=None, mu4=None, mu5=None) -> "Lie2Structure":
        return Lie2Structure(chart, *[
            _tensor(chart, shape, data, name)
            for (name, shape, _), data in zip(lie2_layout(chart), (mu1, mu2, mu3, mu4, mu5))])

    @staticmethod
    def zero(chart: Chart) -> "Lie2Structure":
        return Lie2Structure.build(chart)

    def symmetry_violations(self):
        """Entries breaking the required antisymmetries, as readable strings."""
        bad = []
        for name, shape, alt in lie2_layout(self.chart):
            if alt:
                what = "not antisymmetric" if alt == 2 else "not alternating"
                bad += [name + "".join(f"[{i + 1}]" for i in idx) + " " + what
                        for idx in alternation_failures(getattr(self, name), shape, alt)]
        return sorted(bad)

    def entries(self):
        """Every tensor entry, mu1 to mu5."""
        for name, shape, _ in lie2_layout(self.chart):
            for _, e in tensor_entries(getattr(self, name), shape):
                yield e

    def map_entries(self, fn, chart: Chart | None = None) -> "Lie2Structure":
        """The structure with fn applied to every entry, on `chart` if given."""
        return Lie2Structure(chart or self.chart, *[
            map_tensor(fn, getattr(self, name)) for name, _, _ in lie2_layout(self.chart)])

    def lift(self, chart: Chart) -> "Lie2Structure":
        return self.map_entries(lambda p: p.lift(chart), chart)

    def is_zero(self) -> bool:
        return all(e.is_zero for e in self.entries())

    def equals(self, other: "Lie2Structure") -> bool:
        return self.chart == other.chart and all(
            getattr(self, name) == getattr(other, name) for name, _, _ in lie2_layout(self.chart))


# -- section calculus --------------------------------------------------------


def basis_vector(chart, rank, i):
    v = [Poly.zero(chart) for _ in range(rank)]
    v[i] = Poly.const(chart, 1)
    return v


def vec_add(u, v):
    return [a + b for a, b in zip(u, v)]


def vec_sub(u, v):
    return [a - b for a, b in zip(u, v)]


def vec_scale(u, c):
    return [a * c for a in u]


def vec_nonzero(u):
    return any(u)


def d_dx(f: Poly, i: int) -> Poly:
    """Partial derivative of a base polynomial along x_i (1-based)."""
    out = {}
    for m, c in f.terms.items():
        for pos, (k, idx, e) in enumerate(m):
            if k == X and idx == i:
                rest = list(m)
                if e == 1:
                    rest.pop(pos)
                else:
                    rest[pos] = (k, idx, e - 1)
                mono = tuple(rest)
                c2 = out.get(mono, 0) + c * e
                if c2 == 0:
                    out.pop(mono, None)
                else:
                    out[mono] = c2
                break
    return Poly(f.chart, out)


def nonzero_coords(vec):
    """(index, entry) pairs of the nonzero entries of a coefficient vector."""
    return [(i, c) for i, c in enumerate(vec) if c]


def _sparse(t, depth):
    """A tensor with each last-axis vector, `depth` levels down, replaced by
    its nonzero (index, entry) pairs."""
    if depth == 0:
        return nonzero_coords(t)
    return [_sparse(sub, depth - 1) for sub in t]


def _coefficient_ring(chart, tensors):
    """(zero, one) of the coefficients that the tensors hold: plain numbers
    once an axiom check has taken each entry's point_value, else base
    polynomials on chart.  The first entry found decides."""
    for t in tensors:
        while type(t) is list and t:
            t = t[0]
        if type(t) is not list:
            return (Poly.zero(chart), Poly.const(chart, 1)) if isinstance(t, Poly) else (0, 1)
    return Poly.zero(chart), Poly.const(chart, 1)


class Lie2Ops:
    """Evaluation of the brackets on coefficient-vector sections.

    The structure tensors become sparse tables at construction: for each
    leading index tuple, the (output index, nonzero entry) pairs of its last
    axis.  Each bracket has one accumulating kernel (add_anchor, add_l1,
    add_l2_11, add_l2_12, add_l2_21, add_l3).  It adds sign * bracket, sign
    +1 or -1, into a coefficient list that the caller owns; add_anchor adds
    into one entry of it.  A kernel takes its sections in sparse form, the
    (index, coefficient) pairs of nonzero_coords, and loops only over those
    and the nonzero table entries.  A unit frame vector is [(i, ops._one)]:
    a product with that very object is skipped.  The public brackets
    (anchor, l1, l2_11, l2_12, l2_21, l3) wrap the kernels: each takes
    dense sections and returns a fresh list, or a base polynomial for
    anchor.  Section coefficients are base (even) polynomials, so products
    commute and the loop order cannot change a result.

    The coefficients are whatever the tensors hold: base polynomials, or,
    over a point base, the plain numbers of point_value.  The calculus uses
    only + - * and truthiness on them, and the anchor terms, the one place
    that differentiates, vanish over a point.
    """

    def __init__(self, s):
        self.s = s
        ch = s.chart
        # l2(m, x) = l2(x, m): both mixed brackets read mu4
        self._tables(ch, ch.rank1, ch.rank2, s.mu1, s.mu2, s.mu3, s.mu4, s.mu4, s.mu5)

    def _tables(self, chart, r1, r2, anchor, unary, b11, b12, b21, ternary):
        """Sparse tables anchor[a], unary[m], b11[a][b], b12[a][m], b21[a][m]
        and ternary[a][b][c], where a, b, c run over the degree -1 frame and
        m over the degree -2 frame.  b12 gives l2(x, m) and b21 gives
        l2(m, x), both indexed x slot first.  self.units is the FrameTables
        of the unit frames."""
        self.chart, self.r1, self.r2, self.n = chart, r1, r2, chart.base_dim
        self._zero, self._one = _coefficient_ring(chart, (unary, b11, b12, ternary))
        self._anchor = _sparse(anchor, 1)
        self._anchor_vars = sorted({i for row in self._anchor for i, _ in row})
        self._unary = _sparse(unary, 1)
        self._b11 = _sparse(b11, 2)
        self._b12 = _sparse(b12, 2)
        self._b21 = _sparse(b21, 2)
        self._ternary = _sparse(ternary, 3)
        # on a constant frame no anchor term survives, so the brackets of
        # unit vectors are the tensors themselves; the lists are shared
        # with the structure, and no consumer mutates them
        self.units = FrameTables(
            [self._unit(r1, i) for i in range(r1)],
            [self._unit(r2, m) for m in range(r2)],
            anchor, unary, b11, b12,
            [[b21[a][m] for a in range(r1)] for m in range(r2)],
            ternary,
        )

    def _unit(self, rank, i):
        """The i-th unit coefficient vector of length rank."""
        v = [self._zero] * rank
        v[i] = self._one
        return v

    def _gradient(self, f: Poly):
        """x_i-derivatives of f for the coordinates some anchor row uses."""
        return {i: d_dx(f, i + 1) for i in self._anchor_vars}

    # -- kernels: out += sign * bracket, sections as (index, coefficient) pairs

    def _add_leibniz(self, out, sign, table, us, vs):
        """out += sign * (sum of u_a v_b table[a][b] + sum of a(u) v_k): a
        two-slot bracket's table term and its anchor term on the second slot."""
        one = self._one
        for a, ua in us:
            row = table[a]
            if not any(row):
                continue
            for b, vb in vs:
                entries = row[b]
                if entries:
                    c = vb if ua is one else ua if vb is one else ua * vb
                    if c:
                        for k, t in entries:
                            if c is not one:
                                t = c * t
                            out[k] = out[k] + t if sign > 0 else out[k] - t
        if self._anchor_vars:
            for k, c in vs:
                self.add_anchor(out, k, sign, us, c)

    def add_anchor(self, out, k, sign, xs, f):
        """out[k] += sign * a(x) f."""
        if not self._anchor_vars or not f or not xs:
            return
        one, acc = self._one, out[k]
        grad = self._gradient(f)
        for j, c in xs:
            for i, mu in self._anchor[j]:
                df = grad[i]
                if df:
                    t = mu * df if c is one else c * mu * df
                    acc = acc + t if sign > 0 else acc - t
        out[k] = acc

    def add_l1(self, out, sign, ms):
        one = self._one
        for j, c in ms:
            for i, mu in self._unary[j]:
                t = mu if c is one else c * mu
                out[i] = out[i] + t if sign > 0 else out[i] - t

    def add_l2_11(self, out, sign, xs, ys):
        self._add_leibniz(out, sign, self._b11, xs, ys)
        if self._anchor_vars:
            for k, c in xs:
                self.add_anchor(out, k, -sign, ys, c)

    def add_l2_12(self, out, sign, xs, ms):
        self._add_leibniz(out, sign, self._b12, xs, ms)

    def add_l2_21(self, out, sign, ms, xs):
        self._add_leibniz(out, sign, self._b21, xs, ms)

    def add_l3(self, out, sign, xs, ys, zs):
        one = self._one
        for i, a in xs:
            plane = self._ternary[i]
            for j, b in ys:
                row = plane[j]
                if not any(row):
                    continue
                ab = b if a is one else a if b is one else a * b
                if not ab:
                    continue
                for k, c in zs:
                    entries = row[k]
                    if entries:
                        abc = c if ab is one else ab if c is one else ab * c
                        for l, mu in entries:
                            if abc is not one:
                                mu = abc * mu
                            out[l] = out[l] + mu if sign > 0 else out[l] - mu

    def anchor(self, xv, f: Poly) -> Poly:
        out = [self._zero]
        self.add_anchor(out, 0, 1, nonzero_coords(xv), f)
        return out[0]

    def l1(self, mv):
        out = [self._zero] * self.r1
        self.add_l1(out, 1, nonzero_coords(mv))
        return out

    def l2_11(self, xv, yv):
        out = [self._zero] * self.r1
        self.add_l2_11(out, 1, nonzero_coords(xv), nonzero_coords(yv))
        return out

    def l2_12(self, xv, mv):
        out = [self._zero] * self.r2
        self.add_l2_12(out, 1, nonzero_coords(xv), nonzero_coords(mv))
        return out

    def l2_21(self, mv, xv):
        out = [self._zero] * self.r2
        self.add_l2_21(out, 1, nonzero_coords(mv), nonzero_coords(xv))
        return out

    def l3(self, xv, yv, zv):
        out = [self._zero] * self.r2
        self.add_l3(out, 1, nonzero_coords(xv), nonzero_coords(yv), nonzero_coords(zv))
        return out


# -- frame tables -------------------------------------------------------------


@dataclass
class FrameTables:
    """Every bracket of an ops object on a constant frame (b1, b2).

    anchor[i][m] = a(b1_i) x_{m+1}, l1[j] = l1(b2_j), l11[i][j] = l2(b1_i, b1_j),
    l12[i][j] = l2(b1_i, b2_j), l21[j][i] = l2(b2_j, b1_i) and
    l3[i][j][k] = l3(b1_i, b1_j, b1_k).
    """

    b1: list
    b2: list
    anchor: list
    l1: list
    l11: list
    l12: list
    l21: list
    l3: list


def frame_tables(ops, B1, B2) -> FrameTables:
    """Evaluate each bracket once on the constant frames B1 (degree -1
    sections) and B2 (degree -2 sections)."""
    ch = ops.chart
    coords = [x_(ch, i + 1) for i in range(ch.base_dim)]
    return FrameTables(
        B1,
        B2,
        [[ops.anchor(x, f) for f in coords] for x in B1],
        [ops.l1(m) for m in B2],
        [[ops.l2_11(x, y) for y in B1] for x in B1],
        [[ops.l2_12(x, m) for m in B2] for x in B1],
        [[ops.l2_21(m, x) for x in B1] for m in B2],
        [[[ops.l3(x, y, z) for z in B1] for y in B1] for x in B1],
    )


def map_sections(fn, table, depth):
    """fn on each section of a table nested `depth` levels deep."""
    return [fn(v) if depth == 1 else map_sections(fn, v, depth - 1) for v in table]


def const_frame(chart, rows):
    """Rational frame rows as constant sections."""
    return [[Poly.const(chart, c) for c in row] for row in rows]


def combine(coeffs, frame, width, chart):
    """sum_b coeffs[b] * frame[b] on chart: base-polynomial coefficients
    against rational rows of length width.  Zero coefficients and zero row
    entries are skipped."""
    out = [Poly.zero(chart)] * width
    for c, row in zip(coeffs, frame):
        if c.terms:
            c = c.lift(chart)
            for a, q in enumerate(row):
                if q:
                    out[a] = out[a] + c * q
    return out


def pull_back(ops, B1, B2, re1, re2) -> FrameTables:
    """frame_tables on (B1, B2), with each degree -1 section value mapped by
    re1 and each degree -2 one by re2."""
    t = frame_tables(ops, B1, B2)
    return FrameTables(B1, B2, t.anchor, map_sections(re1, t.l1, 1),
                       map_sections(re1, t.l11, 2), map_sections(re2, t.l12, 2),
                       map_sections(re2, t.l21, 2), map_sections(re2, t.l3, 3))


def frame_change(ops, t1, t2) -> FrameTables:
    """The frame tables on the rows of t1 (degree -1) and t2 (degree -2),
    written in that frame."""
    inv1, inv2 = invert(t1), invert(t2)
    if inv1 is None or inv2 is None:
        raise ValueError("frame change must be invertible")
    ch = ops.chart
    return pull_back(ops, const_frame(ch, t1), const_frame(ch, t2),
                     lambda v: combine(v, inv1, len(inv1), ch),
                     lambda v: combine(v, inv2, len(inv2), ch))


# -- generating function ------------------------------------------------------


def encode_frames(s: Lie2Structure, chart: Chart, in1, in2, out1, out2) -> Poly:
    """Generating function of the tensors of s over chart; the mirror of
    decode_frames.

    in1 and in2 are the generators (chart, index) -> Poly that stand for the
    degree -1 and degree -2 frame slots of s, out1 and out2 those for its
    degree -1 and degree -2 values; each entry is lifted to chart.  The terms
    are summed in one dictionary.
    """
    n, r1, r2 = chart.base_dim, s.chart.rank1, s.chart.rank2
    p = [p_(chart, i + 1) for i in range(n)]
    a, m, u, v = ([gen(chart, i + 1) for i in range(rank)]
                  for gen, rank in ((in1, r1), (in2, r2), (out1, r1), (out2, r2)))
    half, sixth = Fraction(1, 2), Fraction(1, 6)
    terms = {}

    monomials = (lambda j, i: p[i] * a[j],
                 lambda j, i: u[i] * m[j],
                 lambda i, j, k: half * (u[k] * a[i] * a[j]),
                 lambda i, j, k: v[k] * a[i] * m[j],
                 lambda i, j, k, l: sixth * (v[l] * a[i] * a[j] * a[k]))
    for (name, shape, _), monomial in zip(lie2_layout(s.chart), monomials):
        for idx, c in tensor_entries(getattr(s, name), shape):
            if c.terms:
                for mono, coeff in (c.lift(chart) * monomial(*idx)).terms.items():
                    coeff += terms.get(mono, 0)
                    if coeff:
                        terms[mono] = coeff
                    else:
                        del terms[mono]
    return Poly(chart, terms)


def encode_mu(s: Lie2Structure) -> Poly:
    """Degree-4 generating function of a structure (fiberwise linear)."""
    return encode_frames(s, s.chart, xi_up, th_up, xi_dn, th_dn)


def linear_components(f: Poly, kind: int, rank: int, chart: Chart):
    """The base parts of f along the variables of one kind, as a list over
    indices 1..rank of polynomials on chart.

    A term without a factor of the kind is skipped; a term with a second
    factor of it, or with an exponent above 1, makes f not linear in it.
    """
    comps = [{} for _ in range(rank)]
    for mono, c in f.terms.items():
        hit = None
        for pos, (k, _, e) in enumerate(mono):
            if k == kind:
                if hit is not None or e != 1:
                    raise ValueError(f"polynomial is not linear in kind {kind}: {f.render()}")
                hit = pos
        if hit is not None:
            base = comps[mono[hit][1] - 1]
            rest = mono[:hit] + mono[hit + 1:]
            base[rest] = base.get(rest, 0) + c
    return [Poly(chart, d) for d in comps]


def validate_generating_function(f: Poly, tridegrees, prefix: str):
    """A generating function is zero, or degree 4 with every term in one of
    the tridegrees; prefix starts each message.  Every admissible tridegree
    has a 1 in the grading of the momenta, so a term that passes is linear
    in them."""
    if f.is_zero:
        return
    if f.degree() != 4:
        raise ValueError(f"{prefix}generating function must have degree 4, got {f.degree()}")
    for mono in f.terms:
        td = mono_tridegree(mono)
        if td not in tridegrees:
            raise ValueError(f"inadmissible {prefix}tridegree component {td}")


def decode_mu(mu: Poly, chart: Chart) -> Lie2Structure:
    """Recover the structure tensors from a degree-4 generating function."""
    validate_generating_function(mu, MU_TRIDEGREES, "")
    return decode_frames(
        [mu.project_tridegree(t) for t in MU_TRIDEGREES],
        [xi_dn(chart, i + 1) for i in range(chart.rank1)],
        [th_dn(chart, j + 1) for j in range(chart.rank2)],
        [x_(chart, i + 1) for i in range(chart.base_dim)],
        (XID, THD),
        chart,
    )


def decode_frames(parts, frame1, frame2, coords, kinds, out_chart) -> Lie2Structure:
    """Structure tensors as derived brackets of a generating function.

    parts are its unary, binary and ternary graded parts; frame1 and frame2
    the momenta of the degree -1 and degree -2 frames, and coords the base
    coordinates.  A degree -1 output is linear in kinds[0], a degree -2
    output in kinds[1]; every entry is read on out_chart.  The binary
    tensors share each prefix {binary part, frame1[i]}.
    """
    unary, binary, ternary = parts
    n, r1, r2 = len(coords), len(frame1), len(frame2)
    k1, k2 = kinds

    def vec(p, kind, rank):
        return linear_components(p, kind, rank, out_chart)

    rows = derived_table(binary, frame1, coords + frame1 + frame2)
    return Lie2Structure(
        out_chart,
        [[p.lift(out_chart) for p in row[:n]] for row in rows],
        [vec(p, k1, r1) for p in derived_table(unary, frame2)],
        [[vec(p, k1, r1) for p in row[n:n + r1]] for row in rows],
        [[vec(p, k2, r2) for p in row[n + r1:]] for row in rows],
        [[[vec(p, k2, r2) for p in row] for row in plane]
         for plane in derived_table(ternary, frame1, frame1, frame1)],
    )


# -- common denominators ------------------------------------------------------

# check_lie2_axioms and mu_nilpotency_report run on d times their input, with
# d the lcm of its coefficient denominators, when d has at most this many
# bits.  Integer products then replace Fraction ones, each of which reduces
# by a gcd.  But the integers grow with d, and past some width the integer
# route is the slower one.  On (0,r,r) structures whose entries have 1/p
# denominators, p running over k distinct primes, the direct axioms took on
# the integer route (r = 5 and 6, 2-CPU VM, Python 3.11) 0.23-0.36x of the
# rational time at d of 65-417 bits, 0.52-0.64x at 990 bits, 0.78x at 1704
# bits, 1.26x at 2290 bits and 2.4x at 4603 bits.  The bound sits below the
# crossover, where the integer route is still about 1.5x faster.
CLEARED_DENOMINATOR_BITS = 1024


def clearing_denominator(polys) -> int:
    """The lcm d of the coefficient denominators of the polynomials, or 1
    once d is wider than CLEARED_DENOMINATOR_BITS, so that the caller keeps
    the rational route."""
    d = 1
    for p in polys:
        for c in p.terms.values():
            if type(c) is Fraction and d % c.denominator:
                d = lcm(d, c.denominator)
                if d.bit_length() > CLEARED_DENOMINATOR_BITS:
                    return 1
    return d


def times_int(p: Poly, d: int) -> Poly:
    """d * p with plain int coefficients; d must clear every denominator of
    p.  (Poly * d would keep an integral Fraction where p had a Fraction.)"""
    out = Poly.__new__(Poly)
    out.chart = p.chart
    out.terms = {m: c * d if type(c) is int else c.numerator * (d // c.denominator)
                 for m, c in p.terms.items()}
    return out


# -- direct axiom checking ----------------------------------------------------


def check_leibniz2_tables(ops, t: FrameTables, report: CheckReport, tag: str):
    """check_leibniz2_axioms with its inner brackets read from the tables `t`
    on unit frames.

    Every outer bracket is a fresh `ops` evaluation, so this route stays
    independent of {mu,mu} = 0.  The frames and the tables are turned into
    sparse sections (_sparse) once; each residual, lhs - rhs of its
    law, is one fresh list into which the kernels add their signed terms.
    A kernel with a zero argument adds nothing: its loops are empty.
    """
    r1, r2, zero = ops.r1, ops.r2, ops._zero
    E, F, L1 = _sparse(t.b1, 1), _sparse(t.b2, 1), _sparse(t.l1, 1)
    L11, L12, L21, L3 = _sparse(t.l11, 2), _sparse(t.l12, 2), _sparse(t.l21, 2), _sparse(t.l3, 3)
    l1, l2_11, l3 = ops.add_l1, ops.add_l2_11, ops.add_l3
    l2_12, l2_21 = ops.add_l2_12, ops.add_l2_21

    for i in range(r1):
        for j in range(r2):
            x = E[i]
            res = [zero] * r1
            l1(res, 1, L12[i][j])
            l2_11(res, -1, x, L1[j])
            report.add(f"{tag}.a[{i + 1},{j + 1}]", "d l2(x,m) = l2(x, d m)", res)
            res = [zero] * r1
            l1(res, 1, L21[j][i])
            l2_11(res, 1, L1[j], x)
            report.add(f"{tag}.b[{i + 1},{j + 1}]", "d l2(m,x) = -l2(d m, x)", res)
    for i in range(r2):
        for j in range(r2):
            res = [zero] * r2
            l2_12(res, 1, L1[i], F[j])
            l2_21(res, 1, F[i], L1[j])
            report.add(f"{tag}.c[{i + 1},{j + 1}]", "l2(d m, n) = -l2(m, d n)", res)
    for i in range(r1):
        for j in range(r1):
            for k in range(r1):
                x, y, z = E[i], E[j], E[k]
                res = [zero] * r1
                l1(res, 1, L3[i][j][k])
                l2_11(res, -1, x, L11[j][k])
                l2_11(res, 1, L11[i][j], z)
                l2_11(res, 1, y, L11[i][k])
                report.add(
                    f"{tag}.d[{i + 1},{j + 1},{k + 1}]",
                    "d l3(x,y,z) = l2(x,l2(y,z)) - l2(l2(x,y),z) - l2(y,l2(x,z))",
                    res,
                )
    for i in range(r1):
        for j in range(r1):
            for k in range(r2):
                x, y, m = E[i], E[j], F[k]
                res = [zero] * r2
                l3(res, 1, x, y, L1[k])
                l2_12(res, -1, x, L12[j][k])
                l2_12(res, 1, L11[i][j], m)
                l2_12(res, 1, y, L12[i][k])
                report.add(
                    f"{tag}.e1[{i + 1},{j + 1},{k + 1}]",
                    "l3(x,y,d m) = l2(x,l2(y,m)) - l2(l2(x,y),m) - l2(y,l2(x,m))",
                    res,
                )
                # l2(m, l2(x,y)) - l2(x, l2(m,y)) enters e2 with sign + and e3 with -
                shared = [zero] * r2
                l2_21(shared, 1, m, L11[i][j])
                l2_12(shared, -1, x, L21[k][j])
                res = list(shared)
                l3(res, -1, x, L1[k], y)
                l2_21(res, 1, L12[i][k], y)
                report.add(
                    f"{tag}.e2[{i + 1},{j + 1},{k + 1}]",
                    "-l3(x,d m,y) = l2(x,l2(m,y)) - l2(l2(x,m),y) - l2(m,l2(x,y))",
                    res,
                )
                res = [-c for c in shared]
                l3(res, -1, L1[k], x, y)
                l2_21(res, -1, L21[k][i], y)
                report.add(
                    f"{tag}.e3[{i + 1},{j + 1},{k + 1}]",
                    "-l3(d m,x,y) = l2(m,l2(x,y)) + l2(l2(m,x),y) - l2(x,l2(m,y))",
                    res,
                )
    for i in range(r1):
        for j in range(r1):
            for k in range(r1):
                for w in range(r1):
                    xv, yv, zv, wv = E[i], E[j], E[k], E[w]
                    res = [zero] * r2
                    l2_12(res, 1, xv, L3[j][k][w])
                    l2_12(res, -1, yv, L3[i][k][w])
                    l2_12(res, 1, zv, L3[i][j][w])
                    l2_21(res, -1, L3[i][j][k], wv)
                    l3(res, -1, L11[i][j], zv, wv)
                    l3(res, -1, yv, L11[i][k], wv)
                    l3(res, -1, yv, zv, L11[i][w])
                    l3(res, 1, xv, L11[j][k], wv)
                    l3(res, 1, xv, zv, L11[j][w])
                    l3(res, -1, xv, yv, L11[k][w])
                    report.add(
                        f"{tag}.f[{i + 1},{j + 1},{k + 1},{w + 1}]",
                        "jacobiator of l2 against l3 vanishes",
                        res,
                    )
    return report


def check_leibniz2_axioms(ops, report: CheckReport, tag: str = "leibniz2"):
    """Axioms of a 2-term bracket system, on all frame tuples; each inner
    bracket of frame vectors is read from `ops.units`."""
    return check_leibniz2_tables(ops, ops.units, report, tag)


def check_lie2_axioms(s: Lie2Structure) -> CheckReport:
    """Direct axiom check: bracket axioms plus the two anchor conditions.

    The brackets run on d*s with integer entries (see clearing_denominator).
    Every residual is quadratic in the tensors, so it is d^2 times the
    residual of s, and the report renders it divided by d^2.  Over a point
    base the entries are then taken as plain numbers (see point_value).
    """
    report = CheckReport("lie2-axioms")
    d = clearing_denominator(s.entries())
    if d != 1:
        s = s.map_entries(lambda p: times_int(p, d))
        report.scale = Fraction(1, d * d)
    if not s.chart.base_dim:
        s = s.map_entries(point_value)
    for bad in s.symmetry_violations():
        report.add_flag("symmetry", "mu3/mu5 alternating", False, bad)
    ops = Lie2Ops(s)
    t = ops.units
    check_leibniz2_tables(ops, t, report, "leibniz2")
    ch = s.chart
    r1, r2, n = ch.rank1, ch.rank2, ch.base_dim
    coords = [x_(ch, m + 1) for m in range(n)]
    for j in range(r2):
        for m in range(n):
            res = ops.anchor(t.l1[j], coords[m])
            report.add(f"anchor.al1[{j + 1},{m + 1}]", "a(d m) = 0", res)
    for i in range(r1):
        for j in range(r1):
            xv, yv = t.b1[i], t.b1[j]
            for m in range(n):
                lhs = ops.anchor(t.l11[i][j], coords[m])
                rhs = ops.anchor(xv, t.anchor[j][m]) - ops.anchor(yv, t.anchor[i][m])
                report.add(
                    f"anchor.morphism[{i + 1},{j + 1},{m + 1}]",
                    "a(l2(x,y)) = [a(x), a(y)]",
                    lhs - rhs,
                )
    report.scale = 1
    return report


def mu_nilpotency_report(mu: Poly) -> CheckReport:
    """{mu, mu} = 0 for an encoded generating function (see encode_mu).

    The bracket runs on d*mu with integer coefficients, as in
    check_lie2_axioms, and each residual is rendered divided by d^2.
    """
    report = CheckReport("generating-function-nilpotency")
    d = clearing_denominator([mu])
    if d != 1:
        mu = times_int(mu, d)
        report.scale = Fraction(1, d * d)
    _, residual, comps = nilpotency_check(mu)
    report.add("nilpotency.total", "{mu, mu} = 0", residual)
    for td, part in comps.items():
        report.add(f"nilpotency.component{list(td)}", f"component {td} of {{mu,mu}}", part)
    report.scale = 1
    return report


def axioms_vs_nilpotency(direct: CheckReport, nil: CheckReport) -> CheckReport:
    """The cross-check report from an existing direct-axiom report and an
    existing nilpotency report of the same structure."""
    report = CheckReport("axioms-vs-nilpotency")
    report.meta["direct_passed"] = direct.passed
    report.meta["nilpotency_passed"] = nil.passed
    report.add_flag(
        "equivalence",
        "direct axiom verdict matches {mu,mu}=0 verdict",
        direct.passed == nil.passed,
        f"direct={direct.passed} nilpotency={nil.passed}",
    )
    return report


# -- morphisms ----------------------------------------------------------------


@dataclass
class MorphismData:
    f1: list  # r1' x r1 rationals
    f2: list  # r2' x r2 rationals
    f3: list  # r1 x r1 -> length-r2' rational vectors

    @staticmethod
    def identity(chart: Chart) -> "MorphismData":
        r1, r2 = chart.rank1, chart.rank2
        return MorphismData(
            [[Fraction(int(i == j)) for j in range(r1)] for i in range(r1)],
            [[Fraction(int(i == j)) for j in range(r2)] for i in range(r2)],
            [[[Fraction(0)] * r2 for _ in range(r1)] for _ in range(r1)],
        )

    def is_f3_skew(self) -> bool:
        r1 = len(self.f3)
        for i in range(r1):
            for j in range(r1):
                if any(a + b != 0 for a, b in zip(self.f3[i][j], self.f3[j][i])):
                    return False
        return True


def check_morphism(fdata: MorphismData, dom_ops, cod_ops) -> CheckReport:
    """Morphism equations from one 2-term bracket system to another.

    The codomain may be any ops object (a Lie structure, a Leibniz variant,
    or the section calculus of a metric double); the domain supplies the
    brackets being transported.  The domain brackets are read from its
    unit frame tables, the codomain ones from its tables on the images of
    the unit frames (the columns of f1 and f2); only the brackets with an
    F3 argument are evaluated afresh.
    """
    report = CheckReport("morphism")
    ch = dom_ops.chart
    cch = cod_ops.chart
    if ch.base_dim != cch.base_dim:
        raise ShapeError("domain and codomain live over different bases")
    r1d, r2d = dom_ops.r1, dom_ops.r2
    r1c, r2c = cod_ops.r1, cod_ops.r2
    if len(fdata.f1) != r1c or (fdata.f1 and len(fdata.f1[0]) != r1d):
        raise ShapeError("f1 has wrong shape")
    if len(fdata.f2) != r2c or (fdata.f2 and len(fdata.f2[0]) != r2d):
        raise ShapeError("f2 has wrong shape")
    # the images of the unit frames, and F3(e_i, e_j)
    cols1 = [[row[i] for row in fdata.f1] for i in range(r1d)]
    cols2 = [[row[j] for row in fdata.f2] for j in range(r2d)]
    F3 = [const_frame(cch, plane) for plane in fdata.f3]
    push1 = lambda v: combine(v, cols1, r1c, cch)
    push2 = lambda v: combine(v, cols2, r2c, cch)
    f3_left = lambda i, v: combine(v, fdata.f3[i], r2c, cch)  # F3(e_i, v)
    f3_right = lambda v, k: combine(v, [plane[k] for plane in fdata.f3], r2c, cch)  # F3(v, e_k)
    td = dom_ops.units
    tc = frame_tables(cod_ops, const_frame(cch, cols1), const_frame(cch, cols2))

    # reported, not required: some targets only need a Leibniz-style morphism
    report.meta["f3_skew"] = fdata.is_f3_skew()

    for j in range(r2d):
        res = vec_sub(push1(td.l1[j]), tc.l1[j])
        report.add(f"morphism.chain[{j + 1}]", "F1 d = d' F2", res)
    for i in range(r1d):
        for j in range(r1d):
            res = vec_sub(push1(td.l11[i][j]), tc.l11[i][j])
            res = vec_sub(res, cod_ops.l1(F3[i][j]))
            report.add(
                f"morphism.sq11[{i + 1},{j + 1}]",
                "F1 l2(x,y) - l2'(F1x,F1y) = d' F3(x,y)",
                res,
            )
    for i in range(r1d):
        for j in range(r2d):
            res = vec_sub(push2(td.l12[i][j]), tc.l12[i][j])
            res = vec_sub(res, f3_left(i, td.l1[j]))
            report.add(
                f"morphism.sq12[{i + 1},{j + 1}]",
                "F2 l2(x,m) - l2'(F1x,F2m) = F3(x, d m)",
                res,
            )
            res = vec_sub(push2(td.l21[j][i]), tc.l21[j][i])
            res = vec_add(res, f3_right(td.l1[j], i))
            report.add(
                f"morphism.sq21[{i + 1},{j + 1}]",
                "F2 l2(m,x) - l2'(F2m,F1x) = -F3(d m, x)",
                res,
            )
    for i in range(r1d):
        for j in range(r1d):
            for k in range(r1d):
                total = vec_scale(push2(td.l3[i][j][k]), -1)
                total = vec_add(total, cod_ops.l2_12(tc.b1[i], F3[j][k]))
                total = vec_sub(total, cod_ops.l2_12(tc.b1[j], F3[i][k]))
                total = vec_add(total, cod_ops.l2_21(F3[i][j], tc.b1[k]))
                total = vec_sub(total, f3_right(td.l11[i][j], k))
                total = vec_add(total, f3_left(i, td.l11[j][k]))
                total = vec_sub(total, f3_left(j, td.l11[i][k]))
                total = vec_add(total, tc.l3[i][j][k])
                report.add(
                    f"morphism.hept[{i + 1},{j + 1},{k + 1}]",
                    "heptagon relation between l3, l3' and F3",
                    total,
                )
    for i in range(r1d):
        for m in range(ch.base_dim):
            res = tc.anchor[i][m] - td.anchor[i][m].lift(cch)
            report.add(f"morphism.anchor[{i + 1},{m + 1}]", "a' F1 = a", res)
    return report


# -- basis transport ---------------------------------------------------------


def transport(s: Lie2Structure, t1, t2) -> Lie2Structure:
    """Structure in a new frame; rows of t1/t2 are the new frame vectors."""
    t = frame_change(Lie2Ops(s), t1, t2)
    return Lie2Structure(s.chart, t.anchor, t.l1, t.l11, t.l12, t.l3)
