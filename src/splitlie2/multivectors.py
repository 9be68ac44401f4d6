"""Brackets on the symmetric algebra of the shifted bundle.

Multivectors are polynomials in the base variables and the two momentum
frames (xi_ of shifted degree 2, th_ of shifted degree 1).  The unary,
binary and ternary brackets are iterated canonical brackets against the
three components of the generating function, each with a single leading
minus.  Degree-3 elements H + K (H a symmetric pairing-shaped tensor, K an
alternating cubic tensor) are checked against the flatness equation

    [m] + 1/2 [m, m] + 1/6 [m, m, m] = 0

componentwise, and affine slots of H, K can be solved for exactly.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction

from .bracket import poisson_bracket
from .gradedpoly import (
    KIND_ODD,
    TH,
    THD,
    UNK,
    X,
    XI,
    XID,
    Chart,
    Poly,
    mono_from_sequence,
    th_dn,
    unknown,
    x_,
    xi_dn,
)
from .linalg import solve_affine
from .report import CheckReport
from .structures import (
    Lie2Structure,
    encode_mu,
    linear_components,
    signed_permutations,
)

class NonlinearError(ValueError):
    pass


def section1(chart: Chart, coeffs) -> Poly:
    """Embed a degree -1 section (coefficients over the xi_ frame)."""
    return frame_section(chart, coeffs, xi_dn)


def section2(chart: Chart, coeffs) -> Poly:
    """Embed a degree -2 section (coefficients over the th_ frame)."""
    return frame_section(chart, coeffs, th_dn)


def frame_section(chart: Chart, coeffs, generator) -> Poly:
    """sum of c_j generator_j over the nonzero coefficients c_j."""
    out = Poly.zero(chart)
    for j, c in enumerate(coeffs):
        if not c:
            continue
        term = c if isinstance(c, Poly) else Poly.const(chart, c)
        out = out + term * generator(chart, j + 1)
    return out


def contract(p: Poly, comp_by_kind) -> Poly:
    """Slot contraction with a one-form: odd slots alternate in sign.

    comp_by_kind maps a variable kind to a list of base-polynomial
    components (1-based index i stored at position i-1).  Odd slots pick up
    (-1)^(o+1) where o is the slot position among the odd factors of the
    term; even slots contribute with multiplicity and no sign.
    """
    acc = Poly.zero(p.chart)
    for m, c in p.terms.items():
        odd_pos = 0
        for pos, (k, idx, e) in enumerate(m):
            if KIND_ODD[k]:
                odd_pos += 1
            comp = comp_by_kind.get(k)
            if comp is None:
                continue
            coeff = comp[idx - 1]
            if isinstance(coeff, (int, Fraction)):
                coeff = Poly.const(p.chart, coeff)
            if coeff.is_zero:
                continue
            rest = list(m)
            if e == 1:
                rest.pop(pos)
            else:
                rest[pos] = (k, idx, e - 1)
            mult = 1 if KIND_ODD[k] else e
            sign = (-1) ** (odd_pos + 1) if KIND_ODD[k] else 1
            acc = acc + (sign * mult * c) * (coeff * Poly(p.chart, {tuple(rest): Fraction(1)}))
    return acc


class BracketMemo:
    """Nested brackets {...{gen, a1}..., am} with every prefix in a memo.

    A prefix is keyed by its identity and the next argument by its value,
    so a bracket taken again, or one that shares its first arguments with
    an earlier one, reuses that work.  The first prefix is gen itself, so
    gen must be a generating function the owner keeps alive (an attribute):
    a freed object's id could be taken by a new Poly.  Every later prefix
    is a memo value, alive as long as its key.  Polys are never changed in
    place, so a memoised result can be handed out as is.  The memo grows
    until clear_memo().
    """

    def __init__(self):
        self._memo = {}

    def clear_memo(self):
        self._memo.clear()

    def _nested(self, gen: Poly, args) -> Poly:
        memo = self._memo
        r = gen
        for a in args:
            if not r.terms:
                break  # {0, a} = 0
            key = (id(r), a)
            hit = memo.get(key)
            if hit is None:
                hit = memo[key] = poisson_bracket(r, a)
            r = hit
        return r

    def nested(self, gen: Poly, *args) -> Poly:
        return self._nested(gen, args)


class SAlgebra(BracketMemo):
    """The homotopy Poisson algebra of one structure, and its calculus.

    b1, b2 and b3 are the derived brackets -{...{mu_k, a1}..., ak}, taken
    through the algebra's memo (see BracketMemo); it keys mu and its three
    components.  verify_hp_axioms and verify_calculus_identities clear it
    once per random trial.  The twist route takes the algebra its caller
    built, so one memo serves the whole chain of calls on one structure:
    mc_residual, twist_gamma and mce1_condition_check, and the checks of a
    BialgebroidPair (check_bialgebroid takes delta a = {mu, a} through
    nested).  The pair's own generating functions go through the pair's
    memo, never this one, since an algebra can outlive a pair.

    On cochains they are the Lie derivatives L0 = b1, L1_x = b2(x, .),
    L2_m = b2(m, .), L3_(x,y) = b3(x, y, .).  d_part = {mu121, .} is the
    first prefix of b2 and reads and fills the same memo, because callers
    repeat its arguments (dual_structure_formulas on equal entries of a
    degree-3 element, build_double on the frames of each half, twist_gamma
    on the H that mc_residual brackets).  delta = {mu, .} brackets afresh.
    """

    def __init__(self, s: Lie2Structure):
        super().__init__()
        self.s = s
        self.chart = s.chart
        self.mu = encode_mu(s)
        self.mu211 = self.mu.project_tridegree((2, 1, 1))
        self.mu121 = self.mu.project_tridegree((1, 2, 1))
        self.mu031 = self.mu.project_tridegree((0, 3, 1))

    def b1(self, p: Poly) -> Poly:
        return -self._nested(self.mu211, (p,))

    def b2(self, p: Poly, q: Poly) -> Poly:
        return -self._nested(self.mu121, (p, q))

    def b3(self, p: Poly, q: Poly, r: Poly) -> Poly:
        return -self._nested(self.mu031, (p, q, r))

    def delta(self, p: Poly) -> Poly:
        return poisson_bracket(self.mu, p)

    def d_part(self, p: Poly) -> Poly:
        return self._nested(self.mu121, (p,))


# -- degree-3 elements ---------------------------------------------------------


@dataclass
class MCElement:
    chart: Chart
    h: list  # r1 x r2 base-polynomial entries
    k: dict  # canonical (i<j<k) 1-based triples -> base polynomial

    @staticmethod
    def build(chart: Chart, h=None, k=None) -> "MCElement":
        r1, r2 = chart.rank1, chart.rank2
        hm = [[Poly.zero(chart) for _ in range(r2)] for _ in range(r1)]
        if h is not None:
            if len(h) != r1:
                raise ValueError("pairing tensor has wrong shape")
            for i in range(r1):
                if len(h[i]) != r2:
                    raise ValueError("pairing tensor has wrong shape")
                for j in range(r2):
                    v = h[i][j]
                    hm[i][j] = v if isinstance(v, Poly) else Poly.const(chart, v)
        km = {}
        if k:
            for idx, v in k.items():
                i, j, l = idx
                if not (1 <= i < j < l <= r2):
                    raise ValueError(f"cubic slot {idx} must be strictly increasing and in range")
                km[(i, j, l)] = v if isinstance(v, Poly) else Poly.const(chart, v)
        return MCElement(chart, hm, km)

    def h_poly(self) -> Poly:
        out = Poly.zero(self.chart)
        for i in range(self.chart.rank1):
            for j in range(self.chart.rank2):
                c = self.h[i][j]
                if not c.is_zero:
                    out = out + c * (xi_dn(self.chart, i + 1) * th_dn(self.chart, j + 1))
        return out

    def k_poly(self) -> Poly:
        out = Poly.zero(self.chart)
        for (i, j, l), c in self.k.items():
            if not c.is_zero:
                out = out + c * (
                    th_dn(self.chart, i) * th_dn(self.chart, j) * th_dn(self.chart, l)
                )
        return out

    def k_tensor(self):
        """Full alternating tensor k[i][j][l] (0-based)."""
        r2 = self.chart.rank2
        t = [[[Poly.zero(self.chart) for _ in range(r2)] for _ in range(r2)] for _ in range(r2)]
        for (i, j, l), c in self.k.items():
            for (a, b, d), sign in signed_permutations((i - 1, j - 1, l - 1)):
                t[a][b][d] = sign * c
        return t

    def h_sharp(self, j2: int):
        """Column of the pairing tensor against the second dual frame."""
        return [self.h[i][j2] for i in range(self.chart.rank1)]

    def h_nat(self, j1: int):
        return [self.h[j1][j] for j in range(self.chart.rank2)]


def mc_residual(alg: SAlgebra, m: MCElement):
    """The three flatness components; their sum is the full residual."""
    hp = m.h_poly()
    kp = m.k_poly()
    r1 = alg.b1(hp)
    r2 = alg.b1(kp) + Fraction(1, 2) * alg.b2(hp, hp)
    r3 = alg.b2(hp, kp) + Fraction(1, 6) * alg.b3(hp, hp, hp)
    mp = hp + kp
    full = (
        alg.b1(mp)
        + Fraction(1, 2) * alg.b2(mp, mp)
        + Fraction(1, 6) * alg.b3(mp, mp, mp)
    )
    if full != r1 + r2 + r3:
        raise RuntimeError("flatness components do not sum to the full residual")
    return r1, r2, r3


def mc_report(alg: SAlgebra, m: MCElement) -> CheckReport:
    rep = CheckReport("maurer-cartan")
    r1, r2, r3 = mc_residual(alg, m)
    rep.add("mc.1", "[H] = 0", r1)
    rep.add("mc.2", "[K] + 1/2 [H,H] = 0", r2)
    rep.add("mc.3", "[H,K] + 1/6 [H,H,H] = 0", r3)
    return rep


# -- homotopy algebra verification ----------------------------------------------


def _sgn(e: int) -> int:
    return -1 if e % 2 else 1


def draw_below(getrandbits, n: int) -> int:
    """rng.randrange(n) for n > 0, drawn word for word as CPython draws it.

    Random._randbelow_with_getrandbits takes n.bit_length() random bits
    until the value is below n, and randint and choice draw through it; so
    this leaves the rng in the state randrange(n) would leave it in.
    """
    k = n.bit_length()
    r = getrandbits(k)
    while r >= n:
        r = getrandbits(k)
    return r


def random_multivector(chart: Chart, rng: random.Random, max_shifted_degree=6,
                       max_base_degree=2, terms=2):
    """Random homogeneous multivector (never the zero degree marker).

    Each term takes up to 60 turns; a turn draws a frame, xi_ (degree 2)
    or th_ (degree 1, each index at most once) with odds 1:2, and an
    index, and keeps the factor if it fits the degree.  The draws are
    those of rng.randint and rng.choice, made by draw_below: the same
    values and the same rng state, with fewer Python frames per draw.
    """
    r1, r2, n = chart.rank1, chart.rank2, chart.base_dim
    if not (r1 or r2):
        raise ValueError(f"no multivector of positive degree on {chart}")
    if max_shifted_degree < 1 or max_base_degree < 0:
        rng.randint(1, max_shifted_degree)  # the interpreter's own error
        rng.randint(0, max_base_degree)
    if not r2 and max_shifted_degree == 1:
        # without th_ frames every degree is even: no draw could ever finish
        raise ValueError(f"no multivector of degree 1 on {chart}")
    bits = rng.getrandbits
    while True:
        deg = 1 + draw_below(bits, max_shifted_degree)
        acc = {}
        for _ in range(terms):
            d = 0
            factors = []
            used_thd = set()
            guard = 0
            while d < deg and guard < 60:
                guard += 1
                if draw_below(bits, 3) == 0:  # choice((XID, THD, THD))
                    if not r1:
                        continue
                    i = draw_below(bits, r1)
                    if d + 2 <= deg:
                        factors.append((XID, i + 1))
                        d += 2
                        continue
                    # one degree left: a th_ factor instead
                if not r2:
                    continue
                i = draw_below(bits, r2)
                if i in used_thd:
                    continue
                used_thd.add(i)
                factors.append((THD, i + 1))
                d += 1
            if d != deg:
                continue
            for _ in range(draw_below(bits, max_base_degree + 1)):
                if n:
                    factors.append((X, 1 + draw_below(bits, n)))
            sign, mono = mono_from_sequence(factors)
            if sign == 0:
                continue
            acc[mono] = acc.get(mono, 0) + sign * ((draw_below(bits, 9) - 4) or 1)
        p = Poly(chart, acc)
        if not p.is_zero and p.degree() == deg:
            return p


def random_base_poly(chart: Chart, rng: random.Random, max_degree=2):
    if chart.base_dim == 0:
        return Poly.const(chart, rng.randint(-3, 3) or 1)
    acc = Poly.const(chart, rng.randint(-2, 2))
    for _ in range(2):
        mono = Poly.const(chart, rng.randint(-3, 3) or 1)
        for _ in range(rng.randint(1, max_degree)):
            mono = mono * Poly.var(chart, X, rng.randint(1, chart.base_dim))
        acc = acc + mono
    return acc


def ternary_jacobiator(alg: SAlgebra, P: Poly, Q: Poly, R: Poly, W: Poly) -> Poly:
    """Left side of the higher Jacobi identity on four multivectors.

    The brackets are, up to one factor -1 each, Voronov's higher derived
    brackets {...{mu_k, a_1}, ..., a_k} of mu on the abelian subalgebra of
    multivectors.  The canonical bracket is a graded Lie bracket for the
    shifted parity p(a) = |a| - 3 and mu is odd for it, so {mu, mu} = 0 makes
    them an L-infinity algebra in the symmetric convention: each bracket is
    graded symmetric in p.  Its relation on four arguments, where no bracket
    of arity four exists, is

        sum over (2,2)-unshuffles  e(s) [[a_s1, a_s2], a_s3, a_s4]
      + sum over (3,1)-unshuffles  e(s) [[a_s1, a_s2, a_s3], a_s4]  =  0,

    with e(s) the Koszul sign of the permutation s in the parity p.  The two
    factors -1 of each nested pair cancel.
    """
    p, q, r, w = ((v.degree() - 3) % 2 for v in (P, Q, R, W))
    b2, b3 = alg.b2, alg.b3
    total = b3(b2(P, Q), R, W)
    total = total + _sgn(q * r) * b3(b2(P, R), Q, W)
    total = total + _sgn(w * (q + r)) * b3(b2(P, W), Q, R)
    total = total + _sgn(p * (q + r)) * b3(b2(Q, R), P, W)
    total = total + _sgn(p * q + w * (p + r)) * b3(b2(Q, W), P, R)
    total = total + _sgn((r + w) * (p + q)) * b3(b2(R, W), P, Q)
    total = total + b2(b3(P, Q, R), W)
    total = total + _sgn(w * r) * b2(b3(P, Q, W), R)
    total = total + _sgn(q * (r + w)) * b2(b3(P, R, W), Q)
    total = total + _sgn(p * (q + r + w)) * b2(b3(Q, R, W), P)
    return total


def verify_hp_axioms(s: Lie2Structure, count=100, seed=0, max_shifted_degree=6) -> CheckReport:
    """Symmetry, derivation and higher Jacobi identities on random tuples."""
    rep = CheckReport("homotopy-poisson")
    alg = SAlgebra(s)
    ch = s.chart
    rng = random.Random(seed)
    if ch.rank2 == 0 and ch.rank1 == 0:
        rep.add_flag("degenerate", "nothing to test on an empty chart", True)
        return rep
    for trial in range(count):
        alg.clear_memo()
        P = random_multivector(ch, rng, max_shifted_degree)
        Q = random_multivector(ch, rng, max_shifted_degree)
        R = random_multivector(ch, rng, max_shifted_degree)
        W = random_multivector(ch, rng, max_shifted_degree)
        f = random_base_poly(ch, rng)
        dP, dQ, dR = (v.degree() for v in (P, Q, R))
        t = f"[{trial}]"

        delta_f = alg.delta(f)
        comp = {XID: linear_components(delta_f, XI, ch.rank1, ch),
                THD: linear_components(delta_f, TH, ch.rank2, ch)}
        lhs = alg.b2(P, f * Q)
        rhs = f * alg.b2(P, Q) + _sgn(dP) * (contract(P, comp) * Q)
        rep.add(f"hp.fun{t}", "[P,fQ] = f[P,Q] + (-1)^|P| i_(df)P Q", lhs - rhs)

        rep.add(
            f"hp.der1{t}",
            "[PQ] = [P]Q + (-1)^|P| P[Q]",
            alg.b1(P * Q) - (alg.b1(P) * Q + _sgn(dP) * (P * alg.b1(Q))),
        )
        rep.add(
            f"hp.sym2{t}",
            "[P,Q] = (-1)^((|P|-1)(|Q|-1)) [Q,P]",
            alg.b2(P, Q) - _sgn((dP - 1) * (dQ - 1)) * alg.b2(Q, P),
        )
        rep.add(
            f"hp.der2{t}",
            "[P,QR] = [P,Q]R + (-1)^(|P||Q|) Q[P,R]",
            alg.b2(P, Q * R) - (alg.b2(P, Q) * R + _sgn(dP * dQ) * (Q * alg.b2(P, R))),
        )
        rep.add(
            f"hp.sym3a{t}",
            "[P,Q,R] = (-1)^((|P|-3)(|Q|-3)) [Q,P,R]",
            alg.b3(P, Q, R) - _sgn((dP - 3) * (dQ - 3)) * alg.b3(Q, P, R),
        )
        rep.add(
            f"hp.sym3b{t}",
            "[P,Q,R] = (-1)^((|R|-3)(|Q|-3)) [P,R,Q]",
            alg.b3(P, Q, R) - _sgn((dR - 3) * (dQ - 3)) * alg.b3(P, R, Q),
        )
        rep.add(
            f"hp.der3{t}",
            "[P,Q,RW] = [P,Q,R]W + (-1)^((|P|+|Q|-5)|R|) R[P,Q,W]",
            alg.b3(P, Q, R * W)
            - (alg.b3(P, Q, R) * W + _sgn((dP + dQ - 5) * dR) * (R * alg.b3(P, Q, W))),
        )
        rep.add(
            f"hp.jac1{t}",
            "[[P,Q]] = -[[P],Q] + (-1)^|P| [P,[Q]]",
            alg.b1(alg.b2(P, Q))
            - (-alg.b2(alg.b1(P), Q) + _sgn(dP) * alg.b2(P, alg.b1(Q))),
        )
        lhs = (
            alg.b2(P, alg.b2(Q, R))
            - _sgn(dP) * alg.b2(alg.b2(P, Q), R)
            - _sgn(dP * dQ) * alg.b2(Q, alg.b2(P, R))
        )
        rhs = (
            _sgn(dP) * alg.b1(alg.b3(P, Q, R))
            + _sgn(dQ) * alg.b3(P, Q, alg.b1(R))
            - alg.b3(P, alg.b1(Q), R)
            + _sgn(dP) * alg.b3(alg.b1(P), Q, R)
        )
        rep.add(f"hp.jac2{t}", "binary-ternary compatibility", lhs - rhs)
        rep.add(f"hp.jac3{t}", "ternary higher Jacobi identity",
                ternary_jacobiator(alg, P, Q, R, W))
    return rep


# -- generator agreement --------------------------------------------------------


def generator_agreement_report(s: Lie2Structure) -> CheckReport:
    """Brackets on frame sections equal the tensor-level operations, read
    from the tensors: on unit frames no anchor term survives.

    decode_mu reads derived_table, not SAlgebra, so this report is the one
    runtime check that b1, b2 and b3, with their signs and their memo,
    reproduce the tensors; the other checks of the algebra test identities
    among its brackets, which a wrong normalization would keep."""
    rep = CheckReport("bracket-generators")
    alg = SAlgebra(s)
    ch = s.chart
    r1, r2, n = ch.rank1, ch.rank2, ch.base_dim
    for j in range(r2):
        lhs = alg.b1(th_dn(ch, j + 1))
        rep.add(f"gen.unary[{j + 1}]", "[F_j] = l1(F_j)", lhs - section1(ch, s.mu2[j]))
    for i in range(r1):
        for m in range(n):
            lhs = alg.b2(xi_dn(ch, i + 1), x_(ch, m + 1))
            rep.add(f"gen.anchor[{i + 1},{m + 1}]", "[E_i, f] = a(E_i)(f)", lhs - s.mu1[i][m])
    for i in range(r1):
        for j in range(r1):
            lhs = alg.b2(xi_dn(ch, i + 1), xi_dn(ch, j + 1))
            rhs = section1(ch, s.mu3[i][j])
            rep.add(f"gen.binary11[{i + 1},{j + 1}]", "[E_i, E_j] = l2(E_i, E_j)", lhs - rhs)
    for i in range(r1):
        for j in range(r2):
            lhs = alg.b2(xi_dn(ch, i + 1), th_dn(ch, j + 1))
            rhs = section2(ch, s.mu4[i][j])
            rep.add(f"gen.binary12[{i + 1},{j + 1}]", "[E_i, F_j] = l2(E_i, F_j)", lhs - rhs)
    for i, j, k in itertools.product(range(r1), repeat=3):
        lhs = alg.b3(xi_dn(ch, i + 1), xi_dn(ch, j + 1), xi_dn(ch, k + 1))
        rhs = section2(ch, s.mu5[i][j][k])
        rep.add(f"gen.ternary[{i + 1},{j + 1},{k + 1}]", "[E_i,E_j,E_k] = l3", lhs - rhs)
    return rep


# -- linear solver ---------------------------------------------------------------


@dataclass
class MCSolution:
    labels: list
    particular: list | None
    basis: list

    @property
    def is_empty(self) -> bool:
        return self.particular is None

    @property
    def dimension(self) -> int:
        return -1 if self.is_empty else len(self.basis)

    def instantiate(self, chart: Chart, h_pattern, k_pattern, free=None):
        """Concrete element from the particular solution plus free choices."""
        if self.is_empty:
            raise ValueError("no solution to instantiate")
        values = list(self.particular)
        for t, coeff in (free or {}).items():
            for pos in range(len(values)):
                values[pos] += Fraction(coeff) * self.basis[t][pos]
        assign = dict(zip(self.labels, values))
        h = [
            [
                assign[f"H[{i + 1},{j + 1}]"] if h_pattern[i][j] is None else h_pattern[i][j]
                for j in range(chart.rank2)
            ]
            for i in range(chart.rank1)
        ]
        k = {
            idx: (assign[f"K[{idx[0]},{idx[1]},{idx[2]}]"] if v is None else v)
            for idx, v in (k_pattern or {}).items()
        }
        return MCElement.build(chart, h=h, k=k)


def solve_linear_mc(s: Lie2Structure, h_pattern, k_pattern=None) -> MCSolution:
    """Solve the flatness equation for the slots marked None.

    Raises NonlinearError when the residual is not affine in the unknowns.
    """
    ch = s.chart
    r1, r2 = ch.rank1, ch.rank2
    labels = []
    for i in range(r1):
        for j in range(r2):
            if h_pattern[i][j] is None:
                labels.append(f"H[{i + 1},{j + 1}]")
    k_pattern = k_pattern or {}
    for idx in sorted(k_pattern):
        if k_pattern[idx] is None:
            labels.append(f"K[{idx[0]},{idx[1]},{idx[2]}]")
    aug = ch.with_unknowns(len(labels))
    s_aug = s.lift(aug)
    pos = {lab: t for t, lab in enumerate(labels)}
    h = []
    for i in range(r1):
        row = []
        for j in range(r2):
            v = h_pattern[i][j]
            if v is None:
                row.append(unknown(aug, pos[f"H[{i + 1},{j + 1}]"] + 1))
            else:
                row.append(v.lift(aug) if isinstance(v, Poly) else Poly.const(aug, v))
        h.append(row)
    k = {}
    for idx, v in k_pattern.items():
        if v is None:
            k[idx] = unknown(aug, pos[f"K[{idx[0]},{idx[1]},{idx[2]}]"] + 1)
        else:
            k[idx] = v.lift(aug) if isinstance(v, Poly) else Poly.const(aug, v)
    m = MCElement.build(aug, h=h, k=k)
    residuals = mc_residual(SAlgebra(s_aug), m)
    rows, rhs = [], []
    seen = {}
    for res in residuals:
        for mono, c in res.terms.items():
            udeg = sum(e for kk, _, e in mono if kk == UNK)
            if udeg > 1:
                raise NonlinearError("flatness residual is not affine in the unknowns")
            ukey = tuple((kk, i, e) for kk, i, e in mono if kk != UNK)
            uidx = next((i for kk, i, e in mono if kk == UNK), None)
            row = seen.get(ukey)
            if row is None:
                row = len(rows)
                seen[ukey] = row
                rows.append([Fraction(0)] * len(labels))
                rhs.append(Fraction(0))
            if uidx is None:
                rhs[row] -= c
            else:
                rows[row][uidx - 1] += c
    if not labels:
        ok = all(v == 0 for v in rhs)
        return MCSolution([], [] if ok else None, [])
    if not rows:
        rows = [[Fraction(0)] * len(labels)]
        rhs = [Fraction(0)]
    sol = solve_affine(rows, rhs)
    if sol is None:
        return MCSolution(labels, None, [])
    return MCSolution(labels, sol[0], sol[1])
