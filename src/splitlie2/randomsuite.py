"""Seeded generators of valid and perturbed structures for the test suites.

Valid structures come from a small library of closed constructions (zero
structures, module extensions of Lie algebras, identity complexes,
quadratic ternary extensions, polynomial action algebroids), then get
scrambled by random invertible frame changes, which preserves validity
while producing dense tensors.  Perturbations bump one tensor entry
respecting the alternating symmetries.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .builtin import LIE_ALGEBRAS, killing_form, lie_structure_constants, lsa3
from .gradedpoly import Chart, Poly, X
from .linalg import invert
from .structures import Lie2Structure, lie2_layout, signed_permutations, transport


def _adjoint_module(dim, c):
    """mu4 tensor of the adjoint action on a copy of the algebra itself."""
    return [[[c[i][j][k] for k in range(dim)] for j in range(dim)] for i in range(dim)]


def _random_invertible(rng, dim):
    while True:
        t = [[Fraction(rng.randint(-2, 2)) for _ in range(dim)] for _ in range(dim)]
        for i in range(dim):
            t[i][i] += Fraction(rng.choice((1, 1, 2, -1)))
        if invert(t) is not None:
            return t


def _semidirect(name, trivial_module=False) -> Lie2Structure:
    c = lie_structure_constants(name)
    dim = len(c)
    chart = Chart(0, dim, dim)
    mu4 = None if trivial_module else _adjoint_module(dim, c)
    return Lie2Structure.build(chart, mu3=c, mu4=mu4)


def _identity_complex(name) -> Lie2Structure:
    c = lie_structure_constants(name)
    dim = len(c)
    chart = Chart(0, dim, dim)
    ident = [[Fraction(int(i == j)) for j in range(dim)] for i in range(dim)]
    return Lie2Structure.build(chart, mu2=ident, mu3=c, mu4=_adjoint_module(dim, c))


def _quadratic(name) -> Lie2Structure:
    c = lie_structure_constants(name)
    dim = len(c)
    b = killing_form(c)
    chart = Chart(0, dim, 1)
    mu5 = [[[[sum(b[i][m] * c[j][k][m] for m in range(dim))] for k in range(dim)]
            for j in range(dim)] for i in range(dim)]
    return Lie2Structure.build(chart, mu3=c, mu5=mu5)


def _polynomial_action(rng) -> Lie2Structure:
    """Solvable algebra acting on a line with polynomial vector fields."""
    chart = Chart(1, 2, 1)
    x = Poly.var(chart, X, 1)
    scale = Fraction(rng.randint(1, 3))
    mu1 = [[x * scale], [scale]]
    # scaling the action scales the bracket of the acting algebra
    mu3 = [[[0, 0], [0, -scale]], [[0, scale], [0, 0]]]
    mu4 = [[[rng.randint(0, 2)]], [[0]]]
    return Lie2Structure.build(chart, mu1=mu1, mu3=mu3, mu4=mu4)


def random_valid_structure(rng: random.Random) -> Lie2Structure:
    kind = rng.randrange(6)
    name = rng.choice(list(LIE_ALGEBRAS))
    if kind == 0:
        s = Lie2Structure.zero(Chart(0, rng.randint(1, 3), rng.randint(1, 2)))
    elif kind == 1:
        s = _semidirect(name, trivial_module=bool(rng.getrandbits(1)))
    elif kind == 2:
        s = _identity_complex(name)
    elif kind == 3:
        s = _quadratic(rng.choice(("sl2", "heisenberg3")))
    elif kind == 4:
        return _polynomial_action(rng)  # keep the polynomial anchor unscrambled
    else:
        s = lsa3(rng.randint(1, 5))["structure"]
    t1 = _random_invertible(rng, s.chart.rank1)
    t2 = _random_invertible(rng, s.chart.rank2)
    return transport(s, t1, t2)


def perturb_structure(s: Lie2Structure, rng: random.Random) -> Lie2Structure:
    """Bump one tensor entry (alternating symmetries kept intact)."""
    out = s.map_entries(lambda p: p)
    bump = Poly.const(s.chart, Fraction(rng.randint(1, 3)))
    # a tensor qualifies when it has an entry off its alternation diagonal;
    # the alternating ones come last, the order that the pinned suite
    # digests were drawn in
    choices = sorted([(name, shape, alt) for name, shape, alt in lie2_layout(s.chart)
                      if all(shape) and shape[0] >= alt], key=lambda c: c[2])
    name, shape, alt = rng.choice(choices)
    if alt == 2:
        i = j = rng.randrange(shape[0])
        while j == i:
            j = rng.randrange(shape[0])
        heads = [((i, j), 1), ((j, i), -1)]
    elif alt == 3:
        heads = signed_permutations(rng.sample(range(shape[0]), 3))
    else:
        heads = [((), 1)]
    tail = tuple(rng.randrange(dim) for dim in shape[alt:])
    for head, sign in heads:
        *path, last = head + tail
        node = getattr(out, name)
        for i in path:
            node = node[i]
        node[last] = node[last] + bump * sign
    return out


def structure_suite(count: int, seed: int = 0):
    """(structure, expected_valid) pairs: half built valid, half perturbed."""
    rng = random.Random(seed)
    out = []
    for t in range(count):
        s = random_valid_structure(rng)
        if t % 2 == 0:
            out.append((s, True))
        else:
            out.append((perturb_structure(s, rng), None))  # verdict unknown
    return out
