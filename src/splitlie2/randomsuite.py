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

from .builtin import killing_form
from .gradedpoly import Chart, Poly, X
from .structures import Lie2Structure, signed_permutations, transport

_LIE_ALGEBRAS = {
    "abelian2": (2, {}),
    "solvable2": (2, {(0, 1): [(1, 1)]}),
    "heisenberg3": (3, {(0, 1): [(2, 1)]}),
    "sl2": (3, {(0, 1): [(1, 2)], (0, 2): [(2, -2)], (1, 2): [(0, 1)]}),
}


def _lie_constants(name):
    dim, table = _LIE_ALGEBRAS[name]
    c = [[[Fraction(0)] * dim for _ in range(dim)] for _ in range(dim)]
    for (i, j), terms in table.items():
        for k, v in terms:
            c[i][j][k] = Fraction(v)
            c[j][i][k] = -Fraction(v)
    return dim, c


def _adjoint_module(dim, c):
    """mu4 tensor of the adjoint action on a copy of the algebra itself."""
    return [[[c[i][j][k] for k in range(dim)] for j in range(dim)] for i in range(dim)]


def _random_invertible(rng, dim):
    from .linalg import invert

    while True:
        t = [[Fraction(rng.randint(-2, 2)) for _ in range(dim)] for _ in range(dim)]
        for i in range(dim):
            t[i][i] += Fraction(rng.choice((1, 1, 2, -1)))
        if invert(t) is not None:
            return t


def _semidirect(name, trivial_module=False) -> Lie2Structure:
    dim, c = _lie_constants(name)
    chart = Chart(0, dim, dim)
    mu4 = None if trivial_module else _adjoint_module(dim, c)
    return Lie2Structure.build(chart, mu3=c, mu4=mu4)


def _identity_complex(name) -> Lie2Structure:
    dim, c = _lie_constants(name)
    chart = Chart(0, dim, dim)
    ident = [[Fraction(int(i == j)) for j in range(dim)] for i in range(dim)]
    return Lie2Structure.build(chart, mu2=ident, mu3=c, mu4=_adjoint_module(dim, c))


def _quadratic(name) -> Lie2Structure:
    dim, c = _lie_constants(name)
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
    name = rng.choice(list(_LIE_ALGEBRAS))
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
        from .builtin import lsa3

        s = lsa3(rng.randint(1, 5))["structure"]
    t1 = _random_invertible(rng, s.chart.rank1)
    t2 = _random_invertible(rng, s.chart.rank2)
    return transport(s, t1, t2)


def perturb_structure(s: Lie2Structure, rng: random.Random) -> Lie2Structure:
    """Bump one tensor entry (alternating symmetries kept intact)."""
    out = Lie2Structure(
        s.chart,
        [list(r) for r in s.mu1],
        [list(r) for r in s.mu2],
        [[list(q) for q in r] for r in s.mu3],
        [[list(q) for q in r] for r in s.mu4],
        [[[list(q) for q in p] for p in r] for r in s.mu5],
    )
    ch = s.chart
    r1, r2 = ch.rank1, ch.rank2
    bump = Poly.const(ch, Fraction(rng.randint(1, 3)))
    choices = []
    if r1 and ch.base_dim:
        choices.append("mu1")
    if r1 and r2:
        choices.extend(["mu2", "mu4"])
    if r1 >= 2:
        choices.append("mu3")
    if r1 >= 3 and r2:
        choices.append("mu5")
    which = rng.choice(choices) if choices else "mu4"
    if which == "mu1":
        out.mu1[rng.randrange(r1)][rng.randrange(ch.base_dim)] += bump
    elif which == "mu2":
        out.mu2[rng.randrange(r2)][rng.randrange(r1)] += bump
    elif which == "mu4":
        out.mu4[rng.randrange(r1)][rng.randrange(r2)][rng.randrange(r2)] += bump
    elif which == "mu3":
        i = rng.randrange(r1)
        j = rng.randrange(r1)
        while j == i:
            j = rng.randrange(r1)
        k = rng.randrange(r1)
        out.mu3[i][j][k] += bump
        out.mu3[j][i][k] -= bump
    else:
        i, j, k = rng.sample(range(r1), 3)
        l = rng.randrange(r2)
        for (a, b, c), sign in signed_permutations((i, j, k)):
            out.mu5[a][b][c][l] = out.mu5[a][b][c][l] + bump * sign
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
