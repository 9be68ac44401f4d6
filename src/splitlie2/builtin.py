"""Built-in example structures.

Each entry returns a fully populated structure description (tensors plus,
where meaningful, a canonical degree-3 element, dual data and frame
subbundles) so the command line can exercise every pipeline on it.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .gradedpoly import Chart, Poly
from .multivectors import MCElement
from .sfile import MAX_BASE_DIM, MAX_RANK
from .structures import Lie2Structure

# dimension and brackets [e_i, e_j] = sum_k v e_k as (i, j): [(k, v), ...], i < j
LIE_ALGEBRAS = {
    "abelian2": (2, {}),
    "solvable2": (2, {(0, 1): [(1, 1)]}),
    "heisenberg3": (3, {(0, 1): [(2, 1)]}),
    # basis (h, e, f): [h,e]=2e, [h,f]=-2f, [e,f]=h
    "sl2": (3, {(0, 1): [(1, 2)], (0, 2): [(2, -2)], (1, 2): [(0, 1)]}),
}


def lie_structure_constants(name):
    """c[i][j][k] with [e_i, e_j] = sum_k c[i][j][k] e_k for LIE_ALGEBRAS[name]."""
    dim, table = LIE_ALGEBRAS[name]
    c = [[[Fraction(0)] * dim for _ in range(dim)] for _ in range(dim)]
    for (i, j), terms in table.items():
        for k, v in terms:
            c[i][j][k] = Fraction(v)
            c[j][i][k] = -Fraction(v)
    return c


def sl2_structure_constants():
    """c[i][j][k] with [e_i, e_j] = sum_k c[i][j][k] e_k for the basis (h,e,f)."""
    return lie_structure_constants("sl2")


def killing_form(c):
    """Trace form B(x,y) = tr(ad x ad y) from structure constants."""
    dim = len(c)
    B = [[Fraction(0)] * dim for _ in range(dim)]
    for a in range(dim):
        for b in range(dim):
            B[a][b] = sum(c[a][m][k] * c[b][k][m] for m in range(dim) for k in range(dim))
    return B


def string_sl2() -> dict:
    """Quadratic Lie algebra in degree -1, a line in degree -2, ternary
    bracket from the invariant trace form."""
    chart = Chart(0, 3, 1)
    c = sl2_structure_constants()
    B = killing_form(c)
    mu5 = [[[[Fraction(0)] for _ in range(3)] for _ in range(3)] for _ in range(3)]
    for i in range(3):
        for j in range(3):
            for k in range(3):
                mu5[i][j][k][0] = sum(B[i][m] * c[j][k][m] for m in range(3))
    s = Lie2Structure.build(chart, mu3=c, mu5=mu5)
    return {
        "name": "string_sl2",
        "structure": s,
        "mc": MCElement.build(chart, h=[[1], [0], [0]], k=None),
        "mc_family": [
            MCElement.build(chart, h=[[1], [0], [0]], k=None),
            MCElement.build(chart, h=[[0], [1], [0]], k=None),
            MCElement.build(chart, h=[[0], [0], [1]], k=None),
            MCElement.build(chart, h=[[Fraction(2, 3)], [Fraction(-1, 2)], [5]], k=None),
        ],
        "bilinear_form": B,
        "brackets": c,
    }


def lsa3(k0=1) -> dict:
    """Three-dimensional left-symmetric algebra example.

    Products: e1*e1 = 2e1, e1*e2 = e2, e1*e3 = e3, e2*e3 = e3*e2 = e1; the
    degree -2 slot is the dual space with the dual left-multiplication
    action, and the canonical element is the identity pairing plus k0 times
    the volume element of the dual.
    """
    k0 = Fraction(k0)
    chart = Chart(0, 3, 3)
    prod = {(0, 0): [(0, 2)], (0, 1): [(1, 1)], (0, 2): [(2, 1)],
            (1, 2): [(0, 1)], (2, 1): [(0, 1)]}
    L = [[[Fraction(0)] * 3 for _ in range(3)] for _ in range(3)]  # L[x][y] = x*y
    for (i, j), terms in prod.items():
        for k, v in terms:
            L[i][j][k] = Fraction(v)
    # sub-adjacent bracket [x,y] = x*y - y*x
    mu3 = [[[L[i][j][k] - L[j][i][k] for k in range(3)] for j in range(3)] for i in range(3)]
    # dual action on the degree -2 slot: <l2(x, eta), y> = -<eta, x*y>
    mu4 = [[[-L[i][k][j] for k in range(3)] for j in range(3)] for i in range(3)]
    s = Lie2Structure.build(chart, mu3=mu3, mu4=mu4)
    h = [[Fraction(int(i == j)) for j in range(3)] for i in range(3)]
    mc = MCElement.build(chart, h=h, k={(1, 2, 3): k0})
    return {
        "name": "lsa3",
        "structure": s,
        "mc": mc,
        "k0": k0,
        "left_mult": L,
    }


def abelian(r1=2, r2=1, base_dim=0) -> dict:
    chart = Chart(base_dim, r1, r2)
    return {"name": f"abelian({r1},{r2})", "structure": Lie2Structure.zero(chart)}


def semidirect_poly() -> dict:
    """Action algebroid of the solvable 2-dimensional algebra on a line,
    with a rank-1 module in degree -2 and a polynomial anchor."""
    chart = Chart(1, 2, 1)
    x = Poly.var(chart, 0, 1)  # kind X
    mu1 = [[x], [1]]  # a(E1) = x d/dx, a(E2) = d/dx
    mu3 = [[[0, 0], [0, -1]], [[0, 1], [0, 0]]]  # l2(E1,E2) = -E2
    mu4 = [[[1]], [[0]]]  # module action: l2(E1, F1) = F1
    s = Lie2Structure.build(chart, mu1=mu1, mu3=mu3, mu4=mu4)
    return {"name": "semidirect_poly", "structure": s}


def crossed_sl2() -> dict:
    """Strict example: adjoint complex of sl2 with identity unary map."""
    chart = Chart(0, 3, 3)
    c = sl2_structure_constants()
    ident = [[Fraction(int(i == j)) for j in range(3)] for i in range(3)]
    s = Lie2Structure.build(chart, mu2=ident, mu3=c, mu4=c)
    return {"name": "crossed_sl2", "structure": s}


_REGISTRY = {
    "string_sl2": string_sl2,
    "lsa3": lsa3,
    "abelian": abelian,
    "semidirect_poly": semidirect_poly,
    "crossed_sl2": crossed_sl2,
}


def example_names():
    return sorted(_REGISTRY)


def builtin_example(name: str) -> dict:
    """Look up an example; parameterized names like 'abelian(2,1)' and
    'lsa3(5)' are accepted.  An unknown name raises KeyError and a bad
    parameter ValueError, before any tensor is built."""
    m = re.fullmatch(r"([a-z0-9_]+)(?:\(([^)]*)\))?", name.strip())
    if not m:
        raise KeyError(f"unknown example {name!r}")
    base, args = m.group(1), m.group(2)
    if base not in _REGISTRY:
        raise KeyError(f"unknown example {name!r}; known: {', '.join(example_names())}")
    if args is None or args.strip() == "":
        return _REGISTRY[base]()
    vals = [a.strip() for a in args.split(",")]
    if base == "abelian":
        if len(vals) > 3:
            raise ValueError(f"{name}: abelian takes at most three parameters")
        for field, v in zip(("rank1", "rank2", "base_dim"), vals):
            limit = MAX_BASE_DIM if field == "base_dim" else MAX_RANK
            if not (v.isascii() and v.isdigit()):
                raise ValueError(f"{name}: {field} {v!r} is not a non-negative integer")
            if len(v) > 4 or int(v) > limit:  # len: no int() of a huge string
                raise ValueError(f"{name}: {field} {v} exceeds the limit {limit}")
        return abelian(*map(int, vals))
    if base == "lsa3":
        try:
            (k0,) = vals
            return lsa3(Fraction(k0))
        except (ValueError, ZeroDivisionError):
            raise ValueError(f"{name}: lsa3 takes one rational parameter") from None
    raise KeyError(f"example {base!r} takes no parameters")
