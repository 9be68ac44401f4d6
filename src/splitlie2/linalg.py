"""Small exact linear algebra over the rationals (dense, desk scale)."""

from __future__ import annotations

from fractions import Fraction


def _frac_matrix(rows):
    return [[Fraction(v) for v in row] for row in rows]


def row_reduce(m, ncol):
    """Gauss-Jordan elimination of the first ncol columns of the rational
    matrix m, in place; returns the pivot columns.  Columns past ncol are
    carried along: the row operations depend on the first ncol only."""
    nrow = len(m)
    pivots = []
    for c in range(ncol):
        r = len(pivots)
        if r == nrow:
            break
        piv = next((i for i in range(r, nrow) if m[i][c] != 0), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        inv = 1 / m[r][c]
        m[r] = [v * inv for v in m[r]]
        for i in range(nrow):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
    return pivots


def rank(rows) -> int:
    m = _frac_matrix(rows)
    return len(row_reduce(m, len(m[0]) if m else 0))


def invert(rows):
    """Inverse of a square rational matrix, or None if singular."""
    m = _frac_matrix(rows)
    n = len(m)
    aug = [m[i] + [Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    if len(row_reduce(aug, n)) < n:
        return None
    return [row[n:] for row in aug]


def solve_affine(a_rows, b_col):
    """Solve A x = b exactly.

    Returns (particular, nullspace_basis) or None when inconsistent.
    A zero-column system (no unknowns) is consistent iff b = 0.
    """
    nrow = len(a_rows)
    ncol = len(a_rows[0]) if a_rows else 0
    aug = [[Fraction(v) for v in a_rows[i]] + [Fraction(b_col[i])] for i in range(nrow)]
    pivots = row_reduce(aug, ncol)
    if any(aug[i][ncol] != 0 for i in range(len(pivots), nrow)):
        return None
    particular = [Fraction(0)] * ncol
    for i, c in enumerate(pivots):
        particular[c] = aug[i][ncol]
    free = [c for c in range(ncol) if c not in pivots]
    basis = []
    for fc in free:
        v = [Fraction(0)] * ncol
        v[fc] = Fraction(1)
        for i, c in enumerate(pivots):
            v[c] = -aug[i][fc]
        basis.append(v)
    return particular, basis


def in_span(basis_vectors, vector) -> bool:
    """Exact membership of a rational vector in the span of basis vectors."""
    if all(v == 0 for v in vector):
        return True
    if not basis_vectors:
        return False
    cols = list(zip(*basis_vectors))
    sol = solve_affine([list(row) for row in cols], list(vector))
    return sol is not None


def expand_in_basis(basis_vectors, vector):
    """Coefficients expressing vector in the given basis, or None."""
    if not basis_vectors:
        return None if any(v != 0 for v in vector) else []
    cols = list(zip(*basis_vectors))
    sol = solve_affine([list(row) for row in cols], list(vector))
    return None if sol is None else sol[0]
