"""Random homogeneous polynomials for the property-style tests."""

from fractions import Fraction

from splitlie2.gradedpoly import (
    KIND_DEGREE,
    KIND_ODD,
    P,
    TH,
    THD,
    X,
    XI,
    XID,
    Poly,
    mono_from_sequence,
)


def random_homogeneous(rng, chart, degree):
    """Random homogeneous polynomial of the given total degree."""
    acc = {}
    for _ in range(60):
        d, factors, tries = 0, [], 0
        while d < degree and tries < 40:
            tries += 1
            k = rng.choice((X, XI, TH, P, XID, THD))
            if chart.kind_rank(k) == 0:
                continue
            idx = rng.randint(1, chart.kind_rank(k))
            if KIND_ODD[k] and (k, idx) in factors:
                continue
            if d + KIND_DEGREE[k] > degree:
                continue
            if KIND_DEGREE[k] == 0 and rng.random() < 0.7:
                continue
            factors.append((k, idx))
            d += KIND_DEGREE[k]
        if d == degree:
            sign, mono = mono_from_sequence(factors)
            if sign:
                acc[mono] = acc.get(mono, 0) + sign * Fraction(rng.randint(-3, 3) or 1)
        if len(acc) >= 2:
            break
    p = Poly(chart, acc)
    if p.is_zero:
        return Poly.const(chart, 1) if degree == 0 else p
    return p
