"""Dense reference section calculus, the slow path the sparse ops replace.

These are the loops ``structures.Lie2Ops`` and ``lwx.LWXOps`` ran before
they iterated over nonzero data only: every index of every structure
tensor, zero or not.  ``test_ops_differential.py`` compares the two
exactly.  This module is test-only; the package keeps one implementation.
"""

from splitlie2.gradedpoly import Poly
from splitlie2.linalg import invert
from splitlie2.lwx import LWXStructure
from splitlie2.structures import d_dx


class DenseLie2Ops:
    """Evaluation of the brackets on coefficient-vector sections."""

    def __init__(self, s):
        self.s = s
        self.chart = s.chart
        self.r1 = s.chart.rank1
        self.r2 = s.chart.rank2
        self.n = s.chart.base_dim
        self._right = s.mu4

    def anchor(self, xv, f: Poly) -> Poly:
        out = Poly.zero(self.chart)
        for j in range(self.r1):
            if xv[j].is_zero:
                continue
            for i in range(self.n):
                mu = self.s.mu1[j][i]
                if not mu.is_zero:
                    out = out + xv[j] * mu * d_dx(f, i + 1)
        return out

    def l1(self, mv):
        out = [Poly.zero(self.chart) for _ in range(self.r1)]
        for j in range(self.r2):
            if mv[j].is_zero:
                continue
            for i in range(self.r1):
                out[i] = out[i] + mv[j] * self.s.mu2[j][i]
        return out

    def l2_11(self, xv, yv):
        out = [Poly.zero(self.chart) for _ in range(self.r1)]
        for i in range(self.r1):
            for j in range(self.r1):
                c = xv[i] * yv[j]
                if c.is_zero:
                    continue
                for k in range(self.r1):
                    mu = self.s.mu3[i][j][k]
                    if not mu.is_zero:
                        out[k] = out[k] + c * mu
        for k in range(self.r1):
            out[k] = out[k] + self.anchor(xv, yv[k]) - self.anchor(yv, xv[k])
        return out

    def l2_12(self, xv, mv):
        out = [Poly.zero(self.chart) for _ in range(self.r2)]
        for i in range(self.r1):
            for j in range(self.r2):
                c = xv[i] * mv[j]
                if c.is_zero:
                    continue
                for k in range(self.r2):
                    mu = self.s.mu4[i][j][k]
                    if not mu.is_zero:
                        out[k] = out[k] + c * mu
        for k in range(self.r2):
            out[k] = out[k] + self.anchor(xv, mv[k])
        return out

    def l2_21(self, mv, xv):
        out = [Poly.zero(self.chart) for _ in range(self.r2)]
        for i in range(self.r1):
            for j in range(self.r2):
                c = xv[i] * mv[j]
                if c.is_zero:
                    continue
                for k in range(self.r2):
                    mu = self._right[i][j][k]
                    if not mu.is_zero:
                        out[k] = out[k] + c * mu
        for k in range(self.r2):
            out[k] = out[k] + self.anchor(xv, mv[k])
        return out

    def l3(self, xv, yv, zv):
        out = [Poly.zero(self.chart) for _ in range(self.r2)]
        for i in range(self.r1):
            for j in range(self.r1):
                for k in range(self.r1):
                    c = xv[i] * yv[j] * zv[k]
                    if c.is_zero:
                        continue
                    for l in range(self.r2):
                        mu = self.s.mu5[i][j][k][l]
                        if not mu.is_zero:
                            out[l] = out[l] + c * mu
        return out


class DenseLWXOps:
    """Section calculus of a metric double (same protocol as Lie2Ops)."""

    def __init__(self, e: LWXStructure):
        self.e = e
        self.chart = e.chart
        self.r1 = e.d1
        self.r2 = e.d2
        self.n = e.chart.base_dim
        self._sinv = invert(e.pairing)
        if self._sinv is None:
            raise ValueError("pairing must be nondegenerate")

    def anchor(self, uv, f: Poly) -> Poly:
        out = Poly.zero(self.chart)
        for a in range(self.r1):
            if uv[a].is_zero:
                continue
            for i in range(self.n):
                r = self.e.rho[a][i]
                if not r.is_zero:
                    out = out + uv[a] * r * d_dx(f, i + 1)
        return out

    def pair(self, uv, wv) -> Poly:
        out = Poly.zero(self.chart)
        for a in range(self.r1):
            for m in range(self.r2):
                s = self.e.pairing[a][m]
                if s:
                    out = out + uv[a] * wv[m] * s
        return out

    def dmap(self, f: Poly):
        """D f, the pairing-dual of the anchor derivative of f."""
        rhs = []
        for a in range(self.r1):
            acc = Poly.zero(self.chart)
            for i in range(self.n):
                r = self.e.rho[a][i]
                if not r.is_zero:
                    acc = acc + r * d_dx(f, i + 1)
            rhs.append(acc)
        out = []
        for m in range(self.r2):
            acc = Poly.zero(self.chart)
            for a in range(self.r1):
                c = self._sinv[m][a]
                if c:
                    acc = acc + rhs[a] * c
            out.append(acc)
        return out

    def l1(self, wv):
        out = [Poly.zero(self.chart) for _ in range(self.r1)]
        for m in range(self.r2):
            if wv[m].is_zero:
                continue
            for a in range(self.r1):
                p = self.e.partial[m][a]
                if not p.is_zero:
                    out[a] = out[a] + wv[m] * p
        return out

    def l2_11(self, uv, vv):
        out = [Poly.zero(self.chart) for _ in range(self.r1)]
        for a in range(self.r1):
            for b in range(self.r1):
                c = uv[a] * vv[b]
                if c.is_zero:
                    continue
                for k in range(self.r1):
                    t = self.e.c11[a][b][k]
                    if not t.is_zero:
                        out[k] = out[k] + c * t
        for b in range(self.r1):
            out[b] = out[b] + self.anchor(uv, vv[b]) - self.anchor(vv, uv[b])
        return out

    def l2_12(self, uv, wv):
        out = [Poly.zero(self.chart) for _ in range(self.r2)]
        for a in range(self.r1):
            for m in range(self.r2):
                c = uv[a] * wv[m]
                if c.is_zero:
                    continue
                for k in range(self.r2):
                    t = self.e.c12[a][m][k]
                    if not t.is_zero:
                        out[k] = out[k] + c * t
        for m in range(self.r2):
            out[m] = out[m] + self.anchor(uv, wv[m])
        for a in range(self.r1):
            if uv[a].is_zero:
                continue
            weight = Poly.zero(self.chart)
            for m in range(self.r2):
                s = self.e.pairing[a][m]
                if s:
                    weight = weight + wv[m] * s
            if weight.is_zero:
                continue
            dv = self.dmap(uv[a])
            for k in range(self.r2):
                out[k] = out[k] + weight * dv[k]
        return out

    def l2_21(self, wv, uv):
        out = [Poly.zero(self.chart) for _ in range(self.r2)]
        for m in range(self.r2):
            for a in range(self.r1):
                c = wv[m] * uv[a]
                if c.is_zero:
                    continue
                for k in range(self.r2):
                    t = self.e.c21[m][a][k]
                    if not t.is_zero:
                        out[k] = out[k] + c * t
        for m in range(self.r2):
            out[m] = out[m] + self.anchor(uv, wv[m])
        for m in range(self.r2):
            if wv[m].is_zero:
                continue
            weight = Poly.zero(self.chart)
            for a in range(self.r1):
                s = self.e.pairing[a][m]
                if s:
                    weight = weight + uv[a] * s
            if weight.is_zero:
                continue
            dv = self.dmap(wv[m])
            for k in range(self.r2):
                out[k] = out[k] - weight * dv[k]
        return out

    def l3(self, uv, vv, zv):
        out = [Poly.zero(self.chart) for _ in range(self.r2)]
        for a in range(self.r1):
            for b in range(self.r1):
                for c in range(self.r1):
                    coeff = uv[a] * vv[b] * zv[c]
                    if coeff.is_zero:
                        continue
                    for k in range(self.r2):
                        t = self.e.omega[a][b][c][k]
                        if not t.is_zero:
                            out[k] = out[k] + coeff * t
        return out
