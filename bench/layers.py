"""Layer tracing from outside the program.

The tracer replaces public functions and methods of the splitlie2 modules
with timing wrappers while it is installed, and puts the originals back
when it is removed.  Two kinds of wrapper share one call stack:

- stage wrappers (few calls per request) record a span each:
  (span id, name, start, end, parent span id, request id);
- engine wrappers (up to ~10^7 calls per request) record no span; they add
  to a per-(function, caller) table of call count, total and self time.

Self time is a call's duration minus the time of the traced calls made
inside it.  Spans stay in memory until the caller writes them out.
"""

from __future__ import annotations

import sys
import time

from splitlie2 import bracket, cli, cochains, gradedpoly, linalg, lwx, multivectors, sfile
from splitlie2 import structures, twisting

Poly = gradedpoly.Poly

# group -> (kind, owner, attribute names); a group sums its members.
LAYERS = {
    "gradedpoly.mul": ("engine", Poly, ["__mul__"]),
    "gradedpoly.add": ("engine", Poly, ["__add__", "__radd__"]),
    "bracket.poisson_bracket": ("engine", bracket, ["poisson_bracket"]),
    "lwx.ops": ("engine", lwx.LWXOps,
                ["anchor", "pair", "dmap", "l1", "l2_11", "l2_12", "l2_21", "l3"]),
    "structures.ops": ("engine", structures.Lie2Ops,
                       ["anchor", "l1", "l2_11", "l2_12", "l2_21", "l3"]),
    "multivectors.salgebra": ("engine", multivectors.SAlgebra,
                              ["b1", "b2", "b3", "delta", "d_part"]),
    "linalg": ("engine", linalg, ["rank", "invert", "solve_affine", "in_span",
                                  "expand_in_basis"]),
    "sfile.parse_structure_file": ("stage", sfile, ["parse_structure_file"]),
    "cli.emit": ("stage", cli, ["_emit"]),
    "structures.encode_mu": ("stage", structures, ["encode_mu"]),
    "structures.check_lie2_axioms": ("stage", structures, ["check_lie2_axioms"]),
    "lwx.build_double": ("stage", lwx, ["build_double"]),
    "lwx.check_lwx_axioms": ("stage", lwx, ["check_lwx_axioms"]),
    "lwx.dirac": ("stage", lwx, ["check_strict_dirac", "check_weak_dirac",
                                 "extract_bialgebroid"]),
    "multivectors.verify_hp_axioms": ("stage", multivectors, ["verify_hp_axioms"]),
    "multivectors.solve_linear_mc": ("stage", multivectors, ["solve_linear_mc"]),
    "twisting.induced_dual_structure": ("stage", twisting, ["induced_dual_structure"]),
    "twisting.check_bialgebroid": ("stage", twisting, ["check_bialgebroid"]),
    "cochains.verify_calculus_identities": ("stage", cochains,
                                            ["verify_calculus_identities"]),
}


def _label(owner, attr):
    if isinstance(owner, type):
        return f"{owner.__module__.rsplit('.', 1)[-1]}.{owner.__name__}.{attr}"
    return f"{owner.__name__.rsplit('.', 1)[-1]}.{attr}"


class Tracer:
    """Per-(function, caller) counters and stage spans for one run."""

    def __init__(self):
        self.calls = {}  # (function, caller) -> [count, total_s, self_s]
        self.spans = []  # (id, name, start, end, parent id, request id)
        self.inclusive = {}  # group -> outermost inclusive seconds
        self.group_of = {}  # function label -> group
        self.mul_useful = 0  # products whose operands are both nonzero
        self.mul_peak_terms = 0
        self.bracket_term_pairs = 0
        self.bracket_nonzero = 0
        self.request_id = None
        # frame: [function label, child seconds, enclosing span id]
        self._stack = [["benchmark", 0.0, None]]
        self._depth = {}
        self._undo = []

    # -- wrappers -----------------------------------------------------------

    def _finish(self, label, frame, parent, dt):
        parent[1] += dt
        key = (label, parent[0])
        rec = self.calls.get(key)
        if rec is None:
            rec = self.calls[key] = [0, 0.0, 0.0]
        rec[0] += 1
        rec[1] += dt
        rec[2] += dt - frame[1]

    def _engine(self, label, fn, observe):
        stack, clock, finish = self._stack, time.perf_counter, self._finish

        def wrapper(*args, **kw):
            parent = stack[-1]
            frame = [label, 0.0, parent[2]]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kw)
            finally:
                dt = clock() - t0
                stack.pop()
                finish(label, frame, parent, dt)
            if observe is not None:
                observe(args, result)
            return result

        return wrapper

    def stage(self, label, group, fn, *args, **kw):
        """Call fn inside a span named label, counted under group."""
        stack, clock = self._stack, time.perf_counter
        parent = stack[-1]
        span_id = len(self.spans)
        self.spans.append(None)
        frame = [label, 0.0, span_id]
        stack.append(frame)
        depth = self._depth.get(group, 0)
        self._depth[group] = depth + 1
        t0 = clock()
        try:
            return fn(*args, **kw)
        finally:
            t1 = clock()
            stack.pop()
            self._depth[group] = depth
            if depth == 0:
                self.inclusive[group] = self.inclusive.get(group, 0.0) + (t1 - t0)
            self.spans[span_id] = (span_id, label, t0, t1, parent[2], self.request_id)
            self._finish(label, frame, parent, t1 - t0)

    def _stage(self, label, group, fn):
        stage = self.stage

        def wrapper(*args, **kw):
            return stage(label, group, fn, *args, **kw)

        return wrapper

    # -- observers ------------------------------------------------------------

    def _observe_mul(self, args, result):
        a, b = args
        if a.terms and (b.terms if isinstance(b, Poly) else b != 0):
            self.mul_useful += 1
        if len(result.terms) > self.mul_peak_terms:
            self.mul_peak_terms = len(result.terms)

    def _observe_bracket(self, args, result):
        f, g = args
        self.bracket_term_pairs += len(f.terms) * len(g.terms)
        if result.terms:
            self.bracket_nonzero += 1

    # -- install / remove -----------------------------------------------------

    def install(self):
        modules = [m for name, m in sys.modules.items()
                   if m is not None and (name == "splitlie2" or name.startswith("splitlie2."))]
        observers = {"gradedpoly.mul": self._observe_mul,
                     "bracket.poisson_bracket": self._observe_bracket}
        for group, (kind, owner, attrs) in LAYERS.items():
            for attr in attrs:
                label = _label(owner, attr)
                self.group_of[label] = group
                orig = getattr(owner, attr)
                if kind == "engine":
                    wrapped = self._engine(label, orig, observers.get(group))
                else:
                    wrapped = self._stage(label, group, orig)
                if isinstance(owner, type):
                    self._undo.append((owner, attr, orig))
                    setattr(owner, attr, wrapped)
                    continue
                # module functions are imported by name into other modules
                for mod in modules:
                    for name, value in list(vars(mod).items()):
                        if value is orig:
                            self._undo.append((mod, name, orig))
                            setattr(mod, name, wrapped)

    def remove(self):
        for owner, attr, orig in reversed(self._undo):
            setattr(owner, attr, orig)
        self._undo.clear()

    # -- results ----------------------------------------------------------------

    def group_totals(self):
        """group -> [calls, self seconds], summed over callers."""
        out = {}
        for (label, _), (count, _, self_s) in self.calls.items():
            group = self.group_of.get(label)
            if group is None:
                continue
            acc = out.setdefault(group, [0, 0.0])
            acc[0] += count
            acc[1] += self_s
        return out

    def table(self):
        """Per-(function, caller) rows, largest self time first."""
        rows = [{"function": f, "caller": c, "calls": n, "total_s": t, "self_s": s}
                for (f, c), (n, t, s) in self.calls.items()]
        return sorted(rows, key=lambda r: -r["self_s"])

    def span_dicts(self):
        return [{"id": i, "name": n, "start": a, "end": b, "parent": p, "request": r}
                for i, n, a, b, p, r in self.spans]
