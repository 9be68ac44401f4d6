"""Seeded benchmark inputs and their known answers.

    PYTHONPATH=src python3 bench/workloads.py --workload NAME --seed N --out DIR

Every workload is a list of requests made from the workload seed alone.
The structure files and a ``manifest.json`` of the requests are written
before any timing starts, by a process of their own, so that the
benchmark's peak memory is the program's.  The program only ever receives
those files (the cochain suite, which has no CLI command of its own,
parses its file with the program's parser inside the request).

Known answers never rest on the route under test alone:

- ``pass``: the input is valid by construction (builtins, their twisted
  duals, frame-scrambled valid structures), so the exit code is 0 and
  every record passes.  The reports include the paper's cross-check
  routes (componentwise double vs derived brackets, direct axioms vs
  ``{mu,mu}=0``), which must agree as well.
- ``agree``: a perturbed structure whose verdict is unknown.  The exit
  code must match the records (0 iff all pass), and the two routes must
  agree: ``equivalence`` (direct axioms vs nilpotency) and
  ``roundtrip.mu`` (decode(encode(S)) = S) pass even when the axioms fail.
- ``affine:<d>``: ``mc-solve`` finds a consistent affine system whose
  solution space has dimension d.
- ``nonlinear``: ``mc-solve`` reports a residual that is not affine in
  the unknowns (exit 1, ``solve.affine`` false).
"""

from __future__ import annotations

import argparse
import copy
import json
import random
import sys
from dataclasses import asdict, dataclass
from pathlib import Path

from splitlie2.builtin import builtin_example
from splitlie2.lwx import Subbundle
from splitlie2.multivectors import verify_hp_axioms
from splitlie2.randomsuite import structure_suite
from splitlie2.sfile import dual_block, mc_blocks, render_structure
from splitlie2.twisting import BialgebroidPair

BUILTINS = ("abelian", "crossed_sl2", "lsa3", "semidirect_poly", "string_sl2")

# Every pass of flat-brackets runs hp-verify and the cochain suite on this
# many derived seeds, so that one seed's random tuples do not set the
# workload's cost on their own.
FLAT_SUB_SEEDS = 8

# Known program defect, left for a program fix: on string_sl2 (the one
# builtin with a nonzero ternary bracket) hp-verify fails hp.jac3, the
# ternary higher Jacobi identity, on some tuples whose four multivectors
# all have even degree; about one seed in eight hits one in its 100 tuples.
# These are the seeds that do among the first 73 draws of the sub-seed
# stream; the rest form the pool that flat-brackets draws from, so that
# its valid inputs keep a known answer.  Every flat-brackets input
# generation re-runs the first of them and says whether it still fails.
KNOWN_DEFECT_SEEDS = (148643, 643074, 504186, 426521, 608076, 677993, 116888, 368661, 412700)
_draws = random.Random(0x5EED)
HP_SEED_POOL = [d for d in (_draws.randrange(10**6) for _ in range(73))
                if d not in KNOWN_DEFECT_SEEDS]

# One dense-structures pass: check-structure requests per chart signature
# (base_dim, rank1, rank2), half valid and half perturbed.  These are
# structure_suite's own proportions for 180 draws (its six kinds are
# uniform), rounded to even counts: 5 -> 4 or 6 and 35 -> 34 or 36.  A
# fixed mix keeps every seed's pass the same shape, so that the median
# request, which lies among the costlier rank-1 3 charts (98 of 180),
# does not move between seeds with the share of each signature.
DENSE_QUOTAS = {
    (0, 1, 1): 6, (0, 1, 2): 4, (0, 2, 1): 6, (0, 2, 2): 36, (1, 2, 1): 30,
    (0, 3, 1): 34, (0, 3, 2): 4, (0, 3, 3): 60,
}


@dataclass
class Request:
    """One closed-loop request: a CLI call, or the cochain suite on a file."""

    label: str
    expect: str
    input_bytes: int
    argv: list | None = None
    calculus: list | None = None  # [file, cochain count, seed]


def _write(workdir: Path, name: str, text: str) -> tuple[str, int]:
    path = workdir / f"{name}.json"
    path.write_text(text, encoding="utf-8")
    return str(path), len(text.encode())


def _cli(workdir, name, text, command, expect):
    path, size = _write(workdir, name, text)
    return Request(f"{' '.join(command)} {name}", expect, size,
                   argv=["--quiet", "--file", path, *command])


def _subbundles(chart):
    def block(sub):
        return {"basis1": [[str(v) for v in row] for row in sub.basis1],
                "basis2": [[str(v) for v in row] for row in sub.basis2]}
    return {"A": block(Subbundle.canonical_half(chart)),
            "B": block(Subbundle.canonical_dual_half(chart))}


def _twisted_choices(seed):
    """(k0 of lsa3, index into the string_sl2 flat family)."""
    rng = random.Random(seed)
    return rng.randint(1, 9), rng.randrange(4)


def _flat_examples(seed):
    """(name, structure, flat element) for the builtins that have one."""
    k0, member = _twisted_choices(seed)
    lsa = builtin_example(f"lsa3({k0})")
    string = builtin_example("string_sl2")
    return [(f"lsa3({k0})", lsa["structure"], lsa["mc"]),
            (f"string_sl2[{member}]", string["structure"], string["mc_family"][member])]


def _twisted_text(s, m, extra=None):
    pair = BialgebroidPair.from_twist(s, m)
    doc = {**mc_blocks(m), "gamma": dual_block(pair.dual), **(extra or {})}
    return render_structure(s, extra=doc)


def double_axioms(seed: int, workdir: Path) -> list[Request]:
    """Double axiom suite and Dirac checks on builtin pairs.

    lsa3(k0) and a string_sl2 family member carry the dual induced by their
    flat element (a ``gamma`` block); crossed_sl2 and semidirect_poly have
    no flat element, so the CLI pairs them with the abelian dual.

    A pass has an odd number of requests (nine), so that the median time
    to verdict is the time of one request, a ``dirac-check --strict`` of
    about 0.2 s, and not the mean of two unlike neighbours 50 % apart.
    """
    out = []
    for name, s, m in _flat_examples(seed):
        text = _twisted_text(s, m, {"subbundles": _subbundles(s.chart)})
        out.append(_cli(workdir, name, text, ["lwx-check"], "pass"))
        out.append(_cli(workdir, name, text, ["dirac-check", "--strict"], "pass"))
        out.append(_cli(workdir, name, text, ["dirac-check", "--weak", "--graph"], "pass"))
    for name, commands in (("crossed_sl2", (["lwx-check"], ["dirac-check", "--strict"])),
                           ("semidirect_poly", (["lwx-check"],))):
        s = builtin_example(name)["structure"]
        text = render_structure(s, extra={"subbundles": _subbundles(s.chart)})
        for command in commands:
            out.append(_cli(workdir, name, text, command, "pass"))
    return out


def mc_solve_texts(k0: int) -> dict:
    """The two mc-solve inputs on lsa3 with their known answers.

    With H = I, the K[1,2,3] slot enters the flatness residual affinely and
    every value is flat (lsa3(k) is flat for all k): dimension 1.  With
    every off-diagonal H slot unknown the residual is quadratic.
    """
    ex = builtin_example(f"lsa3({k0})")
    base = json.loads(render_structure(ex["structure"], extra=mc_blocks(ex["mc"])))
    k_unknown = copy.deepcopy(base)
    k_unknown["K"] = [{"idx": [1, 2, 3], "val": "?"}]
    h_unknown = copy.deepcopy(base)
    h_unknown["H"] = [{"idx": [i, j], "val": 1 if i == j else "?"}
                      for i in (1, 2, 3) for j in (1, 2, 3)]
    return {"affine:1": json.dumps(k_unknown, indent=2),
            "nonlinear": json.dumps(h_unknown, indent=2)}


def flat_brackets(seed: int, workdir: Path) -> list[Request]:
    """Multivector brackets, flatness, twisting and the cochain suite."""
    sub_seeds = random.Random(seed ^ 0x5EED).sample(HP_SEED_POOL, FLAT_SUB_SEEDS)
    out = []
    for name in BUILTINS:
        text = render_structure(builtin_example(name)["structure"])
        path, size = _write(workdir, name, text)
        for sub in sub_seeds:
            out.append(Request(f"hp-verify --seed {sub} {name}", "pass", size,
                               argv=["--quiet", "--file", path, "--seed", str(sub), "hp-verify"]))
            out.append(Request(f"calculus-identities --seed {sub} {name}", "pass", size,
                               calculus=[path, 10, sub]))
    for name, s, m in _flat_examples(seed):
        text = _twisted_text(s, m)
        for command in ("mc-check", "twist", "bialgebroid-check", "manin-extract"):
            out.append(_cli(workdir, name, text, [command], "pass"))
    k0, _ = _twisted_choices(seed)
    for expect, text in mc_solve_texts(k0).items():
        out.append(_cli(workdir, f"lsa3-solve-{expect.split(':')[0]}", text,
                        ["mc-solve"], expect))
    return out


def dense_structures(seed: int, workdir: Path) -> list[Request]:
    """check-structure on frame-scrambled dense tensors, half perturbed.

    The inputs are the first entries of ``structure_suite(n, seed)`` that
    fill DENSE_QUOTAS, kept in suite order.
    """
    want = {(sig, valid): quota // 2
            for sig, quota in DENSE_QUOTAS.items() for valid in (True, False)}
    n = 400
    while True:
        left = dict(want)
        picked = []
        for i, (s, valid) in enumerate(structure_suite(n, seed)):
            ch = s.chart
            key = ((ch.base_dim, ch.rank1, ch.rank2), valid is True)
            if left.get(key, 0) > 0:
                left[key] -= 1
                picked.append((i, s, valid))
        if not any(left.values()):
            break
        n *= 2  # structure_suite(2n, seed) starts with structure_suite(n, seed)
    out = []
    for i, s, valid in picked:
        out.append(_cli(workdir, f"suite{i:04d}", render_structure(s), ["check-structure"],
                        "pass" if valid else "agree"))
    return out


def known_defect_note() -> str:
    """Whether hp-verify still fails on the first of KNOWN_DEFECT_SEEDS."""
    seed = KNOWN_DEFECT_SEEDS[0]
    rep = verify_hp_axioms(builtin_example("string_sl2")["structure"], count=8, seed=seed)
    if rep.passed:
        return (f"hp-verify --seed {seed} now passes on string_sl2: the hp.jac3 defect "
                "looks fixed, so KNOWN_DEFECT_SEEDS can go back into the workload")
    return (f"known program defect: hp-verify --seed {seed} fails hp.jac3 on the valid "
            "builtin string_sl2; KNOWN_DEFECT_SEEDS are left out of this workload")


WORKLOADS = {
    "double-axioms": double_axioms,
    "flat-brackets": flat_brackets,
    "dense-structures": dense_structures,
}


def save(requests, path: Path):
    path.write_text(json.dumps([asdict(r) for r in requests], indent=1), encoding="utf-8")


def load(path: Path) -> list[Request]:
    return [Request(**r) for r in json.loads(path.read_text(encoding="utf-8"))]


def _records(body):
    return [(rep.get("title"), rec) for rep in body.get("reports", [])
            for rec in rep.get("checks", [])]


def judge(expect: str, exit_code: int, body: dict) -> str | None:
    """Why a request's outcome differs from its known answer, or None."""
    records = _records(body)
    failed = [rec["id"] for _, rec in records if not rec["passed"]]
    consistent = exit_code == (1 if failed else 0)
    if expect == "pass":
        if exit_code != 0:
            return f"exit {exit_code}, expected 0"
        if failed or not records:
            return f"failed checks on a valid input: {failed[:3]}"
        return None
    if expect == "agree":
        if not consistent:
            return f"exit {exit_code} does not match {len(failed)} failed checks"
        ids = {(title, rec["id"]): rec["passed"] for title, rec in records}
        for key in (("axioms-vs-nilpotency", "equivalence"), ("roundtrip", "roundtrip.mu")):
            if ids.get(key) is not True:
                return f"cross-check {key[1]} did not pass"
        return None
    if expect.startswith("affine:"):
        dim = int(expect.split(":")[1])
        got = (body.get("solution") or {}).get("dimension")
        if exit_code != 0 or failed or got != dim:
            return f"exit {exit_code}, dimension {got}, expected 0 and {dim}"
        return None
    if expect == "nonlinear":
        if exit_code != 1 or failed != ["solve.affine"]:
            return f"exit {exit_code}, failed {failed}, expected 1 and solve.affine"
        return None
    raise ValueError(f"unknown expectation {expect!r}")


def main() -> int:
    ap = argparse.ArgumentParser(description="Write one workload's inputs and manifest.")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True, type=Path)
    args = ap.parse_args()
    args.out.mkdir(parents=True, exist_ok=True)
    save(WORKLOADS[args.workload](args.seed, args.out), args.out / "manifest.json")
    if args.workload == "flat-brackets":
        print(known_defect_note(), file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
