"""Command-line front end: exact checks in, JSON verdicts out.

Exit codes: 0 all checks passed, 1 at least one check failed, 2 malformed
input, 141 stdout closed before the report was written (the shell's status
after SIGPIPE; not a verdict).  Reports are deterministic for fixed inputs
apart from the timestamp field.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
import time

from .builtin import builtin_example, example_names
from .cochains import verify_calculus_identities
from .lwx import (
    Subbundle,
    build_double,
    build_graph,
    check_lwx_axioms,
    check_strict_dirac,
    check_weak_dirac,
    extract_bialgebroid,
    graph_morphism_data,
)
from .multivectors import (
    NonlinearError,
    generator_agreement_report,
    mc_report,
    solve_linear_mc,
    verify_hp_axioms,
)
from .report import ENGINE_CONVENTION, CheckReport, digest, render_json
from .sfile import (
    StructureFile,
    StructureFileError,
    dual_block,
    lwx_block,
    mc_blocks,
    parse_structure_file,
    render_structure,
    structure_block,
)
from .structures import (
    Lie2Ops,
    axioms_vs_nilpotency,
    check_lie2_axioms,
    check_morphism,
    decode_mu,
    encode_mu,
    mu_nilpotency_report,
)
from .twisting import (
    BialgebroidPair,
    check_bialgebroid,
    induced_dual_structure,
    lambda_nilpotency,
    mce1_condition_check,
    relative_mc_report,
    twist_gamma,
)

SCHEMA_VERSION = "1"
EXIT_STDOUT_CLOSED = 141  # the shell's status for a process ended by SIGPIPE


def _emit(args, command, reports, extra=None, input_text=None):
    body = {
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "engine": {"bracket_convention": ENGINE_CONVENTION},
    }
    if input_text is not None:
        body["input_digest"] = digest(input_text)
    if args.check and args.check != "all":
        for rep in reports:
            rep.records = [r for r in rep.records if r.check_id.startswith(args.check)]
    body["reports"] = [rep.to_dict() for rep in reports]
    total = sum(rep.summary()["total"] for rep in reports)
    passed = sum(rep.summary()["passed"] for rep in reports)
    body["summary"] = {"total": total, "passed": passed, "failed": total - passed}
    if extra:
        body.update(extra)
    body["timestamp"] = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    print(render_json(body))
    if not args.quiet:
        print(f"{command}: {passed}/{total} checks passed", file=sys.stderr)
    return 0 if passed == total else 1


def _load(args) -> tuple[StructureFile, str]:
    if not args.file:
        raise StructureFileError("cli", "this command needs --file")
    try:
        with open(args.file, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise StructureFileError("cli", f"cannot read {args.file}: {exc}")
    return parse_structure_file(text), text


def _pair_from_file(sf: StructureFile) -> BialgebroidPair:
    if sf.dual is not None:
        return BialgebroidPair(sf.structure, sf.dual)
    return BialgebroidPair.abelian(sf.structure)


def cmd_check_structure(args):
    sf, text = _load(args)
    s = sf.structure
    direct = check_lie2_axioms(s)
    mu = encode_mu(s)
    nil = mu_nilpotency_report(mu)
    reports = [direct, nil, axioms_vs_nilpotency(direct, nil)]
    rt = CheckReport("roundtrip")
    rt.add_flag("roundtrip.mu", "decode(encode(S)) = S",
                decode_mu(mu, s.chart).equals(s), "tensor mismatch")
    reports.append(rt)
    return _emit(args, "check-structure", reports, input_text=text)


def cmd_check_morphism(args):
    sf, text = _load(args)
    if sf.morphism is None:
        raise StructureFileError("morphism", "file has no morphism block")
    rep = check_morphism(sf.morphism, Lie2Ops(sf.structure), Lie2Ops(sf.morphism_codomain))
    return _emit(args, "check-morphism", [rep], input_text=text)


def cmd_hp_verify(args):
    sf, text = _load(args)
    rep = verify_hp_axioms(sf.structure, count=args.count, seed=args.seed,
                           max_shifted_degree=args.max_degree)
    gen = generator_agreement_report(sf.structure)
    return _emit(args, "hp-verify", [rep, gen], input_text=text)


def cmd_mc_check(args):
    sf, text = _load(args)
    m = sf.mc_element()
    reports = [mc_report(sf.structure, m), mce1_condition_check(sf.structure, m)]
    return _emit(args, "mc-check", reports, input_text=text)


def cmd_mc_solve(args):
    sf, text = _load(args)
    h_pat, k_pat = sf.mc_patterns()
    try:
        sol = solve_linear_mc(sf.structure, h_pat, k_pat)
    except NonlinearError as exc:
        rep = CheckReport("mc-solve")
        rep.add_flag("solve.affine", "flatness residual is affine in the unknowns",
                     False, str(exc))
        return _emit(args, "mc-solve", [rep], input_text=text)
    rep = CheckReport("mc-solve")
    rep.add_flag("solve.consistent", "affine system has solutions", not sol.is_empty,
                 "inconsistent system")
    extra = {"solution": {
        "unknowns": sol.labels,
        "dimension": sol.dimension,
        "particular": None if sol.is_empty else [str(v) for v in sol.particular],
        "basis": [[str(v) for v in b] for b in sol.basis],
    }}
    return _emit(args, "mc-solve", [rep], extra=extra, input_text=text)


def cmd_twist(args):
    sf, text = _load(args)
    m = sf.mc_element()
    dual, rep = induced_dual_structure(sf.structure, m)
    gamma = twist_gamma(sf.structure, m)
    extra = {"gamma": gamma.render(), "dual_structure": dual_block(dual)}
    return _emit(args, "twist", [rep], extra=extra, input_text=text)


def cmd_bialgebroid_check(args):
    sf, text = _load(args)
    pair = _pair_from_file(sf)
    reports = [check_bialgebroid(pair)]
    if sf.mc_h is not None or sf.mc_k is not None:
        m = sf.mc_element()
        reports.append(relative_mc_report(pair, m))
        lam_rep, _ = lambda_nilpotency(pair, m)
        reports.append(lam_rep)
    return _emit(args, "bialgebroid-check", reports, input_text=text)


def cmd_double(args):
    sf, text = _load(args)
    pair = _pair_from_file(sf)
    e, rep = build_double(pair)
    return _emit(args, "double", [rep], extra={"lwx": lwx_block(e)}, input_text=text)


def cmd_lwx_check(args):
    sf, text = _load(args)
    if sf.lwx is not None:
        e = sf.lwx
        reports = []
    else:
        pair = _pair_from_file(sf)
        e, rep0 = build_double(pair)
        reports = [rep0]
    reports.append(check_lwx_axioms(e))
    return _emit(args, "lwx-check", reports, input_text=text)


def cmd_dirac_check(args):
    sf, text = _load(args)
    reports = []
    if sf.lwx is not None:
        e = sf.lwx
    else:
        pair = _pair_from_file(sf)
        e, rep0 = build_double(pair, cross_check=False)
    if args.weak:
        if args.graph:
            pair = _pair_from_file(sf)
            m = sf.mc_element()
            graph, carried, grep = build_graph(pair, m)
            reports.append(grep)
            fdata = graph_morphism_data(e, graph)
            reports.append(check_weak_dirac(e, carried, fdata))
        else:
            if sf.morphism is None or sf.morphism_codomain is not sf.structure:
                raise StructureFileError(
                    "morphism", "weak check needs a morphism block (or --graph)"
                )
            reports.append(check_weak_dirac(e, sf.structure, sf.morphism))
    else:
        if not sf.subbundles:
            raise StructureFileError("subbundles", "strict check needs a subbundles block")
        for name in sorted(sf.subbundles):
            rep, _ = check_strict_dirac(e, sf.subbundles[name])
            rep.title = f"strict-dirac[{name}]"
            rep.records = [
                type(r)(f"{name}:{r.check_id}", r.law, r.passed, r.residual)
                for r in rep.records
            ]
            reports.append(rep)
    return _emit(args, "dirac-check", reports, input_text=text)


def cmd_manin_extract(args):
    sf, text = _load(args)
    if sf.lwx is not None:
        e = sf.lwx
    else:
        pair0 = _pair_from_file(sf)
        e, _ = build_double(pair0, cross_check=False)
    if "A" in sf.subbundles and "B" in sf.subbundles:
        sub_a, sub_b = sf.subbundles["A"], sf.subbundles["B"]
    else:
        sub_a = Subbundle.canonical_half(e.chart)
        sub_b = Subbundle.canonical_dual_half(e.chart)
    pair, rep = extract_bialgebroid(e, sub_a, sub_b)
    e2, rep2 = build_double(pair, cross_check=False)
    rep.add_flag("manin.roundtrip", "double of the extracted pair matches the input",
                 e2.equals(e), "tensors differ")
    extra = {
        "extracted": {
            "structure": structure_block(pair.s),
            "gamma": dual_block(pair.dual),
        }
    }
    return _emit(args, "manin-extract", [rep], extra=extra, input_text=text)


def _example_battery(name: str, seed: int, count: int) -> list:
    ex = builtin_example(name)
    s = ex["structure"]
    direct, nil = check_lie2_axioms(s), mu_nilpotency_report(encode_mu(s))
    reports = [direct, nil, axioms_vs_nilpotency(direct, nil),
               verify_calculus_identities(s, 10, seed),
               verify_hp_axioms(s, count=count, seed=seed), generator_agreement_report(s)]
    mcs = ex.get("mc_family") or ([ex["mc"]] if ex.get("mc") else [])
    for i, m in enumerate(mcs):
        rep = mc_report(s, m)
        rep.title = f"maurer-cartan[{i}]"
        reports.append(rep)
        reports.append(mce1_condition_check(s, m))
        _, drep = induced_dual_structure(s, m)
        drep.title = f"induced-dual[{i}]"
        reports.append(drep)
    if mcs:
        pair = BialgebroidPair.from_twist(s, mcs[0])
        reports.append(check_bialgebroid(pair))
        e, drep = build_double(pair)
        reports.append(drep)
        ax = check_lwx_axioms(e)
        reports.append(ax)
        for nm, sub in (("A", Subbundle.canonical_half(e.chart)),
                        ("B", Subbundle.canonical_dual_half(e.chart))):
            rep, _ = check_strict_dirac(e, sub)
            rep.title = f"strict-dirac[{nm}]"
            reports.append(rep)
        _, rep = extract_bialgebroid(e, Subbundle.canonical_half(e.chart),
                                     Subbundle.canonical_dual_half(e.chart))
        reports.append(rep)
        pair0 = BialgebroidPair.abelian(s)
        e0, _ = build_double(pair0, cross_check=False)
        graph, carried, grep = build_graph(pair0, mcs[0])
        reports.append(grep)
        reports.append(check_weak_dirac(e0, carried, graph_morphism_data(e0, graph)))
    return reports


def cmd_example(args):
    if args.action == "list":
        print(render_json({"examples": example_names()}))
        return 0
    if args.action == "show":
        if not args.name:
            print("example show needs a name", file=sys.stderr)
            return 2
        ex = builtin_example(args.name)
        extra = {}
        if ex.get("mc"):
            extra.update(mc_blocks(ex["mc"]))
        print(render_structure(ex["structure"], extra=extra))
        return 0
    if args.action == "run-all":
        reports = []
        for name in example_names():
            for rep in _example_battery(name, args.seed, max(10, args.count // 5)):
                rep.title = f"{name}:{rep.title}"
                reports.append(rep)
        return _emit(args, "example run-all", reports)
    print(f"unknown example action {args.action!r}", file=sys.stderr)
    return 2


def _add_common(ap, suppress=False):
    # registered on the main parser and, through one parent parser, on every
    # subcommand, so the flags may be given on either side of the command word
    kw = lambda default: {"default": argparse.SUPPRESS} if suppress else {"default": default}
    ap.add_argument("--file", help="input structure file (JSON)", **kw(None))
    ap.add_argument("--check", help="restrict output to checks with this prefix", **kw("all"))
    ap.add_argument("--json", action="store_true", help="JSON output (always on)",
                    **({"default": argparse.SUPPRESS} if suppress else {}))
    ap.add_argument("--quiet", action="store_true", help="suppress the stderr summary",
                    **({"default": argparse.SUPPRESS} if suppress else {}))
    ap.add_argument("--seed", type=int, help="seed for randomized suites", **kw(0))
    ap.add_argument("--max-degree", type=int, help="degree bound for random elements", **kw(6))
    ap.add_argument("--count", type=int, help="random tuples per property suite", **kw(100))


def build_parser():
    ap = argparse.ArgumentParser(
        prog="splitlie2",
        description="Exact checks for split Lie 2-algebroid structures and their doubles.",
    )
    _add_common(ap)
    # on a subcommand the flags keep no default, so they do not overwrite
    # the value given before the command word
    common = argparse.ArgumentParser(add_help=False)
    _add_common(common, suppress=True)
    sub = ap.add_subparsers(dest="command", required=True)
    for name, fn in [
        ("check-structure", cmd_check_structure),
        ("check-morphism", cmd_check_morphism),
        ("hp-verify", cmd_hp_verify),
        ("mc-check", cmd_mc_check),
        ("mc-solve", cmd_mc_solve),
        ("twist", cmd_twist),
        ("bialgebroid-check", cmd_bialgebroid_check),
        ("double", cmd_double),
        ("lwx-check", cmd_lwx_check),
        ("manin-extract", cmd_manin_extract),
    ]:
        sub.add_parser(name, parents=[common]).set_defaults(fn=fn)
    p = sub.add_parser("dirac-check", parents=[common])
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--strict", action="store_true")
    group.add_argument("--weak", action="store_true")
    p.add_argument("--graph", action="store_true",
                   help="build the graph of the file's degree-3 element")
    p.set_defaults(fn=cmd_dirac_check)
    p = sub.add_parser("example", parents=[common])
    p.add_argument("action", choices=["list", "show", "run-all"])
    p.add_argument("name", nargs="?")
    p.set_defaults(fn=cmd_example)
    return ap


@functools.cache
def _parser():
    # parse_args keeps no state between calls, so in-process callers of
    # main share one parser; building it costs ~40 times a parse
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        try:
            code = args.fn(args)
        except ValueError as exc:  # StructureFileError and ChartMismatchError among them
            print(render_json({"error": str(exc), "exit": 2}))
            code = 2
        sys.stdout.flush()  # a closed pipe shows here, not at interpreter exit
    except BrokenPipeError:
        # send what is still buffered to devnull, so the flush at exit is quiet
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_STDOUT_CLOSED
    return code


if __name__ == "__main__":
    sys.exit(main())
