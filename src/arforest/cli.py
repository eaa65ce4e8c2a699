"""Batch front door: formulas, constructions, detection and oracle searches.

Every subcommand emits one JSON object on stdout.  Timing and node counters
live under "stats" so reruns are bitwise comparable outside that key.

Exit codes: 0 success / negative detection, 1 positive detection (verify),
2 usage or input error, 3 search budget exhausted.
"""
from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from typing import Optional

from . import formulas
from .constructions import (ConstructionError, InteriorArrangement,
                            build_forest_coloring, build_path_coloring,
                            build_turan_extremal, check_free)
from .graphs import (EdgeColoring, GraphFormatError, LinearForest,
                     graph6_encode)
from .oracles import SearchBudget, brute_force_ar, brute_force_ex
from .rainbow import find_rainbow, representing_graphs, sample_representing

EXIT_OK = 0
EXIT_FOUND = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3


class UsageError(Exception):
    pass


def _emit(obj: dict) -> None:
    json.dump(obj, sys.stdout, sort_keys=True)
    sys.stdout.write("\n")


def _parse_forest(spec: str) -> LinearForest:
    try:
        return LinearForest.parse(spec)
    except ValueError as exc:
        raise UsageError(str(exc))


def _load_coloring(path: str) -> EdgeColoring:
    try:
        with open(path, "r", encoding="ascii") as fh:
            return EdgeColoring.from_text(fh.read())
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc}")
    except GraphFormatError as exc:
        raise UsageError(f"bad coloring file {path}: {exc}")


def _write_text(path: str, text: str) -> None:
    try:
        with open(path, "w", encoding="ascii") as fh:
            fh.write(text)
    except OSError as exc:
        raise UsageError(f"cannot write {path}: {exc}")


def _text(obj) -> str:
    """A coloring's text form, or one graph6 line for a graph."""
    return (obj.to_text() if isinstance(obj, EdgeColoring)
            else graph6_encode(obj) + "\n")


def _reject(args, what: str, flags) -> None:
    """Raise a UsageError naming the first of the flags that was given."""
    for flag in flags:
        if getattr(args, flag) is not None:
            raise UsageError(f"{what} takes no --{flag}")


def _json_value(x):
    if isinstance(x, Fraction):
        return int(x) if x.denominator == 1 else str(x)
    return x


# each formula's flags, in the order its usage error names them, and the
# call it makes on their values; the two bounds without a FormulaResult get
# the validity the CLI states for them
FORMULAS = {
    "ar-path": (("n", "k"), formulas.ar_path),
    "ar-matching": (("n", "t"), formulas.ar_matching),
    "ar-main": (("n", "forest"), formulas.ar_linear_forest),
    "ar-asymptotic": (("forest",), lambda forest: formulas.FormulaResult(
        formulas.ar_asymptotic_coefficient(forest), None,
        "coefficient of n, k >= 2")),
    "eg-bound": (("n", "k"), lambda n, k: formulas.FormulaResult(
        formulas.erdos_gallai_bound(n, k), None, "all n, k >= 2")),
    "ex-kp3": (("n", "k"), formulas.ex_k_p3),
    "ex-forest": (("n", "forest"), formulas.ex_linear_forest),
}


def cmd_formula(args) -> int:
    flags, call = FORMULAS[args.name]
    given = [getattr(args, flag) for flag in flags]
    if None in given:
        raise UsageError(f"{args.name} needs "
                         + " and ".join(f"--{flag}" for flag in flags))
    _reject(args, args.name,
            [flag for flag in ("n", "k", "t", "forest") if flag not in flags])
    values = [_parse_forest(v) if flag == "forest" else v
              for flag, v in zip(flags, given)]
    res = call(*values)
    inputs = {flag: v.spec_string() if flag == "forest" else v
              for flag, v in zip(flags, values)}
    _emit({"name": args.name, "inputs": inputs,
           "value": _json_value(res.value), "epsilon": res.epsilon,
           "validity": res.validity})
    return EXIT_OK


def cmd_construct(args) -> int:
    family, n = args.family, args.n
    needs = "k" if family == "path" else "forest"
    if getattr(args, needs) is None:
        raise UsageError(f"{family} family needs --{needs}")
    _reject(args, f"{family} family", {
        "turan": ("k", "arrangement"), "path": ("forest", "arrangement"),
        "forest": ("k",)}[family])
    if family == "turan":
        forest = _parse_forest(args.forest)
        built = build_turan_extremal(n, forest)
        size = {"colors": None, "edges": built.edge_count}
    elif family == "path":
        built = build_path_coloring(n, args.k, verify=False)
        forest = LinearForest((args.k,))
        size = {"colors": built.m}
    else:
        forest = _parse_forest(args.forest)
        arrangement = (args.arrangement
                       or InteriorArrangement.SINGLE_EDGE_SECOND_COLOR.value)
        built = build_forest_coloring(n, forest, arrangement, verify=False)
        size = {"colors": built.m, "arrangement": arrangement}
    sidecar = {"family": family, "n": n, "forest": forest.spec_string(),
               "verified": check_free(built, forest), **size}
    if args.out:
        _write_text(args.out, _text(built))
        _write_text(args.out + ".json",
                    json.dumps(sidecar, sort_keys=True) + "\n")
    _emit(sidecar)
    return EXIT_OK


def cmd_verify(args) -> int:
    coloring = _load_coloring(args.coloring)
    forest = _parse_forest(args.forest)
    witness = find_rainbow(coloring, forest)
    out = {"rainbow": witness is not None, "forest": forest.spec_string(),
           "n": coloring.n, "colors": coloring.m}
    if witness is not None:
        out["witness"] = witness.to_json_dict()
    _emit(out)
    return EXIT_OK if witness is None else EXIT_FOUND


def cmd_search(args) -> int:
    forest = _parse_forest(args.forest)
    report = args.oracle(args.n, forest, SearchBudget(
        args.max_nodes, args.max_millis, args.workers))
    out = report.to_json_dict()
    out["n"] = args.n
    out["forest"] = forest.spec_string()
    if args.witness_out and report.witness is not None:
        _write_text(args.witness_out, _text(report.witness))
        out["witness_file"] = args.witness_out
    _emit(out)
    return EXIT_OK if report.exhausted else EXIT_BUDGET


def cmd_representing(args) -> int:
    coloring = _load_coloring(args.coloring)
    sampled = args.sample_seed is not None
    _reject(args, "a sample", ["cap"] if sampled else [])
    enum = representing_graphs(
        coloring, 1 if sampled else 100 if args.cap is None else args.cap)
    reps = ([sample_representing(coloring, args.sample_seed)] if sampled
            else list(enum))
    _emit({"n": coloring.n, "colors": coloring.m,
           "graphs": [graph6_encode(rep.graph) for rep in reps],
           "total_count": str(enum.total_count),
           "truncated": len(reps) < enum.total_count})
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="arforest",
        description="Anti-Ramsey and Turan toolkit for linear forests")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("formula", help="evaluate a closed-form value")
    p.set_defaults(run=cmd_formula)
    p.add_argument("--name", required=True, choices=list(FORMULAS))
    p.add_argument("--n", type=int)
    p.add_argument("--k", type=int)
    p.add_argument("--t", type=int)
    p.add_argument("--forest")

    p = sub.add_parser("construct", help="emit an extremal graph or coloring")
    p.set_defaults(run=cmd_construct)
    p.add_argument("--family", required=True,
                   choices=["turan", "path", "forest"])
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--forest")
    p.add_argument("--k", type=int)
    p.add_argument("--arrangement",
                   choices=[a.value for a in InteriorArrangement])
    p.add_argument("--out")

    p = sub.add_parser("verify", help="test a coloring for a rainbow forest")
    p.set_defaults(run=cmd_verify)
    p.add_argument("--coloring", required=True)
    p.add_argument("--forest", required=True)

    for kind, oracle in (("search-ar", brute_force_ar),
                         ("search-ex", brute_force_ex)):
        p = sub.add_parser(kind, help=f"exact {kind[-2:]} search at small n")
        p.set_defaults(run=cmd_search, oracle=oracle)
        p.add_argument("--n", type=int, required=True)
        p.add_argument("--forest", required=True)
        p.add_argument("--max-nodes", type=int, default=SearchBudget.max_nodes)
        p.add_argument("--max-millis", type=int, default=SearchBudget.max_millis)
        p.add_argument("--workers", type=int, default=SearchBudget.parallelism)
        p.add_argument("--witness-out")

    p = sub.add_parser("representing",
                       help="enumerate or sample representing graphs")
    p.set_defaults(run=cmd_representing)
    p.add_argument("--coloring", required=True)
    p.add_argument("--cap", type=int)
    p.add_argument("--sample-seed", type=int)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        return args.run(args)
    except (UsageError, ValueError, ConstructionError) as exc:
        _emit({"error": {"type": type(exc).__name__, "message": str(exc)}})
        return EXIT_USAGE


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
