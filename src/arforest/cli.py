"""Batch front door: formulas, constructions, detection and oracle searches.

Every subcommand emits one JSON object on stdout.  Timing and node counters
live under "stats" so reruns are bitwise comparable outside that key.

Exit codes: 0 success / negative detection, 1 positive detection (verify),
2 usage or input error, 3 search budget exhausted.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction
from typing import Optional

from . import formulas
from .constructions import (VERIFY_LIMIT, ConstructionError,
                            InteriorArrangement, build_forest_coloring,
                            build_path_coloring, build_turan_extremal)
from .graphs import (EdgeColoring, GraphFormatError, LinearForest,
                     graph6_encode)
from .oracles import SearchBudget, brute_force_ar, brute_force_ex
from .rainbow import (contains_subgraph, find_rainbow, representing_graphs,
                      sample_representing)

EXIT_OK = 0
EXIT_FOUND = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3


class UsageError(Exception):
    pass


def _emit(obj: dict) -> None:
    json.dump(obj, sys.stdout, sort_keys=True)
    sys.stdout.write("\n")


def _env_int(name: str, fallback: int) -> int:
    raw = os.environ.get(name)
    if raw is None:
        return fallback
    try:
        return int(raw)
    except ValueError:
        raise UsageError(f"env var {name} must be an integer, got {raw!r}")


def _budget_from(args) -> SearchBudget:
    return SearchBudget(
        max_nodes=args.max_nodes
        if args.max_nodes is not None
        else _env_int("ARFOREST_MAX_NODES", 50_000_000),
        max_millis=args.max_millis
        if args.max_millis is not None
        else _env_int("ARFOREST_MAX_MILLIS", 300_000),
        parallelism=args.workers
        if args.workers is not None
        else _env_int("ARFOREST_WORKERS", 1),
    )


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


def _json_value(x):
    if isinstance(x, Fraction):
        return int(x) if x.denominator == 1 else str(x)
    return x


def cmd_formula(args) -> int:
    name = args.name
    inputs: dict = {}
    epsilon: Optional[int] = None
    validity = ""
    if name in ("ar-path", "eg-bound", "ex-kp3"):
        if args.n is None or args.k is None:
            raise UsageError(f"{name} needs --n and --k")
        inputs = {"n": args.n, "k": args.k}
        if name == "ar-path":
            res = formulas.ar_path(args.n, args.k)
            value, epsilon, validity = res.value, res.epsilon, res.validity
        elif name == "eg-bound":
            value = formulas.erdos_gallai_bound(args.n, args.k)
            validity = "all n, k >= 1"
        else:
            res = formulas.ex_k_p3(args.n, args.k)
            value, epsilon, validity = res.value, res.epsilon, res.validity
    elif name == "ar-matching":
        if args.n is None or args.t is None:
            raise UsageError("ar-matching needs --n and --t")
        inputs = {"n": args.n, "t": args.t}
        res = formulas.ar_matching(args.n, args.t)
        value, epsilon, validity = res.value, res.epsilon, res.validity
    elif name in ("ar-main", "ex-forest"):
        if args.n is None or args.forest is None:
            raise UsageError(f"{name} needs --n and --forest")
        forest = _parse_forest(args.forest)
        inputs = {"n": args.n, "forest": forest.spec_string()}
        fn = (formulas.ar_linear_forest if name == "ar-main"
              else formulas.ex_linear_forest)
        res = fn(args.n, forest)
        value, epsilon, validity = res.value, res.epsilon, res.validity
    elif name == "ar-asymptotic":
        if args.forest is None:
            raise UsageError("ar-asymptotic needs --forest")
        forest = _parse_forest(args.forest)
        inputs = {"forest": forest.spec_string()}
        value = formulas.ar_asymptotic_coefficient(forest)
        validity = "coefficient of n, k >= 2"
    else:
        raise UsageError(f"unknown formula {name!r}")
    _emit({"name": name, "inputs": inputs, "value": _json_value(value),
           "epsilon": epsilon, "validity": validity})
    return EXIT_OK


def cmd_construct(args) -> int:
    n = args.n
    sidecar: dict = {"family": args.family, "n": n, "forest": None,
                     "colors": None, "verified": False}
    if args.family in ("turan", "forest") and args.forest is None:
        raise UsageError(f"{args.family} family needs --forest")
    if args.family == "turan":
        forest = _parse_forest(args.forest)
        g = build_turan_extremal(n, forest)
        verified = n <= VERIFY_LIMIT
        if verified:
            copy = contains_subgraph(g, forest)
            if copy is not None:
                raise ConstructionError(
                    f"Turan graph contains {forest} at n={n}", copy)
        payload = graph6_encode(g) + "\n"
        sidecar.update(forest=forest.spec_string(), edges=g.edge_count,
                       verified=verified)
    elif args.family == "path":
        if args.k is None:
            raise UsageError("path family needs --k")
        coloring = build_path_coloring(n, args.k)
        payload = coloring.to_text()
        sidecar.update(forest=str(args.k), colors=coloring.m,
                       verified=n <= VERIFY_LIMIT)
    elif args.family == "forest":
        forest = _parse_forest(args.forest)
        arrangement = (InteriorArrangement.SINGLE_EDGE_SECOND_COLOR
                       if args.arrangement == "single-edge"
                       else InteriorArrangement.MONOCHROMATIC_INTERIOR)
        coloring = build_forest_coloring(n, forest, arrangement)
        payload = coloring.to_text()
        sidecar.update(forest=forest.spec_string(), colors=coloring.m,
                       verified=n <= VERIFY_LIMIT)
    else:
        raise UsageError(f"unknown family {args.family!r}")
    if args.out:
        _write_text(args.out, payload)
        _write_text(args.out + ".json",
                    json.dumps(sidecar, sort_keys=True) + "\n")
    _emit(sidecar)
    return EXIT_OK


def cmd_verify(args) -> int:
    coloring = _load_coloring(args.coloring)
    forest = _parse_forest(args.forest)
    witness = find_rainbow(coloring, forest)
    if witness is None:
        _emit({"rainbow": False, "forest": forest.spec_string(),
               "n": coloring.n, "colors": coloring.m})
        return EXIT_OK
    _emit({"rainbow": True, "forest": forest.spec_string(),
           "n": coloring.n, "colors": coloring.m,
           "witness": witness.to_json_dict()})
    return EXIT_FOUND


def cmd_search(args, kind: str) -> int:
    forest = _parse_forest(args.forest)
    budget = _budget_from(args)
    if kind == "ar":
        report = brute_force_ar(args.n, forest, budget)
    else:
        report = brute_force_ex(args.n, forest, budget)
    out = report.to_json_dict()
    out["n"] = args.n
    out["forest"] = forest.spec_string()
    if args.witness_out and report.witness is not None:
        _write_text(args.witness_out,
                    report.witness.to_text()
                    if isinstance(report.witness, EdgeColoring)
                    else graph6_encode(report.witness) + "\n")
        out["witness_file"] = args.witness_out
    _emit(out)
    return EXIT_OK if report.exhausted else EXIT_BUDGET


def cmd_representing(args) -> int:
    coloring = _load_coloring(args.coloring)
    if args.sample_seed is not None:
        rep = sample_representing(coloring, args.sample_seed)
        _emit({"n": coloring.n, "colors": coloring.m,
               "graphs": [graph6_encode(rep.graph)],
               "total_count": str(
                   representing_graphs(coloring, 1).total_count),
               "truncated": False})
        return EXIT_OK
    enum = representing_graphs(coloring, args.cap)
    graphs = [graph6_encode(rep.graph) for rep in enum]
    _emit({"n": coloring.n, "colors": coloring.m, "graphs": graphs,
           "total_count": str(enum.total_count), "truncated": enum.truncated})
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="arforest",
        description="Anti-Ramsey and Turan toolkit for linear forests")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("formula", help="evaluate a closed-form value")
    p.add_argument("--name", required=True,
                   choices=["ar-path", "ar-matching", "ar-main",
                            "ar-asymptotic", "eg-bound", "ex-kp3",
                            "ex-forest"])
    p.add_argument("--n", type=int)
    p.add_argument("--k", type=int)
    p.add_argument("--t", type=int)
    p.add_argument("--forest")

    p = sub.add_parser("construct", help="emit an extremal graph or coloring")
    p.add_argument("--family", required=True,
                   choices=["turan", "path", "forest"])
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--forest")
    p.add_argument("--k", type=int)
    p.add_argument("--arrangement", default="single-edge",
                   choices=["single-edge", "mono-interior"])
    p.add_argument("--out")

    p = sub.add_parser("verify", help="test a coloring for a rainbow forest")
    p.add_argument("--coloring", required=True)
    p.add_argument("--forest", required=True)

    for kind in ("search-ar", "search-ex"):
        p = sub.add_parser(kind, help=f"exact {kind[-2:]} search at small n")
        p.add_argument("--n", type=int, required=True)
        p.add_argument("--forest", required=True)
        p.add_argument("--max-nodes", type=int)
        p.add_argument("--max-millis", type=int)
        p.add_argument("--workers", type=int)
        p.add_argument("--witness-out")

    p = sub.add_parser("representing",
                       help="enumerate or sample representing graphs")
    p.add_argument("--coloring", required=True)
    p.add_argument("--cap", type=int, default=100)
    p.add_argument("--sample-seed", type=int)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        if args.command == "formula":
            return cmd_formula(args)
        if args.command == "construct":
            return cmd_construct(args)
        if args.command == "verify":
            return cmd_verify(args)
        if args.command == "search-ar":
            return cmd_search(args, "ar")
        if args.command == "search-ex":
            return cmd_search(args, "ex")
        if args.command == "representing":
            return cmd_representing(args)
        raise UsageError(f"unknown command {args.command!r}")
    except (UsageError, ValueError, ConstructionError) as exc:
        _emit({"error": {"type": type(exc).__name__, "message": str(exc)}})
        return EXIT_USAGE


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
