"""The four benchmark workloads: their instances, pinned answers and checks.

Each setup function takes a Setup context (the freshly imported package, the
seeded generator, the tracer and a scratch directory) and returns a Workload.
Every instance checks its own answer and reports a failed Outcome instead of
raising, so one wrong answer never stops a run.
"""
from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

from checks import (check_in_graph, check_rainbow, common_neighbors,
                    edge_index, random_assignment)
from harness import Instance, Outcome, Tracer

# Sources of the pinned answers.
FAUDREE_SCHELP = "Faudree-Schelp closed form for ex(n, P_k)"
NAIVE = "tests/reference.py naive search (n <= 5)"
TEST_PINNED = "pinned in tests/test_oracles.py or tests/test_acceptance.py"
FORMULA_TEST = "formulas.ar_linear_forest, pinned by tests/test_oracles.py"
SEED_VALUE = "value at the first benchmarked commit, witness re-verified"

# (n, forest, pinned value, source).  Single paths and two-part forests,
# n = 7..9; each exhausts in about 0.3-1.5 s at the first benchmarked commit.
EX_SWEEP = [
    (7, "5", 9, FAUDREE_SCHELP),
    (7, "7", 15, FAUDREE_SCHELP),
    (7, "4,2", 11, TEST_PINNED),
    (8, "3,2", 7, SEED_VALUE),
    (9, "3,2", 8, SEED_VALUE),
    (9, "2,2", 8, SEED_VALUE),
]

# n = 4..6, including every acceptance criterion 3 cell.
AR_SWEEP = [
    (4, "3", 1, NAIVE),
    (4, "4", 3, NAIVE),
    (5, "2,2", 1, NAIVE),
    (5, "3,2", 2, NAIVE),
    (5, "4", 2, NAIVE),
    (5, "5", 5, NAIVE),
    (6, "2,2", 1, FORMULA_TEST),
    (6, "3,2", 2, TEST_PINNED),
    (6, "4", 2, SEED_VALUE),
    (6, "5", 6, SEED_VALUE),
]

# Hub colorings proven rainbow-free by a full search: (forest, host orders).
HUB_FOREST_COLORINGS = [
    ("3,2", (7, 11, 15)),
    ("4,2", (9, 12, 15)),
    ("4,3", (10, 13)),
    ("5,2", (10, 12, 15)),
    ("3,3,2", (11, 14)),
    ("2,2,2", (9, 12, 15)),
]
HUB_PATH_COLORINGS = [(5, (8, 12, 15)), (6, (9, 15)), (7, (9, 12)), (8, (10,))]
# Turan extremal graphs proven forest-free: (forest, host orders).
TURAN_GRAPHS = [
    ("4,2", (10, 20)), ("5,4", (13,)), ("4,3", (15,)), ("5,2", (15,)),
    ("6,2", (12,)), ("4,4", (14,)), ("3,3,2", (14,)), ("5,5", (12,)),
]
RANDOM_COLORINGS = 2000          # detected at n = 6..12
RANDOM_FORESTS = ("2,2", "3,2", "4", "4,2", "3,3", "5", "2,2,2", "6", "5,2")
REP_EQUIV_COLORINGS = 200        # n = 4..6, as acceptance criterion 5
REP_EQUIV_FORESTS = ("2,2", "3,2", "4")
REP_CAP = 100_000
RECOMBINATIONS = 100             # acceptance criterion 6 at n = 12

ORACLE_BUDGET_MILLIS = 60_000
CLI_TIMEOUT_S = 150


@dataclass
class Setup:
    api: object            # the arforest package
    rng: object            # random.Random seeded from --seed
    tracer: Tracer
    workdir: Path
    root: Path


@dataclass
class Workload:
    instances: list[Instance]
    # Run once after a traced run's passes; returns extra per-layer values.
    traced_extra: Optional[Callable[[Tracer], dict]] = None


def _problems(out: Outcome, problems: list[str]) -> Outcome:
    out.ok = not problems
    out.detail = "; ".join(problems)
    return out


def _oracle_note(rep) -> dict:
    return {"nodes": rep.nodes_visited,
            "pruned_by_rainbow": rep.pruned_by_rainbow,
            "pruned_by_bound": rep.pruned_by_bound,
            "elapsed_s": rep.elapsed_seconds}


def _found(result) -> dict:
    return {"found": result is not None}


def _text_roundtrip(api, t: Tracer, coloring) -> Optional[str]:
    text = t.call("graphs.coloring_to_text", coloring.to_text,
                  note=lambda r: {"bytes": len(r)})
    back = t.call("graphs.coloring_from_text", api.EdgeColoring.from_text,
                  text, note=lambda r: {"bytes": len(text)})
    return None if back == coloring else "coloring text round trip differs"


def _graph6_roundtrip(api, t: Tracer, g) -> Optional[str]:
    text = t.call("graphs.graph6_encode", api.graph6_encode, g)
    back = t.call("graphs.graph6_decode", api.graph6_decode, text)
    return None if back == g else "graph6 round trip differs"


# --- ex-sweep and ar-sweep --------------------------------------------------

def _oracle_instance(api, kind: str, n: int, spec: str,
                     expected: int) -> Instance:
    forest = api.LinearForest.parse(spec)
    budget = api.SearchBudget(max_millis=ORACLE_BUDGET_MILLIS)
    search = api.brute_force_ex if kind == "ex" else api.brute_force_ar

    def run(t: Tracer) -> Outcome:
        rep = t.call(f"oracles.brute_force_{kind}", search, n, forest, budget,
                     note=_oracle_note)
        out = Outcome(False, value=rep.value, expected=expected,
                      exhausted=rep.exhausted)
        problems = []
        if not rep.exhausted:
            problems.append("search did not exhaust")
        if rep.value != expected:
            problems.append(f"value {rep.value} != pinned {expected}")
        if rep.witness is None:
            problems.append("no witness")
            return _problems(out, problems)
        if not t.call("oracles.verify_witness", api.verify_witness, rep,
                      forest):
            problems.append("witness fails verify_witness")
        # the witness as the CLI's --witness-out writes and reads it
        if kind == "ex":
            bad = _graph6_roundtrip(api, t, rep.witness)
        else:
            bad = _text_roundtrip(api, t, rep.witness)
        if bad:
            problems.append(bad)
        return _problems(out, problems)

    return Instance(f"{kind}({n},{spec})", run)


def setup_oracle_sweep(s: Setup, kind: str, table=None) -> Workload:
    if table is None:
        table = EX_SWEEP if kind == "ex" else AR_SWEEP
    return Workload([_oracle_instance(s.api, kind, n, spec, expected)
                     for n, spec, expected, _source in table])


# --- detect-corpus ----------------------------------------------------------

def _hub_instance(api, name: str, coloring, forest) -> Instance:
    def run(t: Tracer) -> Outcome:
        emb = t.call("rainbow.find_rainbow", api.find_rainbow, coloring,
                     forest, note=_found)
        problems = []
        if emb is not None:
            problems.append(f"rainbow copy {emb.paths} in a hub coloring")
        bad = _text_roundtrip(api, t, coloring)
        if bad:
            problems.append(bad)
        return _problems(Outcome(False), problems)

    return Instance(name, run)


def _turan_instance(api, name: str, g, forest, edges: int) -> Instance:
    def run(t: Tracer) -> Outcome:
        emb = t.call("rainbow.contains_subgraph", api.contains_subgraph, g,
                     forest, note=_found)
        problems = []
        if emb is not None:
            problems.append(f"copy {emb.paths} in a Turan graph")
        if g.edge_count != edges:
            problems.append(f"{g.edge_count} edges, formula says {edges}")
        bad = _graph6_roundtrip(api, t, g)
        if bad:
            problems.append(bad)
        return _problems(Outcome(False), problems)

    return Instance(name, run)


def _reps_contain(api, t: Tracer, coloring, forest):
    """Walk the representing graphs until one contains the forest.

    Returns (containing embedding or None, its graph, truncated).
    """
    def walk():
        enum = api.representing_graphs(coloring, REP_CAP)
        count = 0
        for rep in enum:
            count += 1
            emb = api.contains_subgraph(rep.graph, forest)
            if emb is not None:
                return emb, rep.graph, False, count
        return None, None, enum.truncated, count

    emb, graph, truncated, _ = t.call(
        "rainbow.representing_graphs", walk,
        note=lambda r: {"count": r[3]})
    return emb, graph, truncated


def _random_instance(api, name: str, n: int, assign: list[int], coloring,
                     forest, full_equivalence: bool) -> Instance:
    """Detect in a seeded random coloring and check the answer.

    Positives are re-checked edge by edge.  Negatives are cross-checked
    against representing-graph containment; with full_equivalence the
    containment walk also runs for positives (acceptance criterion 5).
    """
    parts = forest.parts
    trivial_negative = (forest.num_vertices > n
                        or coloring.m < forest.num_edges)

    def run(t: Tracer) -> Outcome:
        emb = t.call("rainbow.find_rainbow", api.find_rainbow, coloring,
                     forest, note=_found)
        problems = []
        if emb is not None:
            bad = check_rainbow(n, assign, parts, emb.paths)
            if bad:
                problems.append(f"bad rainbow embedding: {bad}")
        if full_equivalence or (emb is None and not trivial_negative):
            rep_emb, graph, truncated = _reps_contain(api, t, coloring,
                                                      forest)
            if truncated:
                problems.append(f"more than {REP_CAP} representing graphs")
            elif (rep_emb is None) != (emb is None):
                problems.append("detector and representing graphs disagree")
            if rep_emb is not None:
                bad = check_in_graph(n, graph.adj, parts, rep_emb.paths)
                if bad:
                    problems.append(f"bad embedding: {bad}")
        if not full_equivalence:
            bad = _text_roundtrip(api, t, coloring)
            if bad:
                problems.append(bad)
        return _problems(Outcome(False), problems)

    return Instance(name, run)


def _recombine_instance(api, name: str, assign, coloring, rep1, rep2,
                        set_u, set_w, s: int) -> Instance:
    def run(t: Tracer) -> Outcome:
        merged = t.call("rainbow.recombine_representing",
                        api.recombine_representing, coloring, set_u, set_w,
                        s, rep1, rep2)
        problems = []
        n = coloring.n
        for cid, (u, v) in enumerate(merged.chosen):
            if assign[edge_index(n, u, v)] != cid:
                problems.append(f"edge ({u},{v}) does not carry color {cid}")
                break
        adj = merged.graph.adj
        if common_neighbors(adj, set_u) < s or common_neighbors(adj, set_w) < s:
            problems.append("recombined graph misses s common neighbors")
        return _problems(Outcome(False), problems)

    return Instance(name, run)


def setup_detect_corpus(s: Setup) -> Workload:
    api, rng, t = s.api, s.rng, s.tracer
    LF = api.LinearForest.parse
    instances: list[Instance] = []
    for spec, orders in HUB_FOREST_COLORINGS:
        forest = LF(spec)
        for n in orders:
            c = t.call("constructions.build_forest_coloring",
                       api.build_forest_coloring, n, forest, verify=False)
            instances.append(_hub_instance(api, f"hub({n},{spec})", c, forest))
    for k, orders in HUB_PATH_COLORINGS:
        forest = LF(str(k))
        for n in orders:
            c = t.call("constructions.build_path_coloring",
                       api.build_path_coloring, n, k, verify=False)
            instances.append(_hub_instance(api, f"hub({n},{k})", c, forest))
    for spec, orders in TURAN_GRAPHS:
        forest = LF(spec)
        for n in orders:
            g = t.call("constructions.build_turan_extremal",
                       api.build_turan_extremal, n, forest)
            edges = api.ex_linear_forest(n, forest).value
            instances.append(_turan_instance(api, f"turan({n},{spec})", g,
                                             forest, edges))

    def colored(n: int):
        assign = random_assignment(rng, n)
        return assign, t.call("graphs.coloring_from_assignment",
                              api.EdgeColoring.from_assignment, n, assign)

    for i in range(RANDOM_COLORINGS):
        n = rng.randint(6, 12)
        assign, c = colored(n)
        forest = LF(RANDOM_FORESTS[i % len(RANDOM_FORESTS)])
        instances.append(_random_instance(api, f"random{i}", n, assign, c,
                                          forest, False))
    for i in range(REP_EQUIV_COLORINGS):
        n = rng.randint(4, 6)
        assign, c = colored(n)
        forest = LF(REP_EQUIV_FORESTS[i % len(REP_EQUIV_FORESTS)])
        instances.append(_random_instance(api, f"equiv{i}", n, assign, c,
                                          forest, True))
    # acceptance criterion 6: U = {0, 1}, W = {5}, s = 3 at n = 12, drawing
    # colorings until both representing graphs meet the preconditions
    set_u, set_w, s_common = {0, 1}, {5}, 3
    made = 0
    while made < RECOMBINATIONS:
        assign, c = colored(12)
        rep1 = api.sample_representing(c, rng.randrange(1 << 30))
        rep2 = api.sample_representing(c, rng.randrange(1 << 30))
        if (common_neighbors(rep1.graph.adj, set_u) < s_common
                or common_neighbors(rep2.graph.adj, set_w) < 3 * s_common):
            continue
        instances.append(_recombine_instance(
            api, f"recombine{made}", assign, c, rep1, rep2, set_u, set_w,
            s_common))
        made += 1
    return Workload(instances)


# --- cli-parallel -------------------------------------------------------------

CLI_SEARCHES = [  # (subcommand, n, forest, pinned value, witness file)
    ("search-ex", 7, "4,2", 11, "ex.g6"),
    ("search-ar", 6, "5", 6, "ar.txt"),
]
CLI_WORKERS = 2
CONSTRUCT = (12, "4,2")        # construct -> verify round trip
VERIFY_POSITIVE = "3,2"        # found in the constructed coloring: exit 1
FORMULA = ("ar-path", 20, 5)   # trivial call timed as start-up


def _cli(s: Setup, t: Tracer, name: str, args: list[str]):
    """Run the CLI once; returns (exit code, parsed stdout or None, wall s)."""
    env = dict(os.environ)
    src = str(s.root / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")

    def run():
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-m", "arforest.cli", *args],
                              cwd=s.root, env=env, capture_output=True,
                              text=True, timeout=CLI_TIMEOUT_S)
        wall = time.perf_counter() - t0
        try:
            parsed = json.loads(proc.stdout)
        except ValueError:
            parsed = None
        return proc.returncode, parsed, wall

    def note(r):
        code, parsed, wall = r
        stats = (parsed or {}).get("stats") or {}
        return {"exit": code, "wall_s": wall,
                "elapsed_ms": stats.get("elapsed_ms"),
                "nodes": stats.get("nodes"),
                "pruned_by_rainbow": stats.get("pruned_by_rainbow"),
                "pruned_by_bound": stats.get("pruned_by_bound")}

    return t.call(f"cli.{name}", run, note=note)


def _cli_search_instance(s: Setup, cmd: str, n: int, spec: str,
                         expected: int, witness_name: str,
                         workers: int) -> Instance:
    api = s.api
    forest = api.LinearForest.parse(spec)
    path = s.workdir / witness_name

    def run(t: Tracer) -> Outcome:
        if path.exists():
            path.unlink()
        code, out, _ = _cli(s, t, cmd, [
            cmd, "--n", str(n), "--forest", spec, "--workers", str(workers),
            "--witness-out", str(path)])
        res = Outcome(False, exit_code=code, expected=expected)
        problems = []
        if code != 0:
            problems.append(f"exit code {code}")
        if out is None:
            problems.append("stdout is not JSON")
            return _problems(res, problems)
        res.value, res.exhausted = out.get("value"), out.get("exhausted")
        if res.exhausted is not True:
            problems.append("search did not exhaust")
        if res.value != expected:
            problems.append(f"value {res.value} != pinned {expected}")
        text = path.read_text(encoding="ascii")
        if cmd == "search-ex":
            witness = t.call("graphs.graph6_decode", api.graph6_decode, text)
        else:
            witness = t.call("graphs.coloring_from_text",
                             api.EdgeColoring.from_text, text,
                             note=lambda r: {"bytes": len(text)})
        report = api.SearchReport(expected, witness, True)
        if not t.call("oracles.verify_witness", api.verify_witness, report,
                      forest):
            problems.append("witness file fails verify_witness")
        return _problems(res, problems)

    return Instance(f"cli-{cmd}({n},{spec},w{workers})", run)


def setup_cli_parallel(s: Setup) -> Workload:
    api, t = s.api, s.tracer
    s.workdir.mkdir(parents=True, exist_ok=True)
    n, spec = CONSTRUCT
    forest = api.LinearForest.parse(spec)
    built = t.call("constructions.build_forest_coloring",
                   api.build_forest_coloring, n, forest, verify=False)
    expected_text = t.call("graphs.coloring_to_text", built.to_text,
                           note=lambda r: {"bytes": len(r)})
    expected_colors = api.ar_linear_forest(n, forest).value
    assign = [built.color_of[e] for e in api.lex_edges(n)]
    # the input file of the positive verify, written as a user would
    given = s.workdir / "given.txt"
    given.write_text(expected_text, encoding="ascii")
    constructed = s.workdir / "constructed.txt"
    f_name, f_n, f_k = FORMULA
    f_expected = api.ar_path(f_n, f_k).value
    pos_forest = api.LinearForest.parse(VERIFY_POSITIVE)

    def construct_verify(t: Tracer) -> Outcome:
        for p in (constructed, Path(str(constructed) + ".json")):
            if p.exists():
                p.unlink()
        problems = []
        code, out, _ = _cli(s, t, "construct", [
            "construct", "--family", "forest", "--n", str(n), "--forest",
            spec, "--out", str(constructed)])
        if code != 0 or out is None:
            return _problems(Outcome(False, exit_code=code),
                             [f"construct exit code {code}"])
        if out.get("colors") != expected_colors:
            problems.append(f"{out.get('colors')} colors, formula says "
                            f"{expected_colors}")
        text = constructed.read_text(encoding="ascii")
        if text != expected_text:
            problems.append("constructed file differs from the construction")
        parsed = t.call("graphs.coloring_from_text",
                        api.EdgeColoring.from_text, text,
                        note=lambda r: {"bytes": len(text)})
        if parsed != built:
            problems.append("constructed file parses to another coloring")
        code, out, _ = _cli(s, t, "verify", [
            "verify", "--coloring", str(constructed), "--forest", spec])
        if code != 0 or out is None or out.get("rainbow") is not False:
            problems.append(f"verify of the construction: exit {code}")
        return _problems(Outcome(False, exit_code=code), problems)

    def verify_positive(t: Tracer) -> Outcome:
        code, out, _ = _cli(s, t, "verify", [
            "verify", "--coloring", str(given), "--forest", VERIFY_POSITIVE])
        problems = []
        if code != 1 or out is None or out.get("rainbow") is not True:
            problems.append(f"expected a rainbow copy and exit 1, got {code}")
        else:
            paths = out["witness"]["paths"]
            bad = check_rainbow(n, assign, pos_forest.parts, paths)
            if bad:
                problems.append(f"bad witness: {bad}")
        return _problems(Outcome(False, exit_code=code), problems)

    def formula(t: Tracer) -> Outcome:
        code, out, _ = _cli(s, t, "formula", [
            "formula", "--name", f_name, "--n", str(f_n), "--k", str(f_k)])
        value = (out or {}).get("value")
        problems = []
        if code != 0 or value != f_expected:
            problems.append(f"exit {code}, value {value} != {f_expected}")
        return _problems(Outcome(False, value=value, expected=f_expected,
                                 exit_code=code), problems)

    instances = [_cli_search_instance(s, cmd, cn, cspec, value, wname,
                                      CLI_WORKERS)
                 for cmd, cn, cspec, value, wname in CLI_SEARCHES]
    instances += [Instance("cli-construct-verify", construct_verify),
                  Instance("cli-verify-positive", verify_positive),
                  Instance("cli-formula", formula)]

    def sequential_reference(t: Tracer) -> dict:
        """Each search once at --workers 1, for the parallel ratios."""
        seq = {}
        for cmd, cn, cspec, value, wname in CLI_SEARCHES:
            inst = _cli_search_instance(s, cmd, cn, cspec, value,
                                        "seq-" + wname, 1)
            t.instance = inst.id
            out = inst.run(t)
            span = [r for r in t.spans if r["name"] == f"cli.{cmd}"][-1]
            seq[cmd] = {"ok": out.ok, "nodes": span["attrs"]["nodes"],
                        "elapsed_ms": span["attrs"]["elapsed_ms"]}
        return seq

    return Workload(instances, traced_extra=sequential_reference)


SETUPS = {
    "ex-sweep": lambda s: setup_oracle_sweep(s, "ex"),
    "ar-sweep": lambda s: setup_oracle_sweep(s, "ar"),
    "detect-corpus": setup_detect_corpus,
    "cli-parallel": setup_cli_parallel,
}
