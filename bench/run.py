"""arforest benchmark: exact-search sweeps, a detector corpus and a parallel CLI run.

    python3 bench/run.py --workload ex-sweep --seed 1 --seconds 30 --trace 0

Builds the workload's inputs from --seed (set up several times; the median is
setup_s), then repeats passes over its instances for --seconds, checking
every answer.  With --trace 0 it prints the end-to-end metrics, with
--trace 1 the per-layer metrics of a traced run.  The last stdout line is
one JSON object: {"correct", "attempted", "failed", "metrics"}.  Per-instance
records and spans go to .bench_out/ at the repository root.
--workload all runs every workload, each in its own process.
"""
from __future__ import annotations

import argparse
import importlib
import json
import random
import shutil
import subprocess
import sys
import time
from pathlib import Path

from harness import (Tracer, install_hook, median, peak_rss_mb, run_loop,
                     tail)
from workloads import SETUPS, Setup

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_REPS = 11
MAX_LISTED = 20   # longer instance and failure lists are cut short

END_TO_END = {"wall_s": "s", "max_instance_s": "s", "setup_s": "s",
              "peak_rss_mb": "MiB"}
PER_LAYER = {
    "oracles.nodes": "count",
    "oracles.nodes_per_s": "1/s",
    "oracles.pruned_by_rainbow": "count",
    "oracles.pruned_by_bound": "count",
    "oracles.prune_ratio": "ratio",
    "oracles.self_s": "s",
    "oracles.verify_witness_s": "s",
    "oracles.parallel_node_inflation": "ratio",
    "oracles.parallel_time_ratio": "ratio",
    "rainbow.detect_calls": "count",
    "rainbow.detect_s": "s",
    "rainbow.detect_us_per_call": "us",
    "rainbow.detect_hit_ratio": "ratio",
    "rainbow.find_rainbow_neg_us.p50": "us",
    "rainbow.find_rainbow_neg_us.tail": "us",
    "rainbow.find_rainbow_pos_us.p50": "us",
    "rainbow.find_rainbow_pos_us.tail": "us",
    "rainbow.contains_subgraph_us.p50": "us",
    "rainbow.contains_subgraph_us.tail": "us",
    "rainbow.representing_per_s": "1/s",
    "rainbow.self_s": "s",
    "graphs.coloring_parse_mb_s": "MB/s",
    "graphs.coloring_emit_mb_s": "MB/s",
    "graphs.graph6_encode_per_s": "1/s",
    "graphs.graph6_decode_per_s": "1/s",
    "graphs.coloring_build_us": "us",
    "graphs.self_s": "s",
    "constructions.build_us": "us",
    "cli.startup_s": "s",
    "cli.overhead_s": "s",
    "trace.overhead_s": "s",
}


def fresh_import():
    """Import arforest from this checkout's src/, discarding any earlier import."""
    for name in [m for m in sys.modules
                 if m == "arforest" or m.startswith("arforest.")]:
        del sys.modules[name]
    api = importlib.import_module("arforest")
    if Path(api.__file__).resolve().parent != SRC / "arforest":
        raise ImportError(f"arforest imported from {api.__file__}, "
                          f"not from {SRC}")
    return api


def set_up(workload: str, seed: int, tracer: Tracer, workdir: Path):
    """SETUP_REPS fresh imports and input builds; the last one is kept."""
    times = []
    for rep in range(SETUP_REPS):
        last = rep == SETUP_REPS - 1
        t = tracer if last else Tracer(enabled=False)
        t.phase = "setup"
        t0 = time.perf_counter()
        api = fresh_import()
        wl = SETUPS[workload](Setup(api, random.Random(seed), t, workdir,
                                    ROOT))
        times.append(time.perf_counter() - t0)
    return api, wl, times


# --- per-layer metrics from the spans ----------------------------------------

class Layers:
    """Per-layer values; a value of 0 with a reason means not measured."""

    def __init__(self):
        self.values: dict[str, float] = {}
        self.notes: dict[str, str] = {}

    def put(self, name: str, value, note: str = "") -> None:
        self.values[name] = float(value)
        if note:
            self.notes[name] = note

    def missing(self, name: str, reason: str) -> None:
        self.values[name] = 0.0
        self.notes[name] = f"not measured: {reason}"


def _dur(rec) -> float:
    return rec["end"] - rec["start"]


def _per_pass(values_by_phase: dict[str, float], phases) -> float:
    return median(values_by_phase.get(p, 0.0) for p in phases)


def layer_metrics(tracer: Tracer, passes, extra: dict,
                  hook_ok: bool) -> Layers:
    L = Layers()
    phases = sorted({r["phase"] for r in tracer.spans
                     if r["phase"].startswith("pass")})
    spans = [r for r in tracer.spans if r["phase"] in phases]

    def by_phase(recs, fn) -> dict[str, float]:
        out: dict[str, float] = {}
        for r in recs:
            out[r["phase"]] = out.get(r["phase"], 0.0) + fn(r)
        return out

    # oracles: in-process searches, or the CLI's parallel searches
    bf = [r for r in spans if r["name"].startswith("oracles.brute_force_")]
    cli_par = [r for r in spans if r["name"].startswith("cli.search-")
               and r["attrs"]["nodes"] is not None]
    searches = bf or cli_par
    if searches:
        nodes = _per_pass(by_phase(searches, lambda r: r["attrs"]["nodes"]),
                          phases)
        pr = _per_pass(by_phase(
            searches, lambda r: r["attrs"]["pruned_by_rainbow"]), phases)
        pb = _per_pass(by_phase(
            searches, lambda r: r["attrs"]["pruned_by_bound"]), phases)
        if bf:
            secs = _per_pass(by_phase(bf, lambda r: r["attrs"]["elapsed_s"]),
                             phases)
        else:
            secs = _per_pass(by_phase(
                cli_par, lambda r: r["attrs"]["elapsed_ms"] / 1000.0), phases)
        L.put("oracles.nodes", nodes)
        L.put("oracles.pruned_by_rainbow", pr)
        L.put("oracles.pruned_by_bound", pb)
        L.put("oracles.prune_ratio", (pr + pb) / nodes if nodes else 0.0)
        L.put("oracles.nodes_per_s", nodes / secs if secs else 0.0)
    else:
        for name in ("oracles.nodes", "oracles.pruned_by_rainbow",
                     "oracles.pruned_by_bound", "oracles.prune_ratio",
                     "oracles.nodes_per_s"):
            L.missing(name, "no oracle search in this workload")

    bf_ids = {r["id"] for r in bf}
    detect = [a for a in tracer.aggregates
              if a["name"] == "rainbow.detect" and a["parent"] in bf_ids]
    if bf and hook_ok:
        calls = _per_pass(by_phase(detect, lambda a: a["count"]), phases)
        dsec = _per_pass(by_phase(detect, lambda a: a["total_s"]), phases)
        hits = _per_pass(by_phase(detect, lambda a: a["hits"]), phases)
        bf_sec = _per_pass(by_phase(bf, _dur), phases)
        L.put("rainbow.detect_calls", calls)
        L.put("rainbow.detect_s", dsec)
        L.put("rainbow.detect_us_per_call", dsec / calls * 1e6 if calls else 0)
        L.put("rainbow.detect_hit_ratio", hits / calls if calls else 0)
        L.put("oracles.self_s", bf_sec - dsec)
    else:
        reason = ("rainbow._search_forest is gone, so detector calls inside "
                  "the oracles cannot be seen" if bf else
                  "no in-process oracle search in this workload")
        for name in ("rainbow.detect_calls", "rainbow.detect_s",
                     "rainbow.detect_us_per_call", "rainbow.detect_hit_ratio",
                     "oracles.self_s"):
            L.missing(name, reason)

    verify = [r for r in spans if r["name"] == "oracles.verify_witness"]
    if verify:
        L.put("oracles.verify_witness_s",
              _per_pass(by_phase(verify, _dur), phases))
    else:
        L.missing("oracles.verify_witness_s", "no witness verified")

    seq = extra.get("sequential") or {}
    par: dict[str, list[dict]] = {}
    for r in cli_par:
        par.setdefault(r["name"][len("cli."):], []).append(r["attrs"])
    if seq and all(v["nodes"] is not None and c in par
                   for c, v in seq.items()):
        seq_nodes = sum(v["nodes"] for v in seq.values())
        seq_ms = sum(v["elapsed_ms"] for v in seq.values())
        par_nodes = sum(median(a["nodes"] for a in par[c]) for c in seq)
        par_ms = sum(median(a["elapsed_ms"] for a in par[c]) for c in seq)
        L.put("oracles.parallel_node_inflation", par_nodes / seq_nodes,
              f"{par_nodes:.0f} nodes at --workers 2 over {seq_nodes} at "
              f"--workers 1, 2 cores")
        L.put("oracles.parallel_time_ratio", par_ms / seq_ms,
              f"{par_ms:.0f} ms at --workers 2 over {seq_ms:.0f} ms at "
              f"--workers 1, 2 cores")
    else:
        reason = ("a search reported no stats" if seq else
                  "only the cli-parallel workload runs in parallel")
        for name in ("oracles.parallel_node_inflation",
                     "oracles.parallel_time_ratio"):
            L.missing(name, reason)

    # rainbow: the detector on the corpus, in microseconds per call
    def dist(name: str, recs, what: str) -> None:
        us = [_dur(r) * 1e6 for r in recs]
        if not us:
            L.missing(f"{name}.p50", f"no {what} here")
            L.missing(f"{name}.tail", f"no {what} here")
            return
        L.put(f"{name}.p50", median(us), f"{len(us)} samples")
        value, level = tail(us)
        L.put(f"{name}.tail", value, f"{level} of {len(us)} samples")

    found = [r for r in spans if r["name"] == "rainbow.find_rainbow"]
    dist("rainbow.find_rainbow_neg_us",
         [r for r in found if r["instance"].startswith("hub(")],
         "absence proof on a hub coloring")
    dist("rainbow.find_rainbow_pos_us",
         [r for r in found if r["attrs"]["found"]], "positive find_rainbow")
    dist("rainbow.contains_subgraph_us",
         [r for r in spans if r["name"] == "rainbow.contains_subgraph"],
         "contains_subgraph call")
    reps = [r for r in spans if r["name"] == "rainbow.representing_graphs"]
    if reps:
        L.put("rainbow.representing_per_s",
              sum(r["attrs"]["count"] for r in reps) / sum(map(_dur, reps)),
              "representing graphs built and tested per second")
    else:
        L.missing("rainbow.representing_per_s", "no representing graphs")

    # graphs: codec throughput and coloring construction
    def rate(name: str, span_name: str, scale, what: str) -> None:
        recs = [r for r in spans if r["name"] == span_name]
        if recs:
            L.put(name, sum(map(scale, recs)) / sum(map(_dur, recs)))
        else:
            L.missing(name, f"no {what} here")

    rate("graphs.coloring_parse_mb_s", "graphs.coloring_from_text",
         lambda r: r["attrs"]["bytes"] / 1e6, "coloring text parsed")
    rate("graphs.coloring_emit_mb_s", "graphs.coloring_to_text",
         lambda r: r["attrs"]["bytes"] / 1e6, "coloring text written")
    rate("graphs.graph6_encode_per_s", "graphs.graph6_encode",
         lambda r: 1.0, "graph6 encoded")
    rate("graphs.graph6_decode_per_s", "graphs.graph6_decode",
         lambda r: 1.0, "graph6 decoded")
    setup = [r for r in tracer.spans if r["phase"] == "setup"]
    builds = [_dur(r) * 1e6 for r in setup
              if r["name"] == "graphs.coloring_from_assignment"]
    if builds:
        L.put("graphs.coloring_build_us", median(builds),
              f"median of {len(builds)} EdgeColoring.from_assignment calls")
    else:
        L.missing("graphs.coloring_build_us", "no coloring built in set-up")
    cons = [_dur(r) * 1e6 for r in setup
            if r["name"].startswith("constructions.")]
    if cons:
        L.put("constructions.build_us", median(cons),
              f"median of {len(cons)} builds, verify=False")
    else:
        L.missing("constructions.build_us", "nothing constructed in set-up")

    selfs = {p: tracer.self_seconds(p) for p in phases}
    for layer in ("rainbow", "graphs"):
        L.put(f"{layer}.self_s", median(selfs[p].get(layer, 0.0)
                                        for p in phases))

    # cli: start-up and the time a search spends outside its own clock
    starts = [r["attrs"]["wall_s"] for r in spans if r["name"] == "cli.formula"]
    if starts:
        L.put("cli.startup_s", median(starts),
              "wall time of a trivial formula call")
    else:
        L.missing("cli.startup_s", "no CLI process started")
    if cli_par:
        L.put("cli.overhead_s", median(
            r["attrs"]["wall_s"] - r["attrs"]["elapsed_ms"] / 1000.0
            for r in cli_par), "subprocess wall minus stats.elapsed_ms")
    else:
        L.missing("cli.overhead_s", "no CLI search")

    traced = [p.total_s for p in passes if p.traced]
    plain = [p.total_s for p in passes if not p.traced]
    L.put("trace.overhead_s", median(traced) - median(plain),
          f"median traced pass {median(traced):.3f} s, untraced "
          f"{median(plain):.3f} s")
    return L


# --- one workload -------------------------------------------------------------

def run_workload(workload: str, seed: int, seconds: float,
                 trace: bool) -> dict:
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{workload}-{seed}-{trace:d}"
    tracer = Tracer(enabled=trace)
    try:
        api, wl, setup_times = set_up(workload, seed, tracer, workdir)
        rng = random.Random(f"order-{seed}")
        hook_ok = hasattr(api.rainbow, "_search_forest")

        def hook():
            return install_hook(api.rainbow, "_search_forest", tracer,
                                "rainbow.detect")

        passes = run_loop(wl.instances, seconds, rng, tracer, hook)
        extra = {}
        if trace and wl.traced_extra is not None:
            tracer.phase = "extra"
            extra["sequential"] = wl.traced_extra(tracer)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(len(p.outcomes) for p in passes)
    failures = [(i, iid, out) for i, p in enumerate(passes)
                for iid, out in p.outcomes.items() if not out.ok]
    failures += [(-1, f"sequential {cmd}", None)
                 for cmd, v in extra.get("sequential", {}).items()
                 if not v["ok"]]
    attempted += len(extra.get("sequential", {}))
    ids = [inst.id for inst in wl.instances]
    inst_median = {iid: median(p.times[iid] for p in passes) for iid in ids}
    plain = [p.total_s for p in passes if not p.traced]

    print(f"workload {workload}  seed {seed}  trace {int(trace)}  "
          f"passes {len(passes)} ({sum(p.traced for p in passes)} traced)  "
          f"instances {len(ids)}")
    for i, iid, out in failures[:MAX_LISTED]:
        print(f"  FAIL pass {i} {iid}: {out.detail if out else 'failed'}")
    print(f"  fail_frac       {len(failures) / attempted:.4f} ratio  "
          f"({len(failures)} of {attempted} attempted)")
    if trace:
        layers = layer_metrics(tracer, passes, extra, hook_ok)
        metrics = {name: {"value": layers.values[name], "unit": unit}
                   for name, unit in PER_LAYER.items()}
        for name, unit in PER_LAYER.items():
            note = layers.notes.get(name, "")
            print(f"  {name:36s} {layers.values[name]:14.6g} {unit:6s} {note}")
    else:
        worst = max(ids, key=inst_median.get)
        values = {"wall_s": median(plain),
                  "max_instance_s": inst_median[worst],
                  "setup_s": median(setup_times),
                  "peak_rss_mb": peak_rss_mb()}
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END.items()}
        print(f"  wall_s          {values['wall_s']:.4f} s  (median of "
              f"{len(plain)} passes, range {min(plain):.4f}-{max(plain):.4f})")
        print(f"  max_instance_s  {values['max_instance_s']:.4f} s  ({worst})")
        print(f"  setup_s         {values['setup_s']:.4f} s  (median of "
              f"{len(setup_times)} set-ups)")
        print(f"  peak_rss_mb     {values['peak_rss_mb']:.1f} MiB")
    if len(ids) <= MAX_LISTED:
        for iid in ids:
            last = passes[-1].outcomes[iid]
            print(f"    {iid:28s} {inst_median[iid]:9.4f} s  value "
                  f"{last.value} pinned {last.expected} exhausted "
                  f"{last.exhausted} exit {last.exit_code} "
                  f"{'ok' if last.ok else 'FAIL'}")
    else:
        kinds: dict[str, list[str]] = {}
        for iid in ids:
            kinds.setdefault(iid.rstrip("0123456789").split("(")[0],
                             []).append(iid)
        for kind, members in kinds.items():
            print(f"    {kind:28s} {len(members):4d} instances "
                  f"{sum(inst_median[i] for i in members):9.4f} s")

    record = {
        "workload": workload, "seed": seed, "trace": trace,
        "setup_s": setup_times, "metrics": metrics,
        "passes": [{"traced": p.traced, "total_s": p.total_s,
                    "instances": {iid: {"time_s": p.times[iid],
                                        **vars(p.outcomes[iid])}
                                  for iid in ids}} for p in passes],
        "sequential": extra.get("sequential"),
        "spans": tracer.spans, "aggregates": tracer.aggregates,
    }
    path = OUT / f"{workload}-seed{seed}-trace{int(trace)}.json"
    path.write_text(json.dumps(record) + "\n", encoding="utf-8")
    return {"correct": not failures, "attempted": attempted,
            "failed": len(failures), "metrics": metrics}


def run_all(args) -> dict:
    """Every workload in its own process, so memory peaks stay separate."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in SETUPS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed",
             str(args.seed), "--seconds", str(args.seconds), "--trace",
             str(args.trace)], capture_output=True, text=True)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            raise SystemExit(f"workload {name} exited {proc.returncode}")
        res = json.loads(lines[-1])
        total["correct"] &= res["correct"]
        total["attempted"] += res["attempted"]
        total["failed"] += res["failed"]
        for metric, v in res["metrics"].items():
            total["metrics"][f"{name}/{metric}"] = v
    return total


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True,
                        choices=[*SETUPS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    sys.path.insert(0, str(SRC))
    if not (SRC / "arforest" / "__init__.py").is_file():
        raise SystemExit(f"arforest sources not found under {SRC}")
    if args.workload == "all":
        result = run_all(args)
    else:
        result = run_workload(args.workload, args.seed, args.seconds,
                              bool(args.trace))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
