"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 bench/spread.py --seeds 1-10 [--workload ex-sweep ...]

Runs bench/run.py once per seed and workload with the settings in
BENCHMARK.json, then prints, per metric, the median over seeds, the
quartiles and the interquartile range as a share of the median next to the
metric's bound.  The benchmark is steady when every spread is well below its
bound (setup_s is compared only across repeated sets of runs).
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seeds(spec: str) -> list[int]:
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workload", nargs="*")
    parser.add_argument("--out", help="write every run's result here (JSON)")
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    names = args.workload or [w["name"] for w in spec["workloads"]]
    results: dict[str, list[dict]] = {}
    ok = True
    for name in names:
        for seed in seeds(args.seeds):
            cmd = [*spec["command"], "--workload", name, "--seed", str(seed),
                   "--seconds", str(spec["run_seconds"]), "--trace", "0"]
            cmd[0] = sys.executable if cmd[0].startswith("python") else cmd[0]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True,
                                  text=True)
            res = json.loads(proc.stdout.splitlines()[-1])
            results.setdefault(name, []).append(res)
            vals = {k: round(v["value"], 4) for k, v in res["metrics"].items()}
            print(f"{name} seed {seed}: correct {res['correct']} "
                  f"failed {res['failed']}/{res['attempted']} {vals}",
                  flush=True)
        for metric, bound in bounds.items():
            xs = [r["metrics"][metric]["value"] for r in results[name]]
            med = statistics.median(xs)
            q1, _, q3 = statistics.quantiles(xs, n=4)
            spread = (q3 - q1) / med
            flag = "" if spread < bound / 3 or metric == "setup_s" else "  HIGH"
            ok &= not flag
            print(f"  {name:14s} {metric:15s} median {med:10.4f}  q1 {q1:10.4f}"
                  f"  q3 {q3:10.4f}  spread {spread:6.3f}  bound {bound}{flag}")
    if args.out:
        Path(args.out).write_text(json.dumps(results, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
