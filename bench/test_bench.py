"""Tests of the benchmark itself.

    PYTHONPATH=src python -m pytest -q bench

They check that the traced counts repeat exactly, that a wrong pinned answer
is counted as a failure without stopping the run, and that the pinned
answers and the input generator agree with their stated sources.
"""
import random
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src"), str(ROOT / "tests")]

import run  # noqa: E402
import workloads  # noqa: E402
from checks import (check_in_graph, check_rainbow, faudree_schelp,  # noqa: E402
                    random_assignment)
from harness import Tracer, install_hook, run_pass  # noqa: E402
from workloads import Setup, setup_oracle_sweep  # noqa: E402

SMALL_EX = [(7, "3,2", 6, workloads.SEED_VALUE)]
SMALL_AR = [(5, "3,2", 2, workloads.NAIVE)]


def traced_pass(kind, table, tmp_path, hook=True):
    api = run.fresh_import()
    tracer = Tracer(enabled=True)
    tracer.phase = "pass1"
    wl = setup_oracle_sweep(
        Setup(api, random.Random(0), tracer, tmp_path, ROOT), kind, table)
    restore = (install_hook(api.rainbow, "_search_forest", tracer,
                            "rainbow.detect") if hook else None)
    try:
        rec = run_pass(wl.instances, random.Random(0), tracer)
    finally:
        if restore is not None:
            restore()
    return rec, run.layer_metrics(tracer, [rec], {}, hook)


@pytest.mark.parametrize("kind,table", [("ex", SMALL_EX), ("ar", SMALL_AR)])
def test_sequential_counts_repeat_exactly(kind, table, tmp_path):
    first, a = traced_pass(kind, table, tmp_path)
    second, b = traced_pass(kind, table, tmp_path)
    assert all(o.ok for o in [*first.outcomes.values(),
                              *second.outcomes.values()])
    for name in ("oracles.nodes", "rainbow.detect_calls",
                 "oracles.pruned_by_rainbow", "oracles.pruned_by_bound"):
        assert a.values[name] > 0
        assert a.values[name] == b.values[name], name


def test_missing_hook_reports_not_measured(tmp_path):
    rec, layers = traced_pass("ar", SMALL_AR, tmp_path, hook=False)
    assert all(o.ok for o in rec.outcomes.values())
    assert layers.values["rainbow.detect_calls"] == 0
    assert layers.notes["rainbow.detect_calls"].startswith("not measured")
    assert layers.values["oracles.nodes"] > 0


def test_wrong_pinned_answer_counts_as_failure(monkeypatch):
    wrong = [(4, "3", 1, workloads.NAIVE), (5, "3,2", 3, "deliberately wrong")]
    monkeypatch.setattr(workloads, "AR_SWEEP", wrong)
    result = run.run_workload("ar-sweep", 1, 0.01, False)
    assert result["correct"] is False
    assert result["attempted"] >= 2
    assert result["failed"] * 2 == result["attempted"]
    assert result["metrics"]["wall_s"]["value"] > 0


def test_random_assignment_follows_the_test_generator():
    from test_rainbow import random_coloring
    for seed in range(20):
        n = 4 + seed % 9
        ours = random_assignment(random.Random(seed), n)
        theirs = random_coloring(random.Random(seed), n)
        assert ours == [theirs.color_of[e] for e in sorted(theirs.color_of)]


def test_faudree_schelp_pins():
    for n, spec, value, source in workloads.EX_SWEEP:
        if source == workloads.FAUDREE_SCHELP:
            assert value == faudree_schelp(n, int(spec))


def test_small_pins_match_the_naive_reference():
    from arforest import LinearForest
    from reference import naive_ar, naive_ex
    for table, naive in ((workloads.AR_SWEEP, naive_ar),
                         (workloads.EX_SWEEP, naive_ex)):
        for n, spec, value, source in table:
            if source == workloads.NAIVE:
                assert naive(n, LinearForest.parse(spec)) == value, (n, spec)


def test_embedding_checks_reject_bad_copies():
    # K_4 colored by lex edge index: 01 02 03 12 13 23
    assign = [0, 1, 2, 2, 1, 0]
    assert check_rainbow(4, assign, (3,), [(1, 0, 2)]) is None
    assert check_rainbow(4, assign, (2, 2), [(0, 1), (2, 3)]) is not None
    assert check_rainbow(4, assign, (2, 2), [(0, 1), (1, 2)]) is not None
    assert check_rainbow(4, assign, (3,), [(0, 1)]) is not None
    adj = [0b0010, 0b0101, 0b0010, 0]  # path 0-1-2, vertex 3 isolated
    assert check_in_graph(4, adj, (3,), [(0, 1, 2)]) is None
    assert check_in_graph(4, adj, (2,), [(2, 3)]) is not None
