import json
import shlex
from pathlib import Path

import pytest

from arforest import (EdgeColoring, InteriorArrangement, LinearForest,
                      SearchBudget, build_forest_coloring)
from arforest.cli import build_parser, main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out)


# each formula's flags, in the order its error message names them, and its
# whole stdout line
FORMULA_RUNS = {
    "ar-path": (["--n", "20", "--k", "5"],
                '{"epsilon": 0, "inputs": {"k": 5, "n": 20}, "name": '
                '"ar-path", "validity": "n sufficiently large", "value": 20}'),
    "ar-matching": (["--n", "20", "--t", "4"],
                    '{"epsilon": null, "inputs": {"n": 20, "t": 4}, "name": '
                    '"ar-matching", "validity": "n >= 2t+1", "value": 38}'),
    "ar-main": (["--n", "20", "--forest", "5,4"],
                '{"epsilon": 1, "inputs": {"forest": "5,4", "n": 20}, '
                '"name": "ar-main", "validity": "n >= f(5,4), threshold '
                'unquantified", "value": 39}'),
    "ar-asymptotic": (["--forest", "5,4"],
                      '{"epsilon": null, "inputs": {"forest": "5,4"}, '
                      '"name": "ar-asymptotic", "validity": "coefficient of '
                      'n, k >= 2", "value": 2}'),
    "eg-bound": (["--n", "7", "--k", "5"],
                 '{"epsilon": null, "inputs": {"k": 5, "n": 7}, "name": '
                 '"eg-bound", "validity": "all n, k >= 2", "value": "21/2"}'),
    "ex-kp3": (["--n", "21", "--k", "3"],
               '{"epsilon": null, "inputs": {"k": 3, "n": 21}, "name": '
               '"ex-kp3", "validity": "n >= 7k", "value": 48}'),
    "ex-forest": (["--n", "20", "--forest", "5,4"],
                  '{"epsilon": 0, "inputs": {"forest": "5,4", "n": 20}, '
                  '"name": "ex-forest", "validity": "n sufficiently large", '
                  '"value": 54}'),
}


class TestFormulaCommand:
    def test_ar_main(self, capsys):
        code, out = run(capsys, "formula", "--name", "ar-main",
                        "--n", "20", "--forest", "5,4")
        assert code == 0
        assert out["value"] == 39
        assert out["epsilon"] == 1
        assert out["inputs"] == {"n": 20, "forest": "5,4"}

    def test_eg_bound_fraction_as_string(self, capsys):
        code, out = run(capsys, "formula", "--name", "eg-bound",
                        "--n", "7", "--k", "5")
        assert code == 0
        assert out["value"] == "21/2"

    def test_eg_bound_integer_stays_integer(self, capsys):
        code, out = run(capsys, "formula", "--name", "eg-bound",
                        "--n", "10", "--k", "5")
        assert code == 0 and out["value"] == 15

    def test_eg_bound_needs_a_path_with_an_edge(self, capsys):
        # P_1 is no path this package knows, so its bound is out of range,
        # not a negative value
        assert main(["formula", "--name", "eg-bound", "--n", "7",
                     "--k", "1"]) == 2
        assert capsys.readouterr().out == (
            '{"error": {"message": "erdos_gallai_bound needs n >= 1, '
            'k >= 2", "type": "OutOfValidityError"}}\n')

    def test_asymptotic(self, capsys):
        code, out = run(capsys, "formula", "--name", "ar-asymptotic",
                        "--forest", "5,4")
        assert code == 0 and out["value"] == 2

    def test_out_of_range_is_usage_error(self, capsys):
        code, out = run(capsys, "formula", "--name", "ar-matching",
                        "--n", "6", "--t", "3")
        assert code == 2
        assert "error" in out and out["error"]["message"]

    def test_missing_arg_is_usage_error(self, capsys):
        code, out = run(capsys, "formula", "--name", "ar-path", "--n", "20")
        assert code == 2 and "error" in out

    @pytest.mark.parametrize("name", sorted(FORMULA_RUNS))
    def test_every_formula_prints_its_pinned_line(self, capsys, name):
        flags, line = FORMULA_RUNS[name]
        assert main(["formula", "--name", name, *flags]) == 0
        assert capsys.readouterr().out == line + "\n"

    @pytest.mark.parametrize("name,missing", [
        (name, flag) for name, (flags, _) in sorted(FORMULA_RUNS.items())
        for flag in flags[::2]])
    def test_every_formula_names_the_flags_it_needs(self, capsys, name,
                                                    missing):
        flags = FORMULA_RUNS[name][0]
        i = flags.index(missing)
        assert main(["formula", "--name", name,
                     *flags[:i], *flags[i + 2:]]) == 2
        message = f"{name} needs {' and '.join(flags[::2])}"
        assert capsys.readouterr().out == (
            '{"error": {"message": "%s", "type": "UsageError"}}\n' % message)


class TestConstructCommand:
    def test_turan_graph6_file(self, capsys, tmp_path):
        out_path = tmp_path / "g.g6"
        code, out = run(capsys, "construct", "--family", "turan",
                        "--n", "20", "--forest", "5,4",
                        "--out", str(out_path))
        assert code == 0
        # n = 20 is above VERIFY_LIMIT, so the detector is not run
        assert out["edges"] == 54 and out["verified"] is False
        from arforest import graph6_decode
        g = graph6_decode(out_path.read_text().strip())
        assert g.n == 20 and g.edge_count == 54
        sidecar = json.loads((tmp_path / "g.g6.json").read_text())
        assert sidecar == out

    def test_turan_small_host_is_verified(self, capsys):
        code, out = run(capsys, "construct", "--family", "turan",
                        "--n", "12", "--forest", "5,4")
        assert code == 0
        assert out["edges"] == 30 and out["verified"] is True

    def test_turan_copy_is_construction_error(self, capsys, monkeypatch):
        import arforest.cli as cli
        from arforest import complete_graph
        monkeypatch.setattr(cli, "build_turan_extremal",
                            lambda n, forest: complete_graph(n))
        code, out = run(capsys, "construct", "--family", "turan",
                        "--n", "10", "--forest", "4,2")
        assert code == 2
        assert out["error"]["type"] == "ConstructionError"

    def test_forest_coloring_roundtrips_through_verify(self, capsys, tmp_path):
        out_path = tmp_path / "c.txt"
        code, out = run(capsys, "construct", "--family", "forest",
                        "--n", "12", "--forest", "4,2", "--out", str(out_path))
        assert code == 0
        assert out["colors"] == 12 and out["verified"] is True
        code, out = run(capsys, "verify", "--coloring", str(out_path),
                        "--forest", "4,2")
        assert code == 0 and out["rainbow"] is False

    def test_forest_sidecar_records_the_arrangement(self, capsys, tmp_path):
        # 3,2 has two interior colors, so the two arrangements give two
        # colorings, and each sidecar says which one its file holds
        sidecars = []
        for arrangement in ("mono-interior", "single-edge"):
            out_path = tmp_path / f"{arrangement}.txt"
            code, out = run(capsys, "construct", "--family", "forest",
                            "--n", "7", "--forest", "3,2", "--arrangement",
                            arrangement, "--out", str(out_path))
            assert code == 0 and out["arrangement"] == arrangement
            sidecar = json.loads((tmp_path / f"{arrangement}.txt.json")
                                 .read_text())
            assert sidecar == out
            sidecars.append(sidecar)
        assert sidecars[0] != sidecars[1]

    @pytest.mark.parametrize("limit", [11, 12])
    @pytest.mark.parametrize("family,flags", [("path", ["--k", "5"]),
                                              ("forest", ["--forest", "4,2"]),
                                              ("turan", ["--forest", "4,2"])])
    def test_verified_says_whether_the_detector_ran(self, capsys, monkeypatch,
                                                     limit, family, flags):
        # every family is checked by constructions.check_free, with the
        # detector for its kind of object
        import arforest.constructions as constructions
        calls = []
        name = "contains_subgraph" if family == "turan" else "find_rainbow"
        detect = getattr(constructions, name)
        monkeypatch.setattr(constructions, "VERIFY_LIMIT", limit)
        monkeypatch.setattr(constructions, name,
                            lambda *a: calls.append(a) or detect(*a))
        code, out = run(capsys, "construct", "--family", family,
                        "--n", "12", *flags)
        assert code == 0
        assert out["verified"] is (limit == 12) is (len(calls) == 1)

    def test_path_family(self, capsys):
        code, out = run(capsys, "construct", "--family", "path",
                        "--n", "10", "--k", "5")
        assert code == 0 and out["colors"] == 10

    def test_unwritable_out_file_is_usage_error(self, capsys, tmp_path):
        out_path = tmp_path / "missing" / "c.txt"
        code, out = run(capsys, "construct", "--family", "path", "--n", "8",
                        "--k", "5", "--out", str(out_path))
        assert code == 2
        assert out["error"]["type"] == "UsageError"
        assert out["error"]["message"].startswith(f"cannot write {out_path}")

    def test_too_small_host_is_usage_error(self, capsys):
        code, out = run(capsys, "construct", "--family", "forest",
                        "--n", "6", "--forest", "4,2")
        assert code == 2 and "error" in out

    @pytest.mark.parametrize("family", ["turan", "forest"])
    def test_missing_forest_is_usage_error(self, capsys, family):
        code, out = run(capsys, "construct", "--family", family, "--n", "10")
        assert code == 2
        assert out["error"] == {"type": "UsageError",
                                "message": f"{family} family needs --forest"}


class TestVerifyCommand:
    def test_rainbow_found_exits_one(self, capsys, tmp_path):
        path = tmp_path / "rainbow.txt"
        path.write_text(EdgeColoring.all_rainbow(6).to_text())
        code, out = run(capsys, "verify", "--coloring", str(path),
                        "--forest", "3,2")
        assert code == 1
        assert out["rainbow"] is True
        assert out["witness"]["paths"]

    def test_monochromatic_exits_zero(self, capsys, tmp_path):
        path = tmp_path / "mono.txt"
        path.write_text(EdgeColoring.monochromatic(6).to_text())
        code, out = run(capsys, "verify", "--coloring", str(path),
                        "--forest", "2,2")
        assert code == 0 and out["rainbow"] is False

    def test_missing_file_is_usage_error(self, capsys):
        code, out = run(capsys, "verify", "--coloring", "/nonexistent",
                        "--forest", "2,2")
        assert code == 2 and "error" in out

    def test_truncated_file_is_usage_error(self, capsys, tmp_path):
        path = tmp_path / "short.txt"
        path.write_text("3 1\n0 1 0\n")
        code, out = run(capsys, "verify", "--coloring", str(path),
                        "--forest", "2,2")
        assert code == 2
        assert str(path) in out["error"]["message"]


class TestSearchCommands:
    def test_search_ar_exact(self, capsys):
        code, out = run(capsys, "search-ar", "--n", "5", "--forest", "3,2")
        assert code == 0
        assert out["value"] == 2 and out["exhausted"] is True
        assert set(out["stats"]) == {"nodes", "pruned_by_rainbow",
                                     "pruned_by_bound", "dead_edges",
                                     "detector_calls", "reused_copies",
                                     "stop_reason", "elapsed_ms"}

    def test_search_ex_witness_file(self, capsys, tmp_path):
        wpath = tmp_path / "w.g6"
        code, out = run(capsys, "search-ex", "--n", "5", "--forest", "2,2",
                        "--witness-out", str(wpath))
        assert code == 0 and out["value"] == 4
        from arforest import contains_subgraph, graph6_decode
        g = graph6_decode(wpath.read_text().strip())
        assert g.edge_count == 4
        assert contains_subgraph(g, LinearForest.parse("2,2")) is None

    def test_budget_exhaustion_exits_three(self, capsys):
        code, out = run(capsys, "search-ar", "--n", "6", "--forest", "3,2",
                        "--max-nodes", "40")
        assert code == 3 and out["exhausted"] is False

    def test_time_budget_exits_three(self, capsys):
        # AR(30, P4+P2) is far out of reach; the deadline stops it
        code, out = run(capsys, "search-ar", "--n", "30", "--forest", "4,2",
                        "--max-millis", "100")
        assert code == 3 and out["exhausted"] is False
        assert out["stats"]["stop_reason"] == "millis"

    def test_budget_defaults_are_search_budgets(self):
        args = build_parser().parse_args(["search-ar", "--n", "5",
                                          "--forest", "2,2"])
        assert (SearchBudget(args.max_nodes, args.max_millis, args.workers)
                == SearchBudget())

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_search_deeper_than_the_interpreter_stack(self, capsys, workers):
        # every leaf lies 1,225 decisions deep, one per edge of K_50
        code, out = run(capsys, "search-ar", "--n", "50", "--forest", "3",
                        "--workers", workers)
        assert code == 0
        assert out["value"] == 1 and out["exhausted"] is True
        if workers == "1":
            assert out["stats"]["nodes"] == 1226

    def test_unwritable_witness_file_is_usage_error(self, capsys, tmp_path):
        wpath = tmp_path / "missing" / "w.g6"
        code, out = run(capsys, "search-ex", "--n", "5", "--forest", "3",
                        "--witness-out", str(wpath))
        assert code == 2
        assert out["error"]["type"] == "UsageError"
        assert out["error"]["message"].startswith(f"cannot write {wpath}")

    def test_golden_stability_outside_stats(self, capsys):
        code1, out1 = run(capsys, "search-ar", "--n", "5", "--forest", "2,2")
        code2, out2 = run(capsys, "search-ar", "--n", "5", "--forest", "2,2")
        out1.pop("stats"), out2.pop("stats")
        assert code1 == code2 == 0 and out1 == out2


class TestRepresentingCommand:
    def _coloring_file(self, tmp_path):
        path = tmp_path / "c.txt"
        path.write_text(
            EdgeColoring(4, [0, 0, 1, 1, 2, 2]).to_text())
        return path

    def test_enumeration(self, capsys, tmp_path):
        path = self._coloring_file(tmp_path)
        code, out = run(capsys, "representing", "--coloring", str(path),
                        "--cap", "100")
        assert code == 0
        assert out["total_count"] == "8"
        assert len(out["graphs"]) == 8 and out["truncated"] is False

    def test_cap(self, capsys, tmp_path):
        path = self._coloring_file(tmp_path)
        code, out = run(capsys, "representing", "--coloring", str(path),
                        "--cap", "3")
        assert code == 0
        assert len(out["graphs"]) == 3 and out["truncated"] is True

    def test_sampling_deterministic(self, capsys, tmp_path):
        path = self._coloring_file(tmp_path)
        _, out1 = run(capsys, "representing", "--coloring", str(path),
                      "--sample-seed", "7")
        _, out2 = run(capsys, "representing", "--coloring", str(path),
                      "--sample-seed", "7")
        assert out1 == out2 and len(out1["graphs"]) == 1

    def test_a_sample_of_many_is_truncated(self, capsys, tmp_path):
        # a sample shows one of the coloring's 55 representing graphs, so
        # it is truncated by the same rule as an enumeration under its cap
        path = tmp_path / "c42.txt"
        code, _ = run(capsys, "construct", "--family", "forest", "--n", "12",
                      "--forest", "4,2", "--out", str(path))
        assert code == 0
        code, out = run(capsys, "representing", "--coloring", str(path),
                        "--sample-seed", "7")
        assert code == 0 and out["total_count"] == "55"
        assert len(out["graphs"]) == 1 and out["truncated"] is True


class TestStrayFlags:
    # a flag the chosen variant does not read is an error, not ignored, so
    # every flag on a command line was used
    @pytest.mark.parametrize("argv,message", [
        (["construct", "--family", "path", "--n", "10", "--k", "5",
          "--forest", "4,2"], "path family takes no --forest"),
        (["construct", "--family", "path", "--n", "10", "--k", "5",
          "--arrangement", "mono-interior"],
         "path family takes no --arrangement"),
        (["construct", "--family", "turan", "--n", "12", "--forest", "5,4",
          "--k", "9"], "turan family takes no --k"),
        (["construct", "--family", "turan", "--n", "12", "--forest", "5,4",
          "--arrangement", "single-edge"],
         "turan family takes no --arrangement"),
        (["construct", "--family", "forest", "--n", "12", "--forest", "4,2",
          "--k", "5"], "forest family takes no --k"),
        (["formula", "--name", "ar-path", "--n", "20", "--k", "5",
          "--forest", "4,2"], "ar-path takes no --forest"),
        (["formula", "--name", "ar-asymptotic", "--forest", "5,4",
          "--n", "20"], "ar-asymptotic takes no --n"),
        (["formula", "--name", "ex-kp3", "--n", "21", "--k", "3",
          "--t", "3"], "ex-kp3 takes no --t"),
        (["representing", "--coloring", "{coloring}", "--sample-seed", "7",
          "--cap", "50"], "a sample takes no --cap"),
    ], ids=["path-forest", "path-arrangement", "turan-k",
            "turan-arrangement", "forest-k", "ar-path-forest",
            "ar-asymptotic-n", "ex-kp3-t", "sample-cap"])
    def test_stray_flag_is_usage_error(self, capsys, tmp_path, argv,
                                       message):
        coloring = tmp_path / "c.txt"
        coloring.write_text(EdgeColoring(4, [0, 0, 1, 1, 2, 2]).to_text())
        out_path = tmp_path / "out.txt"
        argv = [a.format(coloring=coloring) for a in argv]
        if argv[0] == "construct":
            argv += ["--out", str(out_path)]
        code, out = run(capsys, *argv)
        assert code == 2
        assert out == {"error": {"type": "UsageError", "message": message}}
        assert list(tmp_path.iterdir()) == [coloring]

    @pytest.mark.parametrize("flags,arrangement", [
        ([], InteriorArrangement.SINGLE_EDGE_SECOND_COLOR),
        *[(["--arrangement", a.value], a) for a in InteriorArrangement]])
    def test_arrangement_reaches_the_builder(self, capsys, tmp_path, flags,
                                             arrangement):
        # 3,2 has two interior colors, so the two arrangements differ
        out_path = tmp_path / "c.txt"
        code, _ = run(capsys, "construct", "--family", "forest", "--n", "7",
                      "--forest", "3,2", *flags, "--out", str(out_path))
        assert code == 0
        assert out_path.read_text() == build_forest_coloring(
            7, LinearForest.parse("3,2"), arrangement).to_text()

    def test_enumeration_cap_defaults_to_100(self, capsys, tmp_path):
        # three color classes of five edges: 125 representing graphs
        path = tmp_path / "c.txt"
        path.write_text(EdgeColoring(6, [0] * 5 + [1] * 5 + [2] * 5).to_text())
        code, out = run(capsys, "representing", "--coloring", str(path))
        assert code == 0 and out["total_count"] == "125"
        assert len(out["graphs"]) == 100 and out["truncated"] is True


def readme_commands() -> list[str]:
    """The arforest command lines of the README's CLI code block."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = text.split("## CLI", 1)[1].split("```sh\n", 1)[1]
    block = block.split("```", 1)[0]
    return [line for line in block.splitlines()
            if line.startswith("arforest ")]


class TestUsage:
    def test_unknown_subcommand(self, capsys):
        assert main(["frobnicate"]) == 2

    @pytest.mark.parametrize("line", readme_commands())
    def test_readme_command_parses(self, line):
        # parsing only: the commands name files the README's own runs write
        build_parser().parse_args(shlex.split(line, comments=True)[1:])

    def test_readme_lists_every_command(self):
        commands = {line.split()[1] for line in readme_commands()}
        assert commands == {"formula", "construct", "verify",
                                 "search-ar", "search-ex", "representing"}

    def test_console_entry_point_exists(self, monkeypatch):
        # The console script is declared in the repository's pyproject.toml;
        # check that declaration itself, so the test does not depend on
        # whether this checkout has been pip-installed.
        import importlib.metadata as md
        import sys
        from pathlib import Path

        import arforest.cli as cli

        try:
            import tomllib
        except ModuleNotFoundError:  # Python 3.10
            tomllib = pytest.importorskip("tomli")
        pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
        with pyproject.open("rb") as fh:
            declared = tomllib.load(fh)["project"]["scripts"]["arforest"]

        ep = md.EntryPoint(name="arforest", value=declared,
                           group="console_scripts")
        target = ep.load()
        assert target is cli.console_main

        # Invoked as a console script would be: argv from sys.argv, exit
        # status through SystemExit.
        monkeypatch.setattr(sys, "argv", ["arforest", "frobnicate"])
        with pytest.raises(SystemExit) as exc:
            target()
        assert exc.value.code == cli.EXIT_USAGE == 2

        # Where an arforest distribution is installed, its metadata must
        # agree with the declaration (a stale install would not).
        installed = [e.value for e in md.entry_points(group="console_scripts")
                     if e.name == "arforest"]
        assert installed == [declared] * len(installed)
