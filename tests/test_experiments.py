import argparse
import dataclasses
import hashlib
import shlex
from pathlib import Path

import numpy as np
import pytest

from densebandits.cli import build_parser, main
from densebandits.experiments import (
    ALGORITHMS,
    ConfigError,
    ExperimentConfig,
    RunRecord,
    config_from_file,
    default_budget,
    knockout_weights,
    parse_seeds,
    read_results,
    run_experiment,
    write_histogram,
    write_results,
)
from densebandits.dssr import build_schedule
from densebandits.graph import density, induced_edges, load_edge_list
from densebandits.solvers import exact_densest

from conftest import data_path

LOLLIPOP_EDGES = "0 1\n0 2\n1 2\n0 3\n"
LOLLIPOP_WEIGHTS = "0 1 3.0\n0 2 3.0\n1 2 3.0\n0 3 3.0\n"


@pytest.fixture
def lollipop_files(tmp_path):
    g = tmp_path / "lolli.txt"
    w = tmp_path / "lolli_w.txt"
    g.write_text(LOLLIPOP_EDGES)
    w.write_text(LOLLIPOP_WEIGHTS)
    return str(g), str(w)


@pytest.fixture
def karate_files(tmp_path):
    w = tmp_path / "karate_w.txt"
    code = main(["gen-weights", "--graph", data_path("karate.txt"), "--seed", "0", "--out", str(w)])
    assert code == 0
    return data_path("karate.txt"), str(w)


class TestParseSeeds:
    def test_forms(self):
        assert parse_seeds("7") == (7,)
        assert parse_seeds("1,2,5") == (1, 2, 5)
        assert parse_seeds("0:100") == tuple(range(100))
        assert parse_seeds("3:5") == (3, 4)
        assert parse_seeds("1, 2 ,5") == (1, 2, 5)

    def test_empty_range_rejected(self):
        with pytest.raises(ConfigError, match="empty seed range"):
            parse_seeds("5:5")
        with pytest.raises(ConfigError):
            parse_seeds("9:2")


class TestConfigFile:
    def test_round_trip(self, tmp_path):
        # every field away from its default, so each key is written and read
        cfg = ExperimentConfig(
            algorithm="dslin",
            graph="g.txt",
            weights="w.txt",
            seeds=(0, 3, 9),
            out="res",
            budget=77,
            max_iters=300,
            k=4,
            epsilon=0.25,
            delta=0.05,
            lam=2.0,
            R=0.5,
            L=7.5,
            stop_mode="exact-second-best",
            gamma=0.8,
            noise="none",
            family_seed=11,
        )
        defaults = ExperimentConfig(algorithm="exact", graph="")
        for f in dataclasses.fields(cfg):
            assert getattr(cfg, f.name) != getattr(defaults, f.name), f.name
        path = tmp_path / "run.cfg"
        path.write_text(
            "algorithm=dslin\ngraph=g.txt\nweights=w.txt\nseeds=0,3,9\nout=res\n"
            "budget=77\nmax-iters=300\nk=4\nepsilon=0.25\ndelta=0.05\nlambda=2.0\n"
            "R=0.5\nL=7.5\nstop-mode=exact-second-best\ngamma=0.8\nnoise=none\n"
            "family-seed=11\n"
        )
        assert config_from_file(path) == cfg

    def test_unset_optionals_stay_none(self, tmp_path, lollipop_files):
        g, w = lollipop_files
        path = tmp_path / "run.cfg"
        path.write_text(f"algorithm=exact\ngraph={g}\nweights={w}\n")
        back = config_from_file(path)
        assert back.budget is None and back.max_iters is None and back.L is None

    def test_bad_lines_rejected(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("algorithm=exact\nnonsense\n")
        with pytest.raises(ConfigError, match="expected key=value"):
            config_from_file(path)
        path.write_text("algorithm=exact\nbogus-key=3\n")
        with pytest.raises(ConfigError, match="unknown key"):
            config_from_file(path)
        path.write_text("# only a comment\n")
        with pytest.raises(ConfigError, match="at least algorithm and graph"):
            config_from_file(path)
        path.write_text("algorithm=dssr\nbudget=60\nbudget=70\n")
        with pytest.raises(ConfigError, match="run.cfg:3: budget is set twice"):
            config_from_file(path)

    def test_comments_and_blanks_ignored(self, tmp_path, lollipop_files):
        g, w = lollipop_files
        path = tmp_path / "run.cfg"
        path.write_text(f"# batch\n\nalgorithm=exact\ngraph={g}\nweights={w}\n")
        assert config_from_file(path).algorithm == "exact"


class TestValidate:
    def base(self, lollipop_files, **kw):
        g, w = lollipop_files
        defaults = dict(algorithm="dssr", graph=g, weights=w)
        defaults.update(kw)
        return ExperimentConfig(**defaults)

    def test_error_matrix(self, lollipop_files):
        cases = [
            (dict(algorithm="newton"), "unknown algorithm"),
            (dict(graph="/nonexistent/g.txt"), "graph file not found"),
            (dict(graph="/nonexistent/ka,rate.txt"), "must not contain a comma"),
            (dict(weights=None), "weight file is required"),
            (dict(weights="/nonexistent/w.txt"), "weight file not found"),
            (dict(seeds=()), "at least one seed"),
            (dict(seeds=(1, 1)), "seed 1 is repeated"),
            (dict(k=2), "k must exceed 2"),
            (dict(budget=0), "budget must be positive"),
            (dict(max_iters=0), "max-iters must be positive"),
            (dict(epsilon=0.0), "epsilon must be positive"),
            (dict(epsilon=float("nan")), "epsilon must be finite"),
            (dict(epsilon=float("inf")), "epsilon must be finite"),
            (dict(delta=0.0), "delta must lie"),
            (dict(delta=1.0), "delta must lie"),
            (dict(lam=0.0), "lambda must be positive"),
            (dict(lam=float("nan")), "lambda must be finite"),
            (dict(R=-1.0), "R must be nonnegative"),
            (dict(R=float("nan")), "R must be finite"),
            (dict(L=-1.0), "L must be nonnegative"),
            (dict(R=0.0), "needs finite R > 0"),
            (dict(stop_mode="optimistic"), "unknown stop-mode"),
            (dict(gamma=1.0), "gamma must lie"),
            (dict(noise="poisson"), "unknown noise kind"),
        ]
        for overrides, msg in cases:
            with pytest.raises(ConfigError, match=msg):
                self.base(lollipop_files, **overrides).validate()

    def test_r_zero_legal_without_noise(self, lollipop_files):
        self.base(lollipop_files, R=0.0, noise="none").validate()


class TestKnockoutWeights:
    def test_deterministic_and_bounded(self, karate):
        w1 = knockout_weights(karate, seed=0)
        w2 = knockout_weights(karate, seed=0)
        assert np.array_equal(w1, w2)
        assert not np.array_equal(w1, knockout_weights(karate, seed=1))
        star = exact_densest(karate, np.ones(karate.m)).subset
        inside = np.zeros(karate.m, dtype=bool)
        inside[induced_edges(karate, star)] = True
        assert np.all(w1 >= 1.0) and np.all(w1 < 100.0)
        assert np.all(w1[inside] < 20.0)

    def test_displaces_unweighted_optimum(self, karate):
        w = knockout_weights(karate, seed=0)
        unweighted = exact_densest(karate, np.ones(karate.m)).subset
        weighted = exact_densest(karate, w).subset
        assert weighted != unweighted


class TestDefaultBudget:
    def test_frozen_values(self):
        assert default_budget(34) == 1000
        assert default_budget(198) == 100000
        assert default_budget(4) == 100
        assert default_budget(3) == 100  # the overhead is 10, which T must exceed
        assert default_budget(2) == 10

    def test_rejects_tiny_n(self):
        with pytest.raises(ValueError):
            default_budget(1)

    def test_always_at_least_overhead(self):
        for n in range(2, 301):
            b = default_budget(n)
            assert b > (n + 1) * (n + 2) // 2
            assert b == 10 ** len(str(b)[1:])
            build_schedule(b, n)


class TestResultsCsv:
    def records(self):
        return [
            RunRecord("dssr", "lolli", 0, 100, 2.5, 3.0, 3, 90, 10, 12.5),
            RunRecord("dssr", "lolli", 1, 100, 2.75, 3.0, 3, 88, 12, 14.0),
        ]

    def test_round_trip_field_for_field(self, tmp_path):
        path = tmp_path / "results.csv"
        recs = self.records()
        write_results(path, recs)
        assert read_results(path) == recs
        rows = {ln.split(",")[2]: ln.split(",") for ln in path.read_text().splitlines()[3:]}
        assert float(rows["mean"][4]) == pytest.approx(2.625)
        assert float(rows["mean"][7]) == pytest.approx(89.0)
        assert float(rows["std"][4]) == pytest.approx(0.125)

    def test_float_fields_survive_exactly(self, tmp_path):
        # repr round-trip must be exact, not approximate
        path = tmp_path / "results.csv"
        q = 2.0 / 3.0 + 1e-16
        write_results(path, [RunRecord("exact", "g", 0, 0, q, q, 2, 0, 0, 0.123456789)])
        back = read_results(path)
        assert back[0].quality == q
        assert back[0].elapsed_ms == 0.123456789

    def test_header_enforced(self, tmp_path):
        path = tmp_path / "results.csv"
        path.write_text("bogus\n")
        with pytest.raises(ValueError, match="unexpected results header"):
            read_results(path)

    def test_histogram_round_trip(self, tmp_path):
        path = tmp_path / "hist.csv"
        write_histogram(path, {3: 5, 1: 44, 78: 2})
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "query_size,count"
        assert lines[1:] == ["1,44", "3,5", "78,2"]


class TestRunExperiment:
    def test_g_oracle_records_identical_across_seeds(self, lollipop_files):
        g, w = lollipop_files
        cfg = ExperimentConfig(algorithm="g-oracle", graph=g, weights=w, seeds=(0, 1, 2))
        recs, errors = run_experiment(cfg)
        assert len(recs) == 3 and errors == []
        stripped = {dataclasses.replace(r, seed=0, elapsed_ms=0.0) for r in recs}
        assert len(stripped) == 1
        assert recs[0].total_queries == 0 and recs[0].budget == 0

    def test_dssr_outputs_and_histogram_invariant(self, tmp_path, lollipop_files):
        g, w = lollipop_files
        out = tmp_path / "out"
        cfg = ExperimentConfig(
            algorithm="dssr", graph=g, weights=w, seeds=(0, 1), budget=60,
            noise="none", out=str(out),
        )
        recs, _ = run_experiment(cfg)
        assert len(recs) == 2
        assert (out / "results.csv").is_file()
        for r in recs:
            assert r.budget == 60
            assert r.total_queries <= 60
            hist_lines = (out / f"dssr_lolli_seed{r.seed}_hist.csv").read_text().strip().splitlines()
            hist = {int(a): int(b) for a, b in (ln.split(",") for ln in hist_lines[1:])}
            assert sum(hist.values()) == r.total_queries
            assert hist.get(1, 0) == r.single_edge_queries
            trace = out / f"dssr_lolli_seed{r.seed}_trace.csv"
            assert trace.read_text().startswith("phase,survivors,f_hat")

    def test_quality_never_exceeds_opt(self, karate_files):
        g, w = karate_files
        cfg = ExperimentConfig(
            algorithm="dssr", graph=g, weights=w, seeds=tuple(range(4)), budget=1000
        )
        for r in run_experiment(cfg)[0]:
            assert r.quality <= r.opt + 1e-9

    def test_config_replay_reproduces_records(self, tmp_path, lollipop_files):
        g, w = lollipop_files
        cfg = ExperimentConfig(
            algorithm="dssr", graph=g, weights=w, seeds=(0, 5), budget=80
        )
        first, _ = run_experiment(cfg)
        path = tmp_path / "replay.cfg"
        path.write_text(f"algorithm=dssr\ngraph={g}\nweights={w}\nseeds=0,5\nbudget=80\n")
        second, _ = run_experiment(config_from_file(path))
        norm = lambda rs: [dataclasses.replace(r, elapsed_ms=0.0) for r in rs]
        assert norm(first) == norm(second)

    def test_all_seeds_failing_writes_errors_log(self, tmp_path, karate_files):
        g, w = karate_files
        out = tmp_path / "out"
        # budget 100 passes validation but sits below the n=34 schedule
        # overhead of 630, so every seed fails at run time
        cfg = ExperimentConfig(
            algorithm="dssr", graph=g, weights=w, seeds=(0, 1, 2), budget=100, out=str(out)
        )
        recs, errors = run_experiment(cfg)
        assert recs == []
        log = (out / "errors.log").read_text()
        assert log.strip().splitlines() == errors and len(errors) == 3
        assert "seed 0" in log and "ValueError" in log

    def test_r_oracle_budget_column_is_total_queries(self, lollipop_files):
        g, w = lollipop_files
        cfg = ExperimentConfig(
            algorithm="r-oracle", graph=g, weights=w, seeds=(0,), noise="none"
        )
        (rec,), _ = run_experiment(cfg)
        assert rec.budget == rec.total_queries == rec.single_edge_queries == 44
        assert rec.quality == rec.opt

    def test_naive_default_budget_resolution(self, lollipop_files):
        g, w = lollipop_files
        cfg = ExperimentConfig(
            algorithm="naive", graph=g, weights=w, seeds=(0,), k=3, noise="none"
        )
        (rec,), _ = run_experiment(cfg)
        assert rec.budget == 4 + 10000


class TestCli:
    def test_gen_weights_then_exact(self, tmp_path, capsys):
        wfile = tmp_path / "w.txt"
        assert main(["gen-weights", "--graph", data_path("karate.txt"),
                     "--seed", "0", "--out", str(wfile)]) == 0
        assert wfile.is_file()
        G = load_edge_list(data_path("karate.txt"))
        assert len(wfile.read_text().strip().splitlines()) == G.m
        assert main(["exact", "--graph", data_path("karate.txt"),
                     "--weights", str(wfile)]) == 0
        out = capsys.readouterr().out
        assert "subset (" in out and "density:" in out and "algo=exact" in out
        nested = tmp_path / "new" / "w.txt"  # a missing directory is created
        assert main(["gen-weights", "--graph", data_path("karate.txt"),
                     "--seed", "0", "--out", str(nested)]) == 0
        assert nested.read_text() == wfile.read_text()
        digest = hashlib.sha256(wfile.read_bytes()).hexdigest()
        assert digest == "b0b5698c459ce549078b6a8a8206bf4ddb4a048780816d988cb822357a146411"
        assert not list(tmp_path.rglob("*.tmp"))

    def test_brute_and_g_oracle_tie_rules_on_lollipop(self, lollipop_files, capsys):
        # uniform weights tie the triangle with the full set at density 3:
        # brute prefers the smaller set, greedy keeps the earliest prefix
        g, w = lollipop_files
        assert main(["brute", "--graph", g, "--weights", w]) == 0
        brute_out = capsys.readouterr().out
        assert main(["g-oracle", "--graph", g, "--weights", w]) == 0
        greedy_out = capsys.readouterr().out
        assert "subset (3 vertices): 0 1 2" in brute_out
        assert "subset (4 vertices): 0 1 2 3" in greedy_out
        assert "density: 3.0" in brute_out and "density: 3.0" in greedy_out

    def test_dssr_run_writes_results(self, tmp_path, lollipop_files, capsys):
        g, w = lollipop_files
        out = tmp_path / "res"
        code = main(["dssr", "--graph", g, "--weights", w, "--seeds", "0:3",
                     "--budget", "60", "--noise", "none", "--out", str(out)])
        assert code == 0
        assert (out / "results.csv").is_file()
        text = capsys.readouterr().out
        assert "algo=dssr" in text and "seeds=3" in text

    def test_dslin_capped_run(self, lollipop_files, capsys):
        g, w = lollipop_files
        code = main(["dslin", "--graph", g, "--weights", w, "--seeds", "0",
                     "--k", "3", "--max-iters", "50", "--R", "1.0"])
        assert code == 0
        assert "algo=dslin" in capsys.readouterr().out

    def test_report_aggregates(self, tmp_path, lollipop_files, capsys):
        g, w = lollipop_files
        out = tmp_path / "res"
        main(["dssr", "--graph", g, "--weights", w, "--seeds", "0:2",
              "--budget", "60", "--noise", "none", "--out", str(out)])
        capsys.readouterr()
        agg = tmp_path / "agg.csv"
        code = main(["report", str(out / "results.csv"), "--out", str(agg)])
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0].startswith("algo,graph,runs,mean_quality")
        row = lines[1].split(",")
        assert row[0] == "dssr" and row[2] == "2"
        frac = float(row[8])
        recs = read_results(out / "results.csv")
        assert frac == pytest.approx(
            sum(r.single_edge_queries for r in recs) / sum(r.total_queries for r in recs)
        )
        assert agg.read_text().strip().splitlines() == lines

    def test_interrupted_report_leaves_the_earlier_file(self, tmp_path, lollipop_files, monkeypatch):
        g, w = lollipop_files
        out = tmp_path / "res"
        main(["dssr", "--graph", g, "--weights", w, "--seeds", "0", "--budget", "60",
              "--noise", "none", "--out", str(out)])
        summary = tmp_path / "summary.csv"
        summary.write_text("earlier summary\n")
        real_write = Path.write_text

        def write_half_then_fail(path, text):
            real_write(path, text[: len(text) // 2])
            raise OSError("disk full")

        monkeypatch.setattr(Path, "write_text", write_half_then_fail)
        assert main(["report", str(out / "results.csv"), "--out", str(summary)]) == 2
        monkeypatch.undo()
        assert summary.read_text() == "earlier summary\n"

    def test_config_file_with_flag_override(self, tmp_path, lollipop_files):
        g, w = lollipop_files
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"algorithm=dssr\ngraph={g}\nweights={w}\nseeds=0\nbudget=80\nnoise=none\n")
        out = tmp_path / "res"
        code = main(["dssr", "--config", str(cfg), "--budget", "60", "--out", str(out)])
        assert code == 0
        recs = read_results(out / "results.csv")
        assert recs[0].budget == 60

    def test_exit_code_1_on_config_errors(self, tmp_path, lollipop_files, capsys):
        g, w = lollipop_files
        assert main(["exact", "--weights", w]) == 1
        assert "config error" in capsys.readouterr().err
        assert main(["exact", "--graph", "/nonexistent.txt", "--weights", w]) == 1
        assert main(["dssr", "--graph", g, "--weights", w, "--budget", "0"]) == 1
        assert main(["dssr", "--graph", g, "--weights", w, "--seeds", "a"]) == 1
        assert "bad seed list 'a'" in capsys.readouterr().err
        assert main(["dssr", "--graph", g, "--weights", w, "--seeds", "1,1"]) == 1
        assert "seed 1 is repeated" in capsys.readouterr().err
        cfg = tmp_path / "run.cfg"
        for line in ("seeds=x", "budget=1e4"):
            cfg.write_text(f"graph={g}\nweights={w}\n{line}\n")
            assert main(["dssr", "--config", str(cfg)]) == 1
            assert f"config error: {cfg}:3: bad {line.split('=')[0]} value" in capsys.readouterr().err
        assert main(["dssr", "--config", str(tmp_path / "missing.cfg")]) == 1
        assert "config file not found" in capsys.readouterr().err
        # the lollipop has 4 vertices, so no arm family has 5-vertex arms
        assert main(["dslin", "--graph", g, "--weights", w, "--k", "5"]) == 1
        assert "config error: need 2 < k <= n" in capsys.readouterr().err

    def test_dslin_on_an_edgeless_graph_is_a_config_error(self, tmp_path, capsys):
        # three self-loops load as n = 3, m = 0: no arm can observe an edge
        g, w = tmp_path / "loops.txt", tmp_path / "empty.txt"
        g.write_text("0 0\n1 1\n2 2\n")
        w.write_text("")
        assert main(["dslin", "--graph", str(g), "--weights", str(w), "--seeds", "0", "--k", "3"]) == 1
        assert "config error: the graph has no edges" in capsys.readouterr().err

    def test_dssr_default_budget_runs_on_a_triangle(self, tmp_path, capsys):
        # n = 3: the overhead is 10, so the default budget must exceed it
        g, w = tmp_path / "tri.txt", tmp_path / "tri_w.txt"
        g.write_text("0 1\n0 2\n1 2\n")
        w.write_text("0 1 1.0\n0 2 2.0\n1 2 3.0\n")
        assert main(["dssr", "--graph", str(g), "--weights", str(w), "--seeds", "0:3"]) == 0
        assert "seeds=3" in capsys.readouterr().out

    def test_exit_code_1_on_bad_flags(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["exact", "--bogus-flag", "1"])
        assert exc.value.code == 1
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", [["--seed", "7"], ["--lam", "100"], ["--budg", "60"]])
    def test_no_seed_alias_and_no_abbreviations(self, lollipop_files, capsys, flag):
        # --seed was a second spelling of --seeds, and argparse would take
        # any unambiguous prefix of a flag; neither is part of the surface
        g, w = lollipop_files
        with pytest.raises(SystemExit) as exc:
            main(["dssr", "--graph", g, "--weights", w, *flag])
        assert exc.value.code == 1
        assert f"config error: unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err

    @pytest.mark.parametrize("argv,message", [
        (["report", "/nonexistent.csv"], "results file not found: /nonexistent.csv"),
        (["gen-weights", "--graph", "/nonexistent.txt", "--out", "w.txt"],
         "graph file not found: /nonexistent.txt"),
    ])
    def test_missing_input_file_is_a_config_error(self, argv, message, tmp_path, monkeypatch, capsys):
        # both used to exit 2 with a FileNotFoundError
        monkeypatch.chdir(tmp_path)
        assert main(argv) == 1
        assert f"config error: {message}" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    def test_exit_code_2_on_runtime_failure(self, karate_files, capsys):
        g, w = karate_files
        code = main(["dssr", "--graph", g, "--weights", w, "--seeds", "0",
                     "--budget", "100"])
        assert code == 2
        err = capsys.readouterr().err
        assert "every seed failed" in err
        assert "seed 0: ValueError" in err
        assert "errors.log" not in err  # nothing is written without --out

    def test_exit_code_3_on_partial_failure(self, tmp_path, lollipop_files, monkeypatch, capsys):
        g, w = lollipop_files
        dssr = ALGORITHMS["dssr"]

        def fail_on_seed_1(config, G, w, family, oracle):
            if oracle.seed == 1:
                raise RuntimeError("planted failure")
            return dssr.run(config, G, w, family, oracle)

        monkeypatch.setitem(ALGORITHMS, "dssr", dataclasses.replace(dssr, run=fail_on_seed_1))
        flags = ["dssr", "--graph", g, "--weights", w, "--seeds", "0:3", "--budget", "60",
                 "--noise", "none"]
        assert main(flags) == 3
        captured = capsys.readouterr()
        assert "seed 1: RuntimeError: planted failure" in captured.err
        assert "seed 0" not in captured.err and "seed 2" not in captured.err
        assert "errors.log" not in captured.err
        assert "seeds=2" in captured.out
        out = tmp_path / "res"
        assert main(flags + ["--out", str(out)]) == 3
        assert str(out / "errors.log") in capsys.readouterr().err
        assert (out / "errors.log").read_text() == "seed 1: RuntimeError: planted failure\n"
        recs = read_results(out / "results.csv")
        assert [r.seed for r in recs] == [0, 2]


# bench-cli's flag surface, pinned: per subcommand, each flag's option
# strings, dest, type and choices, in order
_COMMON_FLAGS = [
    (("--graph",), "graph", None, None),
    (("--weights",), "weights", None, None),
    (("--seeds",), "seeds", None, None),
    (("--out",), "out", None, None),
    (("--config",), "config", None, None),
    (("--noise",), "noise", None, ("gaussian-per-edge", "none")),
    (("--R",), "R", "float", None),
]
FLAG_SURFACE = {
    "gen-weights": [
        (("--graph",), "graph", None, None),
        (("--seed",), "seed", "int", None),
        (("--out",), "out", None, None),
    ],
    "exact": _COMMON_FLAGS,
    "brute": _COMMON_FLAGS,
    "g-oracle": _COMMON_FLAGS,
    "dslin": _COMMON_FLAGS + [
        (("--max-iters",), "max_iters", "int", None),
        (("--epsilon",), "epsilon", "float", None),
        (("--delta",), "delta", "float", None),
        (("--lambda",), "lam", "float", None),
        (("--L",), "L", "float", None),
        (("--stop-mode",), "stop_mode", None, ("conservative", "exact-second-best")),
        (("--k",), "k", "int", None),
        (("--family-seed",), "family_seed", "int", None),
    ],
    "dssr": _COMMON_FLAGS + [(("--budget",), "budget", "int", None)],
    "naive": _COMMON_FLAGS + [
        (("--budget",), "budget", "int", None),
        (("--k",), "k", "int", None),
        (("--family-seed",), "family_seed", "int", None),
    ],
    "r-oracle": _COMMON_FLAGS + [
        (("--gamma",), "gamma", "float", None),
        (("--epsilon",), "epsilon", "float", None),
    ],
    "report": [((), "paths", None, None), (("--out",), "out", None, None)],
}


def test_flag_surface_is_pinned():
    parser = build_parser()
    subs = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    surface = {
        name: [
            (
                tuple(a.option_strings),
                a.dest,
                a.type.__name__ if a.type else None,
                tuple(a.choices) if a.choices else None,
            )
            for a in sub._actions
            if not isinstance(a, argparse._HelpAction)
        ]
        for name, sub in subs.choices.items()
    }
    assert surface == FLAG_SURFACE


def readme_cli_commands() -> list[list[str]]:
    """The arguments of each ``bench-cli`` command in README.md's fenced
    blocks, with backslash continuations joined."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    commands = []
    for block in text.split("```")[1::2]:
        for line in block.replace("\\\n", " ").splitlines():
            if line.lstrip().startswith("bench-cli "):
                commands.append(shlex.split(line, comments=True)[1:])
    return commands


def test_readme_cli_examples_parse():
    # parsed only, not run: a flag the README shows but the parser lacks
    # fails here instead of leaving the docs stale
    commands = readme_cli_commands()
    assert len(commands) >= 5
    for argv in commands:
        try:
            build_parser().parse_args(argv)
        except SystemExit:
            pytest.fail(f"README command does not parse: bench-cli {shlex.join(argv)}")


# SHA-256 over each batch's output files (name and content, in name order),
# with the elapsed_ms column cut from results.csv; pinned from the
# hand-dispatched harness the registry replaced, except dslin, whose trace's
# c_t column was re-recorded when R' became sqrt(max_a |F_a|) * R
BATCH_DIGESTS = {
    "dssr": (["--seeds", "0:3", "--budget", "1000"],
             "22c010c1716fac59dd1bb5fe27263bfec8d73d3bb6faa29ff36f9c28acfd482e"),
    "dslin": (["--seeds", "0:2", "--k", "10", "--lambda", "100", "--max-iters", "300"],
              "42cf380e2d7b4b96e2c71abd59d16432854827fb607580e6a781e14c82271547"),
    "naive": (["--seeds", "0:2", "--k", "10", "--budget", "500"],
              "c5b2472e524a678a32b11e1faa9b76f22145383134918af837ce0f5baa08c8d7"),
    "r-oracle": (["--seeds", "0:2"],
                 "3dd7c983516665806af4d0b86a69ff6eafcd061bc48b7a072490e353e04d2778"),
}


@pytest.mark.parametrize("algo", sorted(BATCH_DIGESTS))
def test_seeded_batch_outputs_are_pinned(algo, tmp_path, karate_files):
    g, w = karate_files
    flags, expected = BATCH_DIGESTS[algo]
    out = tmp_path / algo
    assert main([algo, "--graph", g, "--weights", w, "--out", str(out), *flags]) == 0
    h = hashlib.sha256()
    for path in sorted(out.iterdir()):
        text = path.read_text()
        if path.name == "results.csv":
            text = "\n".join(",".join(ln.split(",")[:-1]) for ln in text.splitlines())
        h.update(path.name.encode() + b"\0" + text.encode() + b"\0")
    assert h.hexdigest() == expected
