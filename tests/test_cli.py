"""Command-line interface."""

import json

import pytest

from repro.analysis.reachability import average_reachability, worst_reachability
from repro.cli import build_parser, main
from repro.routing.registry import make_algorithm
from repro.topology.presets import baseline_4_chiplets


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_rejects_unknown_algorithm(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["simulate", "--algo", "bogus"])

    def test_experiment_choices(self):
        args = build_parser().parse_args(["experiment", "table1"])
        assert args.name == "table1"


class TestFaultSpecParsing:
    """Regression: the fault-spec grammar must validate, not coerce."""

    def test_bare_vl_defaults_to_down(self):
        args = build_parser().parse_args(["simulate", "--fault", "3"])
        assert args.fault == [(3, "down")]

    def test_explicit_directions(self):
        args = build_parser().parse_args(
            ["simulate", "--fault", "3:down", "--fault", "5:UP"]
        )
        assert args.fault == [(3, "down"), (5, "up")]

    def test_misspelled_direction_is_an_error_not_down(self, capsys):
        """`--fault 3:upp` used to silently inject a *down* fault."""
        with pytest.raises(SystemExit):
            build_parser().parse_args(["simulate", "--fault", "3:upp"])
        assert "fault direction must be 'down' or 'up'" in capsys.readouterr().err

    def test_empty_direction_is_an_error(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["campaign", "--fault", "3:"])
        assert "fault direction" in capsys.readouterr().err

    def test_non_integer_vl_is_an_error_not_a_traceback(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["deadlock", "--fault", "abc"])
        assert "must be an integer" in capsys.readouterr().err

    def test_negative_vl_is_an_error(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["simulate", "--fault=-3:down"])
        assert "must be >= 0" in capsys.readouterr().err


class TestCommands:
    def test_info(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "baseline-4-chiplets" in out
        assert "deft" in out

    def test_area(self, capsys):
        assert main(["area"]) == 0
        out = capsys.readouterr().out
        assert "DeFT" in out
        assert "[PASS]" in out

    def test_reachability(self, capsys):
        assert main(["reachability", "--algo", "rc", "--max-faults", "2"]) == 0
        out = capsys.readouterr().out
        assert "1 faulty VLs" in out

    @pytest.mark.parametrize("algo", ["deft", "mtr", "rc"])
    def test_reachability_lines_match_per_k_functions(self, capsys, algo):
        system = baseline_4_chiplets()
        algorithm = make_algorithm(algo, system)
        expected = [f"{algo} on {system.spec.name}:"] + [
            f"  {k} faulty VLs: "
            f"average {average_reachability(system, algorithm, k) * 100:6.2f}%  "
            f"worst {worst_reachability(system, algorithm, k) * 100:6.2f}%"
            for k in (1, 2, 3)
        ]
        assert main(["reachability", "--algo", algo, "--max-faults", "3"]) == 0
        assert capsys.readouterr().out.splitlines() == expected

    def test_optimize_prints_map(self, capsys):
        assert main(["optimize", "--faulty", "1"]) == 0
        out = capsys.readouterr().out
        assert "faulty down VLs [1]" in out
        assert "*" in out

    def test_simulate_small(self, capsys):
        code = main([
            "simulate", "--rate", "0.004", "--warmup", "50",
            "--cycles", "200", "--drain", "3000", "--json",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "algorithm=DeFT" in out
        payload = json.loads(out[out.index("{"):])
        assert payload["average_latency"] > 0

    def test_simulate_with_fault(self, capsys):
        code = main([
            "simulate", "--algo", "rc", "--rate", "0.004", "--warmup", "50",
            "--cycles", "200", "--drain", "3000", "--fault", "0:down",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "dropped" in out

    def test_sweep(self, capsys):
        code = main([
            "sweep", "--algo", "deft", "--rates", "0.002,0.004",
            "--warmup", "50", "--cycles", "150", "--drain", "2000",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "0.0020" in out and "0.0040" in out

    def test_experiment_table1(self, capsys):
        assert main(["experiment", "table1"]) == 0
        out = capsys.readouterr().out
        assert "Table I" in out

    def test_custom_grid_system(self, capsys):
        assert main(["reachability", "--system", "2x1", "--max-faults", "1"]) == 0


class TestCampaignCommand:
    ARGS = [
        "campaign", "--algo", "deft", "rc", "--rates", "0.002,0.004",
        "--warmup", "50", "--cycles", "150", "--drain", "2000",
    ]

    def test_cold_then_warm_cache(self, capsys, tmp_path):
        cache_dir = str(tmp_path / "cache")
        assert main(self.ARGS + ["--cache-dir", cache_dir]) == 0
        cold = capsys.readouterr().out
        assert "0 cached" in cold and "4 executed" in cold
        assert main(self.ARGS + ["--cache-dir", cache_dir]) == 0
        warm = capsys.readouterr().out
        assert "4 cached" in warm and "0 executed" in warm
        # Cached and executed runs report identical latency tables.
        table = lambda text: [l for l in text.splitlines() if l.startswith("0.00")]
        assert table(warm) == table(cold)

    def test_no_cache_leaves_directory_untouched(self, capsys, tmp_path):
        cache_dir = tmp_path / "cache"
        assert main(
            self.ARGS + ["--cache-dir", str(cache_dir), "--no-cache", "--quiet"]
        ) == 0
        assert not cache_dir.exists()

    def test_json_dump(self, capsys, tmp_path):
        out_path = tmp_path / "campaign.json"
        assert main(
            self.ARGS + ["--no-cache", "--quiet", "--json", str(out_path)]
        ) == 0
        payload = json.loads(out_path.read_text())
        assert len(payload["jobs"]) == len(payload["results"]) == 4
        assert payload["results"][0]["ok"]

    def test_json_with_failed_job_is_strict(self, capsys, tmp_path):
        """NaN metrics of failed jobs serialize as null, not bare NaN."""
        out_path = tmp_path / "campaign.json"
        code = main(
            self.ARGS
            + ["--no-cache", "--quiet", "--fault", "999:down",
               "--json", str(out_path)]
        )
        assert code == 1
        text = out_path.read_text()
        payload = json.loads(text, parse_constant=lambda c: pytest.fail(
            f"non-strict JSON constant {c!r} in artifact"
        ))
        assert not payload["results"][0]["ok"]
        assert payload["results"][0]["average_latency"] is None

    def test_fault_flag_propagates(self, capsys, tmp_path):
        out_path = tmp_path / "campaign.json"
        assert main(
            self.ARGS
            + ["--no-cache", "--quiet", "--fault", "0:down",
               "--json", str(out_path)]
        ) == 0
        payload = json.loads(out_path.read_text())
        assert payload["jobs"][0]["faults"] == [[0, "down"]]

    def test_workers_flag(self, capsys, tmp_path):
        assert main(
            self.ARGS + ["--no-cache", "--quiet", "--workers", "2"]
        ) == 0
        out = capsys.readouterr().out
        assert "4 executed" in out


class TestMonteCarloCommand:
    ARGS = ["montecarlo", "--algo", "rc", "--k", "1,2", "--samples", "10",
            "--seed", "0", "--quiet"]

    def test_reachability_output_and_json(self, capsys, tmp_path):
        out_path = tmp_path / "mc.json"
        code = main(self.ARGS + ["--no-cache", "--json", str(out_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "Monte Carlo reachability" in out
        assert "rc k=1" in out and "rc k=2" in out
        payload = json.loads(out_path.read_text())
        assert len(payload["points"]) == 2
        point = payload["points"][0]
        assert point["completed"] == 10
        assert point["ci"][0] <= point["mean"] <= point["ci"][1]

    def test_second_run_served_from_cache(self, capsys, tmp_path):
        cache_dir = str(tmp_path / "cache")
        assert main(self.ARGS + ["--cache-dir", cache_dir]) == 0
        cold = capsys.readouterr().out
        assert "20 executed" in cold
        assert main(self.ARGS + ["--cache-dir", cache_dir]) == 0
        warm = capsys.readouterr().out
        assert "20 cached, 0 executed" in warm
        table = lambda text: [l for l in text.splitlines() if "rc k=" in l]
        assert table(warm) == table(cold)

    def test_json_points_carry_only_uniform_fields(self, tmp_path):
        out_path = tmp_path / "mc.json"
        assert main(self.ARGS + ["--no-cache", "--json", str(out_path)]) == 0
        payload = json.loads(out_path.read_text())
        assert "sampler" not in payload
        assert set(payload["points"][0]) == {
            "algorithm", "k", "requested", "completed", "failed", "dropped",
            "mean", "std", "worst", "ci",
        }

    @pytest.mark.parametrize("sampler", ["stratified", "uniform"])
    def test_sampler_flag_is_gone(self, capsys, sampler):
        with pytest.raises(SystemExit) as exit_info:
            main(self.ARGS + ["--no-cache", "--sampler", sampler])
        assert exit_info.value.code == 2
        assert "--sampler" in capsys.readouterr().err

    def test_latency_metric(self, capsys):
        code = main([
            "montecarlo", "--algo", "deft", "--k", "1", "--samples", "3",
            "--metric", "latency", "--rate", "0.004", "--warmup", "50",
            "--cycles", "150", "--drain", "2000", "--no-cache", "--quiet",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "average packet latency" in out
        assert "pooled delivery" in out


class TestCacheCommand:
    def _populate(self, tmp_path):
        from repro.config import SimulationConfig
        from repro.runner import Job, ResultCache, SystemRef, TrafficSpec, execute_job

        cache = ResultCache(tmp_path)
        job = Job.make(
            SystemRef.baseline4(), "rc",
            TrafficSpec.make("uniform", rate=0.004),
            SimulationConfig(warmup_cycles=30, measure_cycles=100,
                             drain_cycles=1_200),
        )
        cache.put(job, execute_job(job))
        return cache

    def test_stats_and_prune(self, capsys, tmp_path):
        cache = self._populate(tmp_path)
        (tmp_path / "ab").mkdir(exist_ok=True)
        (tmp_path / "ab" / "tmpdead.tmp").write_text("partial")
        assert main(["cache", "stats", "--cache-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "1 cached result(s)" in out and "1 orphaned tmp" in out
        assert main(["cache", "prune", "--cache-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "pruned" in out
        assert len(cache) == 1  # servable entry kept
        assert not list(tmp_path.glob("*/*.tmp"))

    def test_prune_all_empties_the_cache(self, capsys, tmp_path):
        cache = self._populate(tmp_path)
        assert main(["cache", "prune", "--all", "--cache-dir", str(tmp_path)]) == 0
        assert len(cache) == 0

    def test_stats_on_missing_directory(self, capsys, tmp_path):
        assert main(["cache", "stats", "--cache-dir", str(tmp_path / "nope")]) == 0
        assert "0 cached result(s)" in capsys.readouterr().out


class TestExperimentRunnerFlags:
    def test_experiment_with_workers_and_cache(self, capsys, tmp_path, monkeypatch):
        cache_dir = str(tmp_path / "cache")
        args = ["experiment", "fig5", "--scale", "0.05",
                "--workers", "2", "--cache-dir", cache_dir]
        main(args)  # shape checks may fail at this tiny scale; only plumbing matters
        out = capsys.readouterr().out
        assert "VC utilization" in out
        # Second invocation hits the cache and reproduces the same table.
        main(args)
        out2 = capsys.readouterr().out
        assert out2.splitlines()[1:6] == out.splitlines()[1:6]
