"""CLI tests (fast paths only; campaigns use tiny sample counts)."""

import multiprocessing

import pytest

from repro.cli import BENCHMARKS, _parse_variant, build_parser, main
from repro.soc.mpu import MpuVariant


class TestVariantParsing:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("none", MpuVariant()),
            ("parity", MpuVariant(cfg_parity=True)),
            ("dual", MpuVariant(redundancy="dual")),
            ("dual+parity", MpuVariant(redundancy="dual", cfg_parity=True)),
            ("TMR+PARITY", MpuVariant(redundancy="tmr", cfg_parity=True)),
        ],
    )
    def test_variants(self, text, expected):
        assert _parse_variant(text) == expected

    def test_bad_variant(self):
        from repro.errors import SimulationError

        with pytest.raises(SimulationError):
            _parse_variant("pentuple")


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_evaluate_defaults(self):
        args = build_parser().parse_args(["evaluate"])
        assert args.benchmark == "write"
        assert args.sampler == "importance"
        assert args.samples == 1000

    @pytest.mark.parametrize(
        "command",
        [["evaluate"], ["campaign", "run"], ["submit"]],
        ids=["evaluate", "campaign-run", "submit"],
    )
    def test_no_batch_flag_is_gone(self, command):
        """One engine path: the scalar escape hatch is no longer a flag."""
        with pytest.raises(SystemExit):
            build_parser().parse_args(command + ["--no-batch"])

    @pytest.mark.parametrize(
        "argv",
        [
            ["calibrate"],
            ["evaluate", "--engine", "exact"],
            ["campaign", "run", "--fidelity", "single"],
            ["submit", "--calibration", "cal.json"],
            ["conformance", "--surrogate"],
        ],
        ids=["calibrate", "engine", "fidelity", "calibration", "surrogate"],
    )
    def test_surrogate_surface_is_gone(self, argv):
        """The SEU surrogate's command and flags are argparse errors."""
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(argv)
        assert excinfo.value.code == 2

    def test_async_io_flag_is_gone(self):
        """One HTTP server: the asyncio front-end's flag is an argparse
        error."""
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["serve", "--async-io"])
        assert excinfo.value.code == 2

    def test_all_benchmarks_registered(self):
        assert set(BENCHMARKS) == {"write", "read", "dma"}


class TestCampaignParser:
    def test_run_defaults(self):
        args = build_parser().parse_args(["campaign", "run"])
        assert args.stop == "fixed"
        assert args.chunk_size == 50
        assert args.runs_dir == "runs"
        assert args.func.__name__ == "cmd_campaign_run"

    def test_adaptive_flags(self):
        args = build_parser().parse_args(
            [
                "campaign", "run", "--stop", "risk",
                "--epsilon", "0.01", "--delta", "0.1",
                "--max-samples", "5000", "--workers", "4",
            ]
        )
        assert args.stop == "risk"
        assert args.epsilon == 0.01
        assert args.max_samples == 5000

    def test_resume_requires_run_id(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["campaign", "resume"])

    def test_status_run_id_optional(self):
        args = build_parser().parse_args(["campaign", "status"])
        assert args.run_id is None
        assert args.metrics is False

    def test_run_trace_flag(self):
        args = build_parser().parse_args(["campaign", "run", "--trace"])
        assert args.trace is True

    def test_obs_report_args(self):
        args = build_parser().parse_args(
            ["obs", "report", "abc", "--top", "5"]
        )
        assert args.run_id == "abc"
        assert args.top == 5
        assert args.func.__name__ == "cmd_obs_report"

    def test_obs_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["obs"])


class TestServiceParser:
    def test_serve_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.port == 8321
        assert args.jobs == 1
        assert args.func.__name__ == "cmd_serve"

    def test_submit_flags(self):
        args = build_parser().parse_args(
            ["submit", "--stop", "ci", "--priority", "3", "--wait",
             "--url", "http://h:1", "--json"]
        )
        assert args.stop == "ci"
        assert args.priority == 3
        assert args.wait and args.json
        assert args.url == "http://h:1"
        assert args.func.__name__ == "cmd_submit"

    def test_job_verbs_registered(self):
        for verb, func in (
            ("status", "cmd_job_status"),
            ("result", "cmd_job_result"),
            ("cancel", "cmd_job_cancel"),
        ):
            args = build_parser().parse_args([verb, "abc123"])
            assert args.job_id == "abc123"
            assert args.func.__name__ == func

    def test_campaign_json_flags(self):
        assert build_parser().parse_args(
            ["campaign", "run", "--json"]
        ).json is True
        assert build_parser().parse_args(
            ["campaign", "status", "x", "--json"]
        ).json is True
        assert build_parser().parse_args(
            ["campaign", "resume", "x", "--json"]
        ).json is True


class TestCliErrorHandling:
    def test_missing_run_is_clean_error_not_traceback(self, capsys, tmp_path):
        code = main(
            ["campaign", "status", "ghost", "--runs-dir", str(tmp_path)]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "ghost" in err and str(tmp_path) in err

    def test_corrupt_spec_names_the_path(self, capsys, tmp_path):
        from repro.campaign import CampaignSpec, RunStore

        store = RunStore.create(tmp_path, CampaignSpec(), run_id="broken")
        (store.path / "spec.json").write_text("{not json")
        code = main(
            ["campaign", "status", "broken", "--runs-dir", str(tmp_path)]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "spec.json" in err

    def test_surrogate_run_is_an_error_not_a_traceback(
        self, capsys, tmp_path
    ):
        """A run written by the removed surrogate engine cannot be
        inspected or resumed: one ``error:`` line, exit 2.  The listing
        reads only checkpoints, so it still shows the run."""
        import json

        from repro.campaign import CampaignSpec, RunStore

        store = RunStore.create(tmp_path, CampaignSpec(), run_id="old")
        spec = {**CampaignSpec().to_dict(), "engine": "surrogate"}
        (store.path / "spec.json").write_text(json.dumps(spec))
        for verb in ("status", "resume"):
            code = main(
                ["campaign", verb, "old", "--runs-dir", str(tmp_path)]
            )
            assert code == 2
            err = capsys.readouterr().err.strip().splitlines()
            assert len(err) == 1
            assert err[0].startswith("error:")
            assert "surrogate" in err[0] and "spec.json" in err[0]
        assert main(["campaign", "status", "--runs-dir", str(tmp_path)]) == 0
        assert "old" in capsys.readouterr().out

    def test_resume_of_missing_run_is_clean(self, capsys, tmp_path):
        code = main(
            ["campaign", "resume", "ghost", "--runs-dir", str(tmp_path)]
        )
        assert code == 2
        assert "ghost" in capsys.readouterr().err

    def test_missing_charac_cache_is_an_error_not_a_rebuild(
        self, capsys, tmp_path, monkeypatch
    ):
        """An explicit ``--charac-cache`` that does not exist used to
        re-characterize silently (~4-8 s); it is now one ``error:``
        line naming the path, exit 2, before any context build."""
        import repro.core.context as context_module

        def no_build(*args, **kwargs):
            raise AssertionError("context built despite the missing cache")

        monkeypatch.setattr(context_module, "build_context", no_build)
        missing = str(tmp_path / "typo.json")
        for command in (["evaluate"], ["characterize", "--out", "x.json"]):
            code = main(command + ["--charac-cache", missing])
            assert code == 2
            last = capsys.readouterr().err.strip().splitlines()[-1]
            assert last.startswith("error:")
            assert missing in last

    def test_failed_build_leaves_no_run_behind(self, capsys, tmp_path):
        """The runtime is built before the run directory exists, so a
        build that fails leaves no run that reads ``running`` forever."""
        runs = tmp_path / "runs"
        code = main([
            "campaign", "run", "--charac-cache", str(tmp_path / "none.json"),
            "--runs-dir", str(runs), "--run-id", "ghost", "-n", "20",
        ])
        assert code == 2
        assert capsys.readouterr().err.strip().startswith("error:")
        assert not (runs / "ghost").exists()

    def test_unreachable_service_is_clean(self, capsys):
        code = main(
            ["status", "job1", "--url", "http://127.0.0.1:1"]
        )
        assert code == 2
        assert "cannot reach" in capsys.readouterr().err


class TestCampaignJson:
    def _interrupted_store(self, tmp_path):
        from repro.campaign import CampaignSpec, RunStore

        store = RunStore.create(tmp_path, CampaignSpec(), run_id="frozen")
        store.write_checkpoint(
            {"status": "interrupted", "n_samples": 40, "n_success": 10,
             "ssf": 0.25}
        )
        return store

    def test_status_json_single_run(self, capsys, tmp_path):
        import json

        self._interrupted_store(tmp_path)
        code = main(
            ["campaign", "status", "frozen", "--runs-dir", str(tmp_path),
             "--json"]
        )
        # Interrupted runs exit nonzero so scripts notice failures.
        assert code == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["run_id"] == "frozen"
        assert payload["status"] == "interrupted"
        assert payload["n_samples"] == 40
        assert len(payload["spec_hash"]) == 64
        assert payload["spec"]["benchmark"] == "write"

    def test_status_json_listing(self, capsys, tmp_path):
        import json

        self._interrupted_store(tmp_path)
        code = main(
            ["campaign", "status", "--runs-dir", str(tmp_path), "--json"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["runs"][0]["run_id"] == "frozen"

    def test_status_json_empty_dir(self, capsys, tmp_path):
        import json

        code = main(
            ["campaign", "status", "--runs-dir", str(tmp_path), "--json"]
        )
        assert code == 0
        assert json.loads(capsys.readouterr().out) == {"runs": []}


class TestCampaignCommands:
    def test_status_empty_runs_dir(self, capsys, tmp_path):
        code = main(
            ["campaign", "status", "--runs-dir", str(tmp_path / "none")]
        )
        assert code == 0
        assert "no campaign runs" in capsys.readouterr().out

    def _store_with_metrics(self, tmp_path):
        """A finished-looking run directory built without an engine."""
        from repro.campaign import CampaignSpec, RunStore
        from repro.obs import MetricsRegistry, SECONDS_BUCKETS

        store = RunStore.create(tmp_path, CampaignSpec(), run_id="fake")
        registry = MetricsRegistry()
        registry.counter("engine_samples_total").inc(10)
        registry.counter("engine_outcomes_total", category="masked").inc(7)
        registry.counter("engine_outcomes_total", category="needs_rtl").inc(3)
        registry.counter("engine_funnel_total", stage="sampled").inc(10)
        registry.counter("engine_funnel_total", stage="latched").inc(3)
        registry.histogram(
            "engine_stage_seconds", SECONDS_BUCKETS, stage="transient"
        ).observe(0.02)
        registry.gauge("campaign_ssf").set(0.3)
        store.write_metrics(registry)
        return store

    def test_obs_report_renders_from_metrics_file(self, capsys, tmp_path):
        self._store_with_metrics(tmp_path)
        code = main(["obs", "report", "fake", "--runs-dir", str(tmp_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "Stage-time breakdown" in out
        assert "Masking funnel" in out
        assert "transient" in out
        assert "needs_rtl" in out

    def test_obs_report_without_metrics_fails(self, capsys, tmp_path):
        from repro.campaign import CampaignSpec, RunStore

        RunStore.create(tmp_path, CampaignSpec(), run_id="bare")
        code = main(["obs", "report", "bare", "--runs-dir", str(tmp_path)])
        assert code == 1
        assert "no metrics.jsonl" in capsys.readouterr().err

    def test_status_metrics_renders_breakdown(self, capsys, tmp_path):
        self._store_with_metrics(tmp_path)
        code = main(
            ["campaign", "status", "fake", "--runs-dir", str(tmp_path),
             "--metrics"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "Stage-time breakdown" in out
        assert "Outcome categories" in out

    def test_status_metrics_without_export(self, capsys, tmp_path):
        from repro.campaign import CampaignSpec, RunStore

        RunStore.create(tmp_path, CampaignSpec(), run_id="bare")
        code = main(
            ["campaign", "status", "bare", "--runs-dir", str(tmp_path),
             "--metrics"]
        )
        assert code == 0
        assert "no metrics exported" in capsys.readouterr().out

    @pytest.mark.slow
    def test_campaign_run_then_status(self, capsys, tmp_path):
        runs = str(tmp_path / "runs")
        code = main(
            [
                "campaign", "run", "--benchmark", "write",
                "-n", "20", "--window", "5", "--sampler", "random",
                "--chunk-size", "10", "--runs-dir", runs,
                "--run-id", "clitest",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "Campaign" in out
        assert "clitest" in out

        assert main(["campaign", "status", "--runs-dir", runs]) == 0
        listing = capsys.readouterr().out
        assert "clitest" in listing and "complete" in listing

        assert main(
            ["campaign", "status", "clitest", "--runs-dir", runs]
        ) == 0
        detail = capsys.readouterr().out
        assert "complete" in detail
        assert "20" in detail

        # The run exported its merged metrics; both metric surfaces
        # render from that file alone.
        import pathlib

        assert (pathlib.Path(runs) / "clitest" / "metrics.jsonl").exists()
        assert main(
            ["campaign", "status", "clitest", "--runs-dir", runs,
             "--metrics"]
        ) == 0
        assert "Stage-time breakdown" in capsys.readouterr().out

        assert main(["obs", "report", "clitest", "--runs-dir", runs]) == 0
        report = capsys.readouterr().out
        assert "Masking funnel" in report
        assert "slowest samples" in report


class TestCommands:
    def test_info_runs(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "flip-flops" in out

    def test_info_with_variant(self, capsys):
        assert main(["info", "--variant", "tmr+parity"]) == 0
        assert "tmr+parity" in capsys.readouterr().out

    @pytest.mark.slow
    def test_evaluate_small_campaign(self, capsys):
        code = main(
            [
                "evaluate",
                "--benchmark",
                "write",
                "-n",
                "30",
                "--window",
                "5",
                "--sampler",
                "random",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "SSF" in out

    def test_export_verilog(self, capsys, tmp_path):
        out = str(tmp_path / "mpu.v")
        assert main(["export-verilog", "--out", out, "--module", "top"]) == 0
        text = (tmp_path / "mpu.v").read_text()
        assert text.startswith("module top (")
        assert "endmodule" in text

    def test_export_verilog_variant(self, capsys, tmp_path):
        out = str(tmp_path / "mpu_parity.v")
        assert main(["export-verilog", "--variant", "parity", "--out", out]) == 0
        assert "cfg_base0_par" in (tmp_path / "mpu_parity.v").read_text()

    @pytest.mark.slow
    def test_characterize_then_cached_evaluate(self, capsys, tmp_path):
        cache = str(tmp_path / "c.json")
        assert main(["characterize", "--benchmark", "write", "--out", cache]) == 0
        assert main(
            [
                "evaluate",
                "--benchmark",
                "write",
                "-n",
                "20",
                "--window",
                "5",
                "--charac-cache",
                cache,
            ]
        ) == 0

    @pytest.mark.slow
    def test_harden_command(self, capsys):
        assert main(["harden", "-n", "60", "--window", "6"]) == 0
        out = capsys.readouterr().out
        assert "Selective hardening" in out
        assert "area overhead" in out

    @pytest.mark.slow
    def test_enumerate_command(self, capsys):
        assert main(["enumerate", "--window", "4"]) == 0
        out = capsys.readouterr().out
        assert "exact SSF" in out
        assert "cfg_top0" in out

    @pytest.mark.slow
    def test_evaluate_with_variant_and_impact(self, capsys):
        code = main(
            [
                "evaluate", "--variant", "parity", "-n", "25",
                "--window", "4", "--sampler", "cone", "--impact-cycles", "2",
            ]
        )
        assert code == 0
        assert "none+parity" in capsys.readouterr().out


def _table(text: str) -> dict:
    """``quantity | value`` rows of a printed table, as a dict."""
    rows = {}
    for line in text.splitlines():
        if "|" in line:
            key, _, value = line.partition("|")
            rows[key.strip()] = value.strip()
    return rows


@pytest.mark.slow
class TestEvaluatePins:
    """``repro evaluate`` output pinned across the engine refactors.

    One worker evaluates in-process on per-sample streams of
    ``SeedSequence(seed)``; N workers run the campaign scheduler over
    ``ceil(n / 4N)``-sample chunks on spawned chunk streams, so the two
    print different (each reproducible) estimates.
    """

    ARGS = ["evaluate", "--benchmark", "write", "-n", "120", "--window", "8",
            "--seed", "5"]

    @pytest.fixture(scope="class")
    def charac(self, tmp_path_factory):
        path = str(tmp_path_factory.mktemp("charac") / "write.json")
        assert main(["characterize", "--benchmark", "write",
                     "--out", path]) == 0
        return path

    def test_one_worker(self, charac, capsys):
        capsys.readouterr()
        assert main(self.ARGS + ["--charac-cache", charac]) == 0
        rows = _table(capsys.readouterr().out)
        assert rows["SSF"] == "0.01881"
        assert rows["successes"] == "5/120"

    @pytest.mark.skipif(
        "fork" not in multiprocessing.get_all_start_methods(),
        reason="fork start method unavailable",
    )
    def test_two_workers(self, charac, capsys):
        capsys.readouterr()
        assert main(
            self.ARGS + ["--workers", "2", "--charac-cache", charac]
        ) == 0
        rows = _table(capsys.readouterr().out)
        assert rows["SSF"] == "0.03009"
        assert rows["successes"] == "8/120"
        assert rows["sample variance"] == "1.278e-02"
