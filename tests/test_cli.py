"""CLI tests."""

import json

import pytest

from repro.cli import main


class TestCLI:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig2" in out and "table1" in out

    def test_describe(self, capsys):
        assert main(["describe"]) == 0
        assert "Xeon Phi" in capsys.readouterr().out

    def test_table1(self, capsys):
        assert main(["table1"]) == 0
        assert "XSBench" in capsys.readouterr().out

    def test_fig3(self, capsys):
        assert main(["fig3"]) == 0
        out = capsys.readouterr().out
        assert "Gap (%)" in out

    def test_advisor(self, capsys):
        assert main(["advisor", "minife", "--size-gb", "7.2"]) == 0
        out = capsys.readouterr().out
        assert "use HBM" in out

    def test_advisor_xsbench_threads(self, capsys):
        assert main(
            ["advisor", "xsbench", "--size-gb", "11.3", "--threads", "256"]
        ) == 0
        assert "use HBM" in capsys.readouterr().out

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            main(["fig99"])


class TestCLIExtensions:
    def test_fig1(self, capsys):
        from repro.cli import main as cli_main

        assert cli_main(["fig1"]) == 0
        assert "[L2 1MB]" in capsys.readouterr().out

    def test_decompose(self, capsys):
        from repro.cli import main as cli_main

        assert cli_main(
            ["decompose", "minife", "--total-gb", "96", "--nodes", "4", "8"]
        ) == 0
        out = capsys.readouterr().out
        assert "8 nodes" in out
        assert "HBM" in out

    def test_energy(self, capsys):
        from repro.cli import main as cli_main

        assert cli_main(["energy", "minife", "--size-gb", "7.2"]) == 0
        assert "EDP" in capsys.readouterr().out

    def test_optimize(self, capsys):
        from repro.cli import main as cli_main

        assert cli_main(["optimize", "minife", "--size-gb", "7.2"]) == 0
        out = capsys.readouterr().out
        assert "x-vector -> dram" in out
        assert "stiffness-matrix -> hbm" in out


class TestCLIExecutor:
    def test_cache_dir_populated(self, capsys, tmp_path):
        assert main(["--cache-dir", str(tmp_path), "fig5"]) == 0
        assert "[executor]" in capsys.readouterr().err
        assert list(tmp_path.glob("*.json"))


class TestCLIMachine:
    def test_check_audits_the_named_machine(self, capsys, monkeypatch):
        import repro.checks.batch
        from repro.checks.batch import BatchReport

        seen = []

        def fake_check_exhibits(*, machine=None, cache_dir=None):
            seen.append(machine)
            return BatchReport(())

        monkeypatch.setattr(repro.checks.batch, "check_exhibits", fake_check_exhibits)
        assert main(["--machine", "knl7250", "check"]) == 0
        (machine,) = seen
        assert machine is not None and machine.num_cores == 68

    @pytest.mark.parametrize("command", ["fig2", "all", "check"])
    def test_exhibit_too_large_for_the_machine_exits_2(self, capsys, command):
        assert main(["--machine", "nvmsim", command]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert err == [
            "[repro] fig2 needs 64 threads, but machine nvmsim holds at most 32"
        ]


class TestCLIObservability:
    def test_trace_and_metrics_files_written(self, capsys, tmp_path):
        trace_path = tmp_path / "t.json"
        metrics_path = tmp_path / "m.json"
        args = [
            "--trace-out", str(trace_path),
            "--metrics-out", str(metrics_path),
            "fig5",
        ]
        assert main(args) == 0
        captured = capsys.readouterr()
        assert "[obs]" in captured.err

        trace_doc = json.loads(trace_path.read_text())
        events = trace_doc["traceEvents"]
        assert events[0]["ph"] == "M"  # process-name metadata
        # Dense sweeps go through the columnar batch engine, which emits
        # one aggregate span per miss batch instead of per-point
        # perfmodel.run spans.
        assert any(
            e["ph"] == "X" and e["name"] in ("batch.evaluate", "perfmodel.run")
            for e in events
        )

        metrics_doc = json.loads(metrics_path.read_text())
        assert metrics_doc["counters"]["model.runs"] > 0
        assert metrics_doc["cells"]  # per-cell sweep breakdown
        assert all("wall_ns" in cell for cell in metrics_doc["cells"])

    def test_stdout_identical_with_observability(self, capsys, tmp_path):
        assert main(["fig5"]) == 0
        plain = capsys.readouterr().out
        assert main(["--metrics-out", str(tmp_path / "m.json"), "fig5"]) == 0
        observed = capsys.readouterr()
        assert observed.out == plain

    def test_env_enables_observability(self, capsys, tmp_path, monkeypatch):
        metrics_path = tmp_path / "m.json"
        monkeypatch.setenv("REPRO_TRACE", "1")
        monkeypatch.setenv("REPRO_METRICS_OUT", str(metrics_path))
        assert main(["fig5"]) == 0
        assert "[obs]" in capsys.readouterr().err
        assert json.loads(metrics_path.read_text())["counters"]

    def test_falsy_env_keeps_fast_path(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_TRACE", "0")
        assert main(["table1"]) == 0
        assert "[obs]" not in capsys.readouterr().err

    def test_session_uninstalled_after_run(self, capsys, tmp_path):
        from repro import obs

        assert main(["--metrics-out", str(tmp_path / "m.json"), "table1"]) == 0
        capsys.readouterr()
        assert not obs.enabled()
