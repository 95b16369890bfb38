"""The runtime checker: modes, the runner wrapper, executor integration.

The central promises under test: a clean model run trips nothing in any
mode; a violation follows the configured policy (raise / warn / collect)
exactly; checking composes with the observability layer instead of
fighting it; and the executor's run cache never hands an *unchecked*
record to a *checked* session (the check mode is part of the cache key).
"""

from __future__ import annotations

import pytest

from repro import obs
from repro.api import compare_configs
from repro.checks.checker import (
    CheckingRunner,
    CheckMode,
    InvariantViolation,
    check_mode_from_env,
)
from repro.checks.invariants import Scope, Violation, invariant, unregister
from repro.core.configs import ConfigName, make_config
from repro.core.executor import SweepCell, SweepExecutor, executor_from_env
from repro.core.runner import ExperimentRunner
from repro.workloads.registry import FROM_GB


# -- mode parsing -------------------------------------------------------------


def test_check_mode_parse():
    assert CheckMode.parse("warn") is CheckMode.WARN
    assert CheckMode.parse("RAISE") is CheckMode.RAISE
    assert CheckMode.parse(CheckMode.WARN) is CheckMode.WARN
    with pytest.raises(ValueError, match="unknown check mode"):
        CheckMode.parse("loud")


@pytest.mark.parametrize(
    "raw, expected",
    [
        (None, None),
        ("", None),
        ("0", None),
        ("off", None),
        ("warn", "warn"),
        ("raise", "raise"),
        ("1", "raise"),
        ("yes", "raise"),
    ],
)
def test_check_mode_from_env(raw, expected):
    env = {} if raw is None else {"REPRO_CHECK": raw}
    assert check_mode_from_env(env) == expected


# -- clean paper runs ---------------------------------------------------------


def test_paper_trio_runs_clean_for_every_workload():
    runner = CheckingRunner(mode="raise")
    for name in sorted(FROM_GB):
        records = compare_configs(FROM_GB[name](1.0), runner=runner)
        assert len(records) == 3
    assert runner.runs_checked == 3 * len(FROM_GB)
    assert runner.violation_count == 0
    assert runner.invariants_evaluated > 0


def test_checking_runner_returns_the_same_record():
    workload = FROM_GB["minife"](1.0)
    plain = ExperimentRunner().run(workload, ConfigName.HBM, 64)
    checked = CheckingRunner(mode="raise").run(workload, ConfigName.HBM, 64)
    assert checked.metric == plain.metric
    assert checked.config is plain.config


# -- violation policies -------------------------------------------------------


@pytest.fixture()
def failing_invariant():
    """Temporarily register a run-scope invariant that always fires."""
    name = "always-fails-for-test"

    @invariant(
        name,
        scope=Scope.RUN,
        description="unconditional failure for policy tests",
        paper_ref="tests only",
    )
    def _always_fails(ctx):
        return [Violation(name, ctx.subject(), "deliberate")]

    yield name
    unregister(name)


def test_raise_mode_throws_with_violation_details(failing_invariant):
    runner = CheckingRunner(mode="raise")
    with pytest.raises(InvariantViolation) as excinfo:
        runner.run(FROM_GB["gups"](1.0), ConfigName.DRAM, 64)
    assert failing_invariant in str(excinfo.value)
    assert any(
        v.invariant == failing_invariant for v in excinfo.value.violations
    )


def test_warn_mode_prints_to_stderr_and_continues(failing_invariant, capsys):
    runner = CheckingRunner(mode="warn")
    record = runner.run(FROM_GB["gups"](1.0), ConfigName.DRAM, 64)
    assert record.metric is not None  # the run itself survived
    err = capsys.readouterr().err
    assert f"[check] [{failing_invariant}]" in err
    assert runner.violation_count == 1


def test_collect_mode_accumulates_without_raising(failing_invariant):
    collected = []
    runner = CheckingRunner(collect=collected)
    runner.run(FROM_GB["gups"](1.0), ConfigName.DRAM, 64)
    runner.run(FROM_GB["gups"](1.0), ConfigName.HBM, 64)
    assert [v.invariant for v in collected] == [failing_invariant] * 2
    assert runner.runs_checked == 2


def test_check_exhibits_reports_every_run_scope_violation(failing_invariant):
    """Every model run of a checked exhibit reaches the report: a
    run-scope invariant that always fires yields exactly one violation
    per distinct cell the exhibit evaluates."""
    from repro.checks.batch import check_exhibits
    from repro.figures import EXHIBITS

    counting = SweepExecutor(ExperimentRunner())
    EXHIBITS["fig2"](counting)
    model_runs = counting.stats().executed
    assert model_runs > 0
    report = check_exhibits(("fig2",))
    fired = [
        v for v in report.checks[0].violations if v.invariant == failing_invariant
    ]
    assert len(fired) == model_runs
    assert not report.ok


def test_check_command_fails_on_a_violation(failing_invariant, capsys):
    from repro.cli import main

    assert main(["check"]) == 1
    assert "FAIL" in capsys.readouterr().out


def test_type_error_inside_an_exhibit_propagates(monkeypatch):
    """A generator that fails only when given the runner must fail the
    check, not be retried without it on the default machine."""
    from repro.checks.batch import check_exhibits
    from repro.figures import EXHIBITS

    def broken(runner=None):
        if runner is not None:
            raise TypeError("broken inside the exhibit")
        return EXHIBITS["table1"]()

    monkeypatch.setitem(EXHIBITS, "fig1", broken)
    with pytest.raises(TypeError, match="broken inside the exhibit"):
        check_exhibits(("fig1",))


# -- observability composition ------------------------------------------------


def test_checks_emit_counters_into_an_active_session():
    with obs.observe() as session:
        CheckingRunner(mode="raise").run(FROM_GB["gups"](1.0), ConfigName.CACHE, 64)
    assert session.metrics.counter_value("checks.evaluated") > 0
    assert session.metrics.counter_value("checks.violations") == 0
    # The model's own stream was captured by the same session.
    assert session.metrics.counter_value("model.runs") > 0


def test_checking_works_without_a_session():
    # No observation session installed: the window installs (and removes)
    # a private registry; nothing leaks into a later session.
    CheckingRunner(mode="raise").run(FROM_GB["gups"](1.0), ConfigName.CACHE, 64)
    with obs.observe() as session:
        pass
    assert session.metrics.counter_value("checks.evaluated") == 0


# -- executor integration -----------------------------------------------------


def test_executor_check_flag_wraps_runner():
    executor = SweepExecutor(ExperimentRunner(), check="raise")
    assert isinstance(executor.checking, CheckingRunner)
    assert executor.checking.mode is CheckMode.RAISE
    record = executor.run(FROM_GB["gups"](1.0), ConfigName.DRAM, 64)
    assert record.metric is not None
    assert executor.checking.runs_checked == 1


def test_executor_does_not_double_wrap_a_checking_runner():
    runner = CheckingRunner(mode="warn")
    executor = SweepExecutor(runner, check="raise")
    assert executor.checking is runner


def test_unchecked_executor_has_no_checking():
    assert SweepExecutor(ExperimentRunner()).checking is None


def test_check_mode_is_part_of_the_cache_key():
    cell = SweepCell(FROM_GB["gups"](1.0), make_config(ConfigName.DRAM), 64)
    plain = SweepExecutor(ExperimentRunner())
    raising = SweepExecutor(ExperimentRunner(), check="raise")
    warning = SweepExecutor(ExperimentRunner(), check="warn")
    keys = {
        plain.cache_key(cell),
        raising.cache_key(cell),
        warning.cache_key(cell),
    }
    assert len(keys) == 3


def test_checked_session_never_reuses_unchecked_disk_cache(tmp_path):
    workload = FROM_GB["gups"](1.0)
    unchecked = SweepExecutor(ExperimentRunner(), cache_dir=tmp_path)
    unchecked.run(workload, ConfigName.DRAM, 64)
    assert unchecked.stats().executed == 1
    # Same disk cache, unchecked again: served from disk.
    again = SweepExecutor(ExperimentRunner(), cache_dir=tmp_path)
    again.run(workload, ConfigName.DRAM, 64)
    assert again.stats().executed == 0
    # Same disk cache, checking on: the unchecked record must not satisfy
    # the lookup — the cell re-executes under audit.
    checked = SweepExecutor(ExperimentRunner(), cache_dir=tmp_path, check="raise")
    checked.run(workload, ConfigName.DRAM, 64)
    assert checked.stats().executed == 1
    assert checked.checking.runs_checked == 1
    # And the checked record now persists under its own key.
    warm = SweepExecutor(ExperimentRunner(), cache_dir=tmp_path, check="raise")
    warm.run(workload, ConfigName.DRAM, 64)
    assert warm.stats().executed == 0


def test_executor_from_env_reads_repro_check():
    executor = executor_from_env(
        ExperimentRunner(), {"REPRO_CHECK": "warn"}
    )
    assert isinstance(executor, SweepExecutor)
    assert executor.checking is not None
    assert executor.checking.mode is CheckMode.WARN
    plain = executor_from_env(ExperimentRunner(), {})
    assert isinstance(plain, ExperimentRunner)
