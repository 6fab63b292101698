"""Validation nodes in the experiment DAG (``experiments --check``)."""

import pytest

from repro.check.lint import PlanIssue
from repro.exec.dag import TaskError
from repro.exec.grid import (
    baseline_point, build_tasks, dynamic_point, run_points, selector_point,
)
from repro.harness.runner import Runner
from repro.minigraph.selectors import SlackProfileSelector, StructAll


def _points():
    return [baseline_point("crc32", "reduced"),
            selector_point("crc32", StructAll(), "reduced"),
            selector_point("crc32", SlackProfileSelector(), "reduced"),
            dynamic_point("crc32", "reduced")]


def test_build_tasks_without_check_has_no_check_stage():
    tasks = build_tasks(_points(), Runner())
    assert not [t for t in tasks if t.stage == "check"]


def test_build_tasks_adds_check_nodes():
    tasks = build_tasks(_points(), Runner(), check=True)
    checks = [t for t in tasks if t.stage == "check"]
    # struct-all + slack-profile, plus the slack-dynamic point's pool
    # plan; baselines have no plan to validate.
    assert len(checks) == 3
    by_id = {t.id: t for t in tasks}
    for task in checks:
        # Deterministic: a divergence cannot heal on retry.
        assert task.retries == 0
        # A check computes its own trace and plan: it waits only for the
        # profile its plan reads, if the selector needs one.
        stages = [by_id[dep].stage for dep in task.deps]
        assert stages == (["profile"] if "/slack-profile" in task.id
                          else []), task.id


def test_check_nodes_dedup_with_dynamic_points():
    # A slack-dynamic point folds the same struct-all-pool plan as its
    # static selector point — one check node covers both.
    points = [selector_point("crc32", {"kind": "slack-dynamic"}, "reduced"),
              dynamic_point("crc32", "reduced")]
    tasks = build_tasks(points, Runner(), check=True)
    assert len([t for t in tasks if t.stage == "check"]) == 1


def test_run_points_with_check_passes():
    runner = Runner()
    report = run_points(runner, _points(), jobs=1, check=True,
                        raise_on_failure=True)
    assert not report.failures
    done_checks = {task_id: result for task_id, result
                   in report.results.items()
                   if task_id.startswith("check/")}
    assert len(done_checks) == 3
    for result in done_checks.values():
        assert result["records"] > 0
    # On the now-warm store every stored node is pruned, but check
    # nodes, which store nothing, are all scheduled again.
    again = run_points(runner, _points(), jobs=1, check=True,
                       raise_on_failure=True)
    assert set(again.results) == set(done_checks)
    assert len(again.pruned) == len(report.results) - len(done_checks)


def test_run_points_check_catches_bad_plan(monkeypatch):
    def bad_lint(program, plan, **kwargs):
        return [PlanIssue(0, "injected", "deliberately broken for test")]

    monkeypatch.setattr("repro.exec.tasks.lint_plan", bad_lint,
                        raising=False)
    monkeypatch.setattr("repro.check.lint.lint_plan", bad_lint)
    with pytest.raises(TaskError) as exc:
        run_points(Runner(), _points(), jobs=1, check=True,
                   raise_on_failure=True)
    assert "injected" in str(exc.value)
    assert "check/" in str(exc.value)
