"""Per-suite report breakdowns."""

import pytest

from repro.analysis.report import SuiteRow, compare_selectors_by_suite, \
    suite_report
from repro.harness import Runner
from repro.minigraph import StructAll


@pytest.fixture(scope="module")
def shared_runner():
    return Runner()


@pytest.fixture(scope="module")
def report(shared_runner):
    return suite_report(shared_runner, StructAll(),
                        suites=["comm", "media"], limit_per_suite=2)


def test_rows_per_suite_plus_total(report):
    suites = [row.suite for row in report.rows]
    assert suites == ["comm", "media", "ALL"]
    for row in report.rows[:-1]:
        assert row.n == 2
    assert report.rows[-1].n == 4


def test_total_is_weighted_mean(report):
    parts = report.rows[:-1]
    total = report.rows[-1]
    expected = sum(r.selector_rel * r.n for r in parts) / total.n
    assert abs(total.selector_rel - expected) < 1e-9


def test_values_in_range(report):
    for row in report.rows:
        assert 0 < row.no_mg_rel <= 1.5
        assert 0 < row.selector_rel <= 2.0
        assert 0 <= row.coverage <= 1.0
        assert row.mg_serialized_rate >= 0.0


def test_recovered_semantics():
    full_recovery = SuiteRow("x", 1, no_mg_rel=0.8, selector_rel=1.0,
                             coverage=0.5, mg_serialized_rate=0.0)
    assert abs(full_recovery.recovered - 1.0) < 1e-9
    none = SuiteRow("x", 1, 0.8, 0.8, 0.5, 0.0)
    assert none.recovered == 0.0
    no_loss = SuiteRow("x", 1, 1.0, 1.01, 0.5, 0.0)
    assert no_loss.recovered == 1.0


def test_render(report):
    text = report.render()
    assert "struct-all" in text
    assert "ALL" in text
    assert "recovered" in text


def test_compare_selectors(shared_runner):
    text = compare_selectors_by_suite(shared_runner, suites=["comm"],
                                      limit_per_suite=2)
    assert "struct-all" in text and "slack-profile" in text
    assert "awareness gain" in text


def test_cli_report(capsys):
    from repro.__main__ import main
    assert main(["report", "--selector", "struct-all",
                 "--limit-per-suite", "1"]) == 0
    out = capsys.readouterr().out
    assert "per-suite breakdown" in out


def test_empty_suite_selection_has_no_total(shared_runner):
    report = suite_report(shared_runner, StructAll(), suites=[],
                          limit_per_suite=1)
    assert report.rows == []
    assert "per-suite breakdown" in report.render()


def test_recovered_is_capped():
    runaway = SuiteRow("x", 1, no_mg_rel=0.99, selector_rel=2.0,
                       coverage=0.5, mg_serialized_rate=0.0)
    assert runaway.recovered == 9.99


def test_render_row_alignment(report):
    lines = report.render().splitlines()
    body = lines[2:]
    assert len(body) == len(report.rows)
    # Every row renders its suite name and five numeric columns.
    for line, row in zip(body, report.rows):
        assert row.suite in line
        assert line.count("%") == 3  # recovered, coverage, serialized


def test_default_selector_is_slack_profile(shared_runner):
    report = suite_report(shared_runner, suites=["comm"],
                          limit_per_suite=1)
    assert report.selector == "slack-profile"


def test_limit_per_suite_bounds_population(shared_runner):
    report = suite_report(shared_runner, StructAll(), suites=["comm"],
                          limit_per_suite=1)
    assert [row.n for row in report.rows] == [1, 1]  # comm + ALL


def test_compare_covers_all_suites_in_selection(shared_runner):
    text = compare_selectors_by_suite(shared_runner,
                                      suites=["comm", "media"],
                                      limit_per_suite=1)
    lines = text.splitlines()
    assert lines[0].lstrip().startswith("suite")
    suites = [line.split()[0] for line in lines[1:]]
    assert suites == ["comm", "media", "ALL"]
    for line in lines[1:]:
        assert line.split()[3].startswith(("+", "-"))  # signed gain column
