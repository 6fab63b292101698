"""Experiment drivers (small populations for speed)."""

import pytest

from repro.harness import Runner
from repro.harness.experiments import (
    EXPERIMENTS, fig1, fig3, fig9_inputs, main,
)
from repro.workloads import all_benchmarks


@pytest.fixture(scope="module")
def small_population():
    return all_benchmarks(suites=["comm"])[:4]


@pytest.fixture(scope="module")
def shared_runner():
    return Runner()


def test_fig3_structure(shared_runner, small_population):
    result = fig3(shared_runner, small_population)
    groups = list(result.groups)
    assert any("reduced" in g for g in groups)
    assert any("full" in g for g in groups)
    assert "coverage" in result.groups
    reduced_curves = result.groups[groups[0]]
    labels = [c.label for c in reduced_curves]
    assert labels == ["no-mini-graphs", "struct-all", "struct-none"]
    for curve in reduced_curves:
        assert len(curve) == len(small_population)


def test_fig3_coverage_ordering(shared_runner, small_population):
    """Struct-All coverage dominates Struct-None per program (§3.2)."""
    result = fig3(shared_runner, small_population)
    cov_all = result.curve("coverage", "struct-all")
    cov_none = result.curve("coverage", "struct-none")
    for program in cov_all.by_program:
        assert cov_all.by_program[program] >= \
            cov_none.by_program[program] - 1e-9


def test_fig1_notes(shared_runner, small_population):
    result = fig1(shared_runner, small_population)
    assert any("slack-profile" in n for n in result.notes)
    rendered = result.render()
    assert "FIG1" in rendered


def test_fig9_inputs_structure(shared_runner, small_population):
    result = fig9_inputs(shared_runner, small_population)
    curves = next(iter(result.groups.values()))
    assert [c.label for c in curves] == ["self (train)", "cross (ref)"]
    assert any("cross-input" in n for n in result.notes)


def test_experiment_registry_complete():
    assert set(EXPERIMENTS) == {"fig1", "fig3", "fig6", "fig7", "fig8",
                                "fig9-machines", "fig9-inputs"}


def test_render_full_tables(shared_runner, small_population):
    result = fig1(shared_runner, small_population)
    text = result.render(full_tables=True)
    assert "rank" in text


def test_cli_smoke(capsys):
    code = main(["fig1", "--suites", "comm", "--limit", "2"])
    assert code == 0
    out = capsys.readouterr().out
    assert "FIG1" in out


@pytest.mark.parametrize("argv", [
    ["--suites", "comm", "--limit", "0"],
    ["--suites", "comm", "--limit", "-1"],
    ["--suites", "synth", "--no-synthetic"],
])
def test_empty_or_truncated_population_is_rejected(argv, tmp_path, capsys):
    """A population the filters leave empty, or a --limit that would
    print an all-zero figure or silently drop programs, is a one-line
    error before any store is opened."""
    store = tmp_path / "store"
    assert main(["fig1", *argv, "--cache-dir", str(store)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert captured.err.startswith("experiments: ")
    assert not store.exists()


def test_unknown_suite_is_rejected(tmp_path, capsys):
    store = tmp_path / "store"
    with pytest.raises(SystemExit) as exited:
        main(["fig1", "--suites", "bogus", "--cache-dir", str(store)])
    assert exited.value.code == 2
    assert "invalid choice: 'bogus'" in capsys.readouterr().err
    assert not store.exists()
