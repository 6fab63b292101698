"""End-to-end ``run_tune``: determinism, warm stores, resume by rerun."""

import pytest

from repro.exec.store import ArtifactStore
from repro.tune import SearchSpace, pareto_front, run_tune
from repro.tune.pareto import dominates
from repro.tune.report import load_doc, render_table, tune_doc, write_doc

MAX_INSTS = 60_000

SPACE = SearchSpace.from_doc({
    "benchmarks": ["crc32"],
    "selectors": [{"kind": "struct-all"}, {"kind": "struct-none"},
                  {"kind": "read-port", "port_budget": [0, 2]}],
    "configs": ["reduced"],
})


def _tune(**kwargs):
    kwargs.setdefault("max_insts", MAX_INSTS)
    return run_tune(SPACE, **kwargs)


def _docs(result):
    return [e.to_doc() for e in result.evals]


def test_grid_covers_space_and_is_deterministic():
    first = _tune()
    again = _tune()
    assert len(first.evals) == len(SPACE) == 4
    assert _docs(first) == _docs(again)
    assert [e.trial_id for e in first.frontier] \
        == [e.trial_id for e in again.frontier]
    assert first.stats.evaluations == 4
    assert first.stats.rungs == 1


def test_frontier_contains_no_dominated_point():
    result = _tune()
    assert result.frontier
    assert result.stats.frontier_size + result.stats.dominated \
        == len(result.evals)
    for entry in result.frontier:
        assert not any(dominates(other, entry) for other in result.evals)
    for entry in result.dominated:
        assert any(dominates(member, entry)
                   for member in result.frontier)


def test_selector_aggressiveness_orders_objectives():
    """struct-none (shape-safe only) never out-covers struct-all, and a
    zero-port-budget read-port selector never out-covers it either."""
    result = _tune()
    by_name = {e.display_name: e for e in result.evals
               if e.config == "reduced"}
    all_cov = by_name["struct-all"].coverage
    assert all_cov > 0.0
    assert by_name["struct-none"].coverage <= all_cov
    assert by_name["read-port(b=0,w=1)"].coverage <= all_cov


def test_warm_store_rerun_recomputes_nothing():
    store = ArtifactStore()
    first = _tune(store=store)
    misses_after_first = store.stats.misses
    again = _tune(store=store)
    assert store.stats.misses == misses_after_first   # all warm hits
    assert again.stats.store_misses == 0
    assert _docs(first) == _docs(again)


def test_rerun_over_a_persistent_store_evaluates_nothing(tmp_path):
    """A finished search resumes by running again over its store: a new
    store object on the same directory serves every trial."""
    first = _tune(store=ArtifactStore(tmp_path))
    assert first.stats.evaluations == 4
    assert first.stats.resumed == 0
    again = _tune(store=ArtifactStore(tmp_path))
    assert again.stats.evaluations == 0
    assert again.stats.resumed == 4
    assert again.stats.store_misses == 0
    assert _docs(again) == _docs(first)
    assert [e.trial_id for e in again.frontier] \
        == [e.trial_id for e in first.frontier]


def test_rerun_evaluates_only_trials_missing_from_the_store(tmp_path):
    """Losing two trials' timing runs (a search killed part-way) costs
    exactly those two evaluations on the rerun."""
    first = _tune(store=ArtifactStore(tmp_path))
    runs = sorted(tmp_path.glob("??/*.run.pkl"))
    assert len(runs) == 4                 # one per trial on crc32
    for path in runs[:2]:
        path.unlink()
    again = _tune(store=ArtifactStore(tmp_path))
    assert again.stats.evaluations == 2
    assert again.stats.resumed == 2
    assert _docs(again) == _docs(first)


def test_random_strategy_prefix_reuses_warm_work():
    store = ArtifactStore()
    small = _tune(store=store, strategy="random", trials=2, seed=9)
    large = _tune(store=store, strategy="random", trials=4, seed=9)
    assert [e.trial_id for e in large.evals[:2]] \
        == [e.trial_id for e in small.evals]


def test_halving_promotes_and_finishes_at_full_budget():
    store = ArtifactStore()
    result = _tune(store=store, strategy="halving",
                   max_insts=120_000, halving_min_insts=30_000,
                   halving_eta=2)
    assert result.stats.rungs == 3      # 30k, 60k, 120k
    assert result.evals                 # survivors reach the full budget
    assert all(e.rung == 120_000 for e in result.evals)
    assert len(result.evals) <= len(SPACE)
    # A rerun over the same store evaluates nothing on any rung.
    again = _tune(store=store, strategy="halving",
                  max_insts=120_000, halving_min_insts=30_000,
                  halving_eta=2)
    assert again.stats.evaluations == 0
    assert again.stats.resumed == result.stats.evaluations
    assert _docs(again) == _docs(result)


def test_unknown_strategy_rejected():
    with pytest.raises(ValueError):
        _tune(strategy="simulated-annealing")


def test_report_doc_round_trip(tmp_path):
    result = _tune()
    doc = tune_doc(result.space, result.evals, result.frontier,
                   result.stats.as_dict())
    path = tmp_path / "tune.json"
    write_doc(path, doc)
    loaded = load_doc(path)
    assert loaded["space_digest"] == SPACE.digest()
    frontier_ids = {e.trial_id for e in result.frontier}
    assert set(loaded["frontier"]) == frontier_ids
    flags = {t["trial"]: t["frontier"] for t in loaded["trials"]}
    assert {tid for tid, on in flags.items() if on} == frontier_ids
    table = render_table(result.evals, result.frontier)
    assert "ipc_norm" in table and "*" in table


def test_render_mentions_every_trial():
    result = _tune()
    text = result.render()
    for entry in result.evals:
        assert entry.config in text
    assert f"{result.stats.evaluations} evaluated" in text
