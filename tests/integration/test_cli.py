"""Top-level CLI (`python -m repro`)."""

import pytest

from repro.__main__ import main


def test_list(capsys):
    assert main(["list", "--suites", "comm"]) == 0
    out = capsys.readouterr().out
    assert "crc32" in out and "benchmarks" in out


def test_list_rejects_unknown_suite(capsys):
    with pytest.raises(SystemExit) as exited:
        main(["list", "--suites", "bogus"])
    assert exited.value.code == 2
    assert "invalid choice: 'bogus'" in capsys.readouterr().err


def test_list_rejects_a_bare_suites_flag(capsys):
    with pytest.raises(SystemExit) as exited:
        main(["list", "--suites"])
    assert exited.value.code == 2
    assert "--suites: expected at least one argument" in \
        capsys.readouterr().err


def test_run_with_selector(capsys):
    assert main(["run", "epicfilt", "--selector", "struct-all"]) == 0
    out = capsys.readouterr().out
    assert "no mini-graphs" in out
    assert "struct-all" in out
    assert "coverage" in out


def test_run_baseline_only(capsys):
    assert main(["run", "epicfilt", "--selector", "none"]) == 0
    out = capsys.readouterr().out
    assert "no mini-graphs" in out


def test_trace(capsys):
    assert main(["trace", "epicfilt", "--last", "8"]) == 0
    out = capsys.readouterr().out
    assert "cycles" in out
    assert "F" in out


def test_trace_with_minigraphs(capsys):
    assert main(["trace", "epicfilt", "--selector", "struct-all",
                 "--last", "12"]) == 0
    out = capsys.readouterr().out
    assert "mg#" in out


def test_validate_single(capsys):
    assert main(["validate", "crc32"]) == 0
    assert "crc32" in capsys.readouterr().out


def test_limit_study_capped(capsys):
    assert main(["limit-study", "--cap", "8"]) == 0
    out = capsys.readouterr().out
    assert "FIG8" in out


@pytest.mark.parametrize("cap", ["0", "-3"])
def test_limit_study_rejects_a_cap_below_one(capsys, tmp_path, cap):
    cache = tmp_path / "cache"
    assert main(["limit-study", "--cap", cap,
                 "--cache-dir", str(cache)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("repro: error:") and err.count("\n") == 1
    assert "--cap" in err
    assert not cache.exists() or not any(cache.iterdir())


def test_limit_study_rejects_a_job_count_below_one(capsys):
    assert main(["limit-study", "--cap", "4", "--jobs", "-2"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("repro: error:") and err.count("\n") == 1
    assert "--jobs" in err


def test_experiments_forwarding(capsys):
    assert main(["experiments", "fig1", "--suites", "comm",
                 "--limit", "2"]) == 0
    assert "FIG1" in capsys.readouterr().out


def test_experiments_cache_dir_and_json(capsys, tmp_path):
    cache = str(tmp_path / "cache")
    out_json = str(tmp_path / "fig1.json")
    argv = ["experiments", "fig1", "--suites", "comm", "--limit", "2",
            "--cache-dir", cache, "--save-json", out_json]
    assert main(list(argv)) == 0
    first = (tmp_path / "fig1.json").read_text()
    capsys.readouterr()
    # Second run is served from the artifact store, byte-identically.
    assert main(list(argv)) == 0
    err = capsys.readouterr().err
    assert (tmp_path / "fig1.json").read_text() == first
    assert "100.0%" in err
    # A rerun after losing one timing run (a killed first run) recomputes
    # only that artifact and prints the same figure.
    next((tmp_path / "cache").glob("??/*.run.pkl")).unlink()
    assert main(list(argv)) == 0
    err = capsys.readouterr().err
    assert (tmp_path / "fig1.json").read_text() == first
    assert ", 1 writes" in err


def test_limit_study_jobs(capsys, tmp_path, monkeypatch):
    assert main(["limit-study", "--cap", "8", "--jobs", "2",
                 "--cache-dir", str(tmp_path / "cache")]) == 0
    captured = capsys.readouterr()
    assert "FIG8" in captured.out
    assert "temporary store" not in captured.err
    # Without a store the workers share a throwaway one, and say so.
    monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
    assert main(["limit-study", "--cap", "4", "--jobs", "2"]) == 0
    captured = capsys.readouterr()
    assert "FIG8" in captured.out
    assert "temporary store" in captured.err


def test_limit_study_prints_store_stats(capsys, tmp_path, monkeypatch):
    """With a persistent store the study prints the two ``[cache]``
    lines; a rerun over that store writes nothing and prints the same
    figure. The temporary store of ``--jobs N`` alone prints none."""
    argv = ["limit-study", "--cap", "8", "--jobs", "2",
            "--cache-dir", str(tmp_path / "cache")]
    assert main(list(argv)) == 0
    first = capsys.readouterr()
    assert first.err.count("[cache] ") == 2
    assert main(list(argv)) == 0
    rerun = capsys.readouterr()
    assert rerun.out == first.out
    assert ", 0 writes" in rerun.err
    monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
    assert main(["limit-study", "--cap", "4", "--jobs", "2"]) == 0
    assert "[cache]" not in capsys.readouterr().err


def test_tune_pool_without_a_cache_dir(capsys, monkeypatch):
    """``tune --jobs 2`` without a store runs over a scratch one, as
    ``experiments`` and ``limit-study`` do, and prints the serial
    run's trial table."""
    monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
    argv = ["tune", "--selectors", "struct-all", "--configs", "reduced",
            "--benchmarks", "crc32", "--max-insts", "20000"]

    def table(out):
        return out[:out.index("\ntune: ")]

    assert main(argv) == 0
    serial = capsys.readouterr()
    assert main(argv + ["--jobs", "2"]) == 0
    pooled = capsys.readouterr()
    assert "temporary store" in pooled.err
    assert "temporary store" not in serial.err
    assert table(pooled.out) == table(serial.out)


def test_cache_subcommand(capsys, tmp_path):
    cache = str(tmp_path / "cache")
    assert main(["run", "crc32", "--selector", "none",
                 "--cache-dir", cache]) == 0
    capsys.readouterr()
    assert main(["cache", "stats", "--cache-dir", cache]) == 0
    out = capsys.readouterr().out
    # Results only: the run computed its trace without storing it.
    assert "baseline" in out and "trace" not in out
    assert main(["cache", "prune", "--cache-dir", cache,
                 "--kinds", "trace"]) == 0
    assert "pruned 0 artifacts" in capsys.readouterr().out
    assert main(["cache", "prune", "--cache-dir", cache,
                 "--kinds", "baseline"]) == 0
    assert "pruned 2 artifacts" in capsys.readouterr().out
    assert main(["run", "crc32", "--selector", "none",
                 "--cache-dir", cache]) == 0
    assert main(["cache", "clear", "--cache-dir", cache]) == 0
    capsys.readouterr()
    assert main(["cache", "stats", "--cache-dir", cache]) == 0
    assert "total              0" in capsys.readouterr().out


def test_cache_requires_directory(capsys, monkeypatch):
    monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
    assert main(["cache", "stats"]) == 1


def test_unknown_command():
    with pytest.raises(SystemExit):
        main(["bogus"])


def test_error_exit_is_one_line_not_traceback(capsys):
    assert main(["run", "nosuchbench"]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("repro: error:")
    assert "Traceback" not in captured.err


def test_fuzz_error_exit_on_bad_duration(capsys):
    assert main(["fuzz", "--budget", "soon"]) == 2
    assert capsys.readouterr().err.startswith("repro: error:")


def test_fuzz_smoke(capsys):
    assert main(["fuzz", "--budget", "3s", "--seed", "0"]) == 0
    out = capsys.readouterr().out
    assert "no divergences" in out
    assert "6 selectors" in out
    assert "read-port" in out


def test_fuzz_bounded_by_programs(capsys):
    assert main(["fuzz", "--budget", "10m", "--programs", "2",
                 "--selectors", "struct-all", "struct-none"]) == 0
    out = capsys.readouterr().out
    assert "2 programs" in out
    assert "4 (program, selector) checks" in out


def test_fuzz_replay(capsys):
    assert main(["fuzz", "--replay", "0"]) == 0
    assert "no failure" in capsys.readouterr().out


def test_fuzz_unknown_selector(capsys):
    assert main(["fuzz", "--selectors", "struct-everything"]) == 2
    assert "unknown selector" in capsys.readouterr().err


def test_lint_plan_clean(capsys):
    assert main(["lint-plan", "crc32", "--selector", "struct-all"]) == 0
    out = capsys.readouterr().out
    assert "crc32/struct-all: OK" in out
    assert "sites" in out


def test_gen_requires_seed_and_prints_listing(capsys):
    assert main(["gen", "--seed", "5"]) == 0
    out = capsys.readouterr().out
    assert "seed 5" in out
    assert "halt" in out


def test_gen_pinned_parameters(capsys):
    assert main(["gen", "--seed", "5", "--profile", "branchy",
                 "--trips", "4", "--array-sizes", "16"]) == 0
    capsys.readouterr()
    with pytest.raises(SystemExit):
        main(["gen"])  # --seed is mandatory: reproducers must be exact


def test_gen_rejects_bad_array_size(capsys):
    assert main(["gen", "--seed", "5", "--array-sizes", "17"]) == 2
    assert capsys.readouterr().err.startswith("repro: error:")


def test_experiments_check_flag(capsys, tmp_path):
    assert main(["experiments", "fig1", "--suites", "comm",
                 "--limit", "1", "--check",
                 "--cache-dir", str(tmp_path / "cache")]) == 0
    assert "FIG1" in capsys.readouterr().out


def test_metrics_json_validates(capsys):
    import json
    assert main(["metrics", "crc32", "--selector", "struct-all"]) == 0
    doc = json.loads(capsys.readouterr().out)
    from repro.obs.metrics import validate_metrics
    validate_metrics(doc)
    names = {m["name"] for m in doc["metrics"]}
    assert {"core.cycles", "core.mg_serialized_instances",
            "activity.fetch_slots", "cache.il1.accesses",
            "branch.cond_predictions", "store.misses"} <= names


def test_metrics_out_file(capsys, tmp_path):
    import json
    out = tmp_path / "metrics.json"
    assert main(["metrics", "crc32", "--out", str(out)]) == 0
    assert "wrote" in capsys.readouterr().out
    doc = json.loads(out.read_text())
    from repro.obs.metrics import validate_metrics
    validate_metrics(doc)
    kinds = {m["name"]: m["kind"] for m in doc["metrics"]}
    assert kinds["core.cycles"] == "counter"


def test_metrics_unknown_benchmark_is_one_line_error(capsys):
    assert main(["metrics", "nosuchbench"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("repro: error:")
    assert "Traceback" not in err


def test_attribution_table(capsys):
    assert main(["attribution", "--benchmarks", "crc32",
                 "--selectors", "struct-all", "slack-profile"]) == 0
    out = capsys.readouterr().out
    assert "pred-ser%" in out and "obs-ser%" in out
    assert "struct-all" in out and "slack-profile" in out
    assert "TOTAL" in out


def test_attribution_unknown_selector_is_one_line_error(capsys):
    assert main(["attribution", "--benchmarks", "crc32",
                 "--selectors", "slack-psychic"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("repro: error:")
    assert "unknown selector" in err


# -- the selector names each subcommand accepts --------------------------------

_FAMILIES = ["read-port", "slack-profile", "struct-all", "struct-bounded",
             "struct-none"]


@pytest.mark.parametrize("command, names", [
    (["run", "crc32"], _FAMILIES + ["slack-dynamic", "none"]),
    (["trace", "crc32"], _FAMILIES + ["none"]),
    (["report"], _FAMILIES),
    (["lint-plan", "crc32"], _FAMILIES + ["slack-dynamic"]),
    (["metrics", "crc32"], _FAMILIES + ["none"]),
], ids=["run", "trace", "report", "lint-plan", "metrics"])
def test_selector_choices_per_subcommand(capsys, command, names):
    with pytest.raises(SystemExit) as exited:
        main(command + ["--selector", "psychic"])
    assert exited.value.code == 2
    choices = ", ".join(repr(name) for name in names)
    assert f"invalid choice: 'psychic' (choose from {choices})" in \
        capsys.readouterr().err


def test_attribution_rejects_a_family_outside_its_five(capsys):
    """``read-port`` is a registered family, but not an attribution
    selector."""
    assert main(["attribution", "--benchmarks", "crc32",
                 "--selectors", "read-port"]) == 2
    assert capsys.readouterr().err == (
        "repro: error: unknown selector 'read-port' for attribution "
        "(choose from struct-all, struct-none, struct-bounded, "
        "slack-profile, slack-dynamic)\n")


def test_fuzz_selector_names(capsys):
    assert main(["fuzz", "--selectors", "psychic"]) == 2
    assert capsys.readouterr().err == (
        "repro: error: unknown selector(s) psychic (choose from "
        "read-port, slack-dynamic, slack-profile, struct-all, "
        "struct-bounded, struct-none)\n")


def test_telemetry_validates_experiments_output(capsys, tmp_path):
    trace = tmp_path / "trace.jsonl"
    assert main(["experiments", "fig1", "--suites", "comm", "--limit", "1",
                 "--cache-dir", str(tmp_path / "cache"),
                 "--telemetry", str(trace)]) == 0
    captured = capsys.readouterr()
    assert "[telemetry]" in captured.err
    assert main(["telemetry", str(trace)]) == 0
    out = capsys.readouterr().out
    assert "OK" in out and "manifest: git" in out
    assert "runner=" in out


def test_telemetry_line_counts_pool_workers_events(capsys, tmp_path):
    """The ``[telemetry] N events`` line counts the events the file
    holds, the pool workers' included, as ``repro telemetry`` does."""
    trace = tmp_path / "trace.jsonl"
    assert main(["experiments", "fig1", "--suites", "comm", "--limit", "2",
                 "--jobs", "2", "--telemetry", str(trace)]) == 0
    line, = [line for line in capsys.readouterr().err.splitlines()
             if line.startswith("[telemetry]")]
    assert main(["telemetry", str(trace)]) == 0
    out = capsys.readouterr().out
    events = int(out.split("OK (")[1].split(" events")[0])
    assert line == f"[telemetry] {events} events -> {trace}"


def test_telemetry_rejects_corrupt_file(capsys, tmp_path):
    bad = tmp_path / "bad.jsonl"
    bad.write_text('{"name": "e", "cat": "c", "ph": "i", "ts": 0}\n')
    assert main(["telemetry", str(bad)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("repro: error:")
    assert "manifest" in err


def test_telemetry_missing_file_is_one_line_error(capsys, tmp_path):
    assert main(["telemetry", str(tmp_path / "absent.jsonl")]) == 2
    assert capsys.readouterr().err.startswith("repro: error:")


def test_bench_quick_with_telemetry(capsys, tmp_path):
    trace = tmp_path / "bench.jsonl"
    assert main(["bench", "--quick", "--label", "clitest",
                 "--out", str(tmp_path),
                 "--telemetry", str(trace)]) == 0
    capsys.readouterr()
    import json
    report = json.loads((tmp_path / "BENCH_clitest.json").read_text())
    assert report["manifest"]["git_sha"]
    assert report["manifest"]["config_digest"]
    assert main(["telemetry", str(trace)]) == 0
    assert "bench=" in capsys.readouterr().out
