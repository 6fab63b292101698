"""Benchmark registry and program construction."""

import hashlib
import importlib
import inspect

import pytest

from repro.workloads import Benchmark, all_benchmarks, benchmark
from repro.workloads.suite import N_SYNTHETIC

#: SHA-256 over every benchmark's (name, suite, inputs, description) and
#: every program it builds, taken when each kernel module registered its
#: own benchmarks.
REGISTRY_DIGEST = \
    "36e07dfed65ea628b580eae5c31ea998d15d838be182ec1aabca295763fa8108"


def test_population_size():
    benches = all_benchmarks()
    # 28 hand-written kernels + the synthetic population.
    assert len(benches) >= 24 + N_SYNTHETIC


def test_four_suite_families_present():
    suites = {b.suite for b in all_benchmarks()}
    assert {"spec", "media", "comm", "embedded", "synth"} <= suites


def test_suite_filter():
    media = all_benchmarks(suites=["media"])
    assert media and all(b.suite == "media" for b in media)


def test_exclude_synthetic():
    benches = all_benchmarks(include_synthetic=False)
    assert benches and all(b.suite != "synth" for b in benches)


def test_every_benchmark_has_two_inputs():
    for bench in all_benchmarks():
        assert {"train", "ref"} <= set(bench.inputs)


def test_adpcm_has_tiny_input():
    assert "tiny" in benchmark("adpcm").inputs


def test_lookup_by_name():
    assert benchmark("crc32").name == "crc32"
    with pytest.raises(ValueError):
        benchmark("not-a-benchmark")


def test_program_memoization():
    bench = benchmark("crc32")
    assert bench.program("train") is bench.program("train")


def test_unknown_input_rejected():
    with pytest.raises(ValueError):
        benchmark("crc32").program("huge")


def test_bad_suite_rejected():
    with pytest.raises(ValueError):
        Benchmark("x", "nosuite", lambda i: None)


def test_duplicate_registration_rejected():
    from repro.workloads import register
    with pytest.raises(ValueError):
        register(Benchmark("crc32", "comm", lambda i: None))


def test_registry_and_programs_match_the_pinned_digest():
    digest = hashlib.sha256()
    for bench in all_benchmarks():
        digest.update(repr((bench.name, bench.suite, bench.inputs,
                            bench.description)).encode())
        for input_name in bench.inputs:
            program = bench.program(input_name)
            digest.update(repr((
                program.name, program.memory_words,
                sorted(program.labels.items()), program.data,
                [(inst.op, inst.rd, inst.srcs, inst.imm, inst.target_label)
                 for inst in program.instructions])).encode())
    assert digest.hexdigest() == REGISTRY_DIGEST


def test_every_row_names_a_module_level_function():
    from repro.workloads.suite import TABLE
    assert len({row.name for row in TABLE}) == len(TABLE)
    for row in TABLE:
        module = importlib.import_module(f"repro.workloads.{row.module}")
        function = getattr(module, row.function)
        assert inspect.isfunction(function), row
        assert function.__module__ == module.__name__, row
        assert function.__qualname__ == row.function, row


def test_a_builder_module_that_fails_to_import_fails_each_build():
    """The registry is whole before any builder module loads: a row whose
    module cannot be imported fails each of its builds, and every other
    benchmark stays listed."""
    from functools import partial

    from repro.workloads import suite
    row = suite.Row("broken", "comm", "no_such_module", "build", "")
    broken = Benchmark("broken", "comm", partial(suite._build, row))
    for _ in range(2):
        with pytest.raises(ModuleNotFoundError):
            broken.program("train")
    assert [b.name for b in all_benchmarks()] == \
        sorted(row.name for row in suite.TABLE)
