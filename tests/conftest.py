"""Shared fixtures: small programs and cached harness objects."""

from __future__ import annotations

import pytest

from repro.isa import Assembler
from repro.isa.interp import execute
from repro.harness import Runner
from repro.pipeline import full_config, reduced_config


def build_sum_loop(n: int = 32, name: str = "sumloop"):
    """A simple load/accumulate loop with an aggregable tail."""
    a = Assembler(name)
    buf = a.data_words(list(range(1, n + 1)), label="buf")
    a.data_zeros(1, label="result")
    result = a.data_addr("result")
    a.li("r1", buf)
    a.li("r2", n)
    a.li("r3", 0)
    a.label("loop")
    a.ld("r4", "r1", 0)
    a.slli("r5", "r4", 1)
    a.add("r6", "r5", "r4")
    a.add("r3", "r3", "r6")
    a.addi("r1", "r1", 1)
    a.addi("r2", "r2", -1)
    a.bne("r2", "r0", "loop")
    a.st("r3", "r0", result)
    a.halt()
    return a.build()


def build_branchy_loop(n: int = 48, name: str = "branchy"):
    """A loop with a data-dependent branch and a serializing pattern."""
    a = Assembler(name)
    buf = a.data_words([(i * 7) % 13 for i in range(n)], label="buf")
    a.data_zeros(1, label="result")
    result = a.data_addr("result")
    a.li("r1", buf)
    a.li("r2", n)
    a.li("r3", 0)
    a.li("r7", 1)
    a.label("loop")
    a.ld("r4", "r1", 0)
    a.andi("r5", "r4", 1)
    a.beq("r5", "r0", "even")
    a.add("r3", "r3", "r4")
    a.jmp("next")
    a.label("even")
    a.xor("r3", "r3", "r4")
    a.label("next")
    a.add("r7", "r7", "r7")
    a.andi("r7", "r7", 255)
    a.or_("r7", "r7", "r5")
    a.addi("r1", "r1", 1)
    a.addi("r2", "r2", -1)
    a.bne("r2", "r0", "loop")
    a.st("r3", "r0", result)
    a.st("r7", "r0", result)
    a.halt()
    return a.build()


def build_cmov_loop(n: int = 300, name: str = "cmovloop"):
    """A loop over CMOVZ/CMOVN, the ISA's only three-source instructions.

    Each CMOV's result is the only live value of its two-instruction
    window, so Struct-All folds both windows; the CMOVN window reads
    three external registers.
    """
    a = Assembler(name)
    a.data_zeros(2, label="result")
    result = a.data_addr("result")
    a.li("r1", n)
    a.li("r3", 0)
    a.li("r4", 0)
    a.label("loop")
    a.andi("r2", "r1", 1)
    a.cmovz("r3", "r1", "r2")
    a.andi("r5", "r1", 2)
    a.cmovn("r4", "r3", "r5")
    a.addi("r1", "r1", -1)
    a.bne("r1", "r0", "loop")
    a.st("r3", "r0", result)
    a.st("r4", "r0", result + 1)
    a.halt()
    return a.build()


@pytest.fixture(scope="session")
def sum_loop():
    return build_sum_loop()


@pytest.fixture(scope="session")
def branchy_loop():
    return build_branchy_loop()


@pytest.fixture(scope="session")
def cmov_loop():
    return build_cmov_loop()


@pytest.fixture(scope="session")
def sum_trace(sum_loop):
    return execute(sum_loop)


@pytest.fixture(scope="session")
def branchy_trace(branchy_loop):
    return execute(branchy_loop)


@pytest.fixture(scope="session")
def cmov_trace(cmov_loop):
    return execute(cmov_loop)


@pytest.fixture(scope="session")
def runner():
    """A session-wide caching runner (experiments share all work)."""
    return Runner()


@pytest.fixture(scope="session")
def full_cfg():
    return full_config()


@pytest.fixture(scope="session")
def reduced_cfg():
    return reduced_config()


@pytest.fixture
def record_objects(monkeypatch):
    """Live tally of ``TraceRecord`` / ``MGHandleRecord`` constructions
    during the test (reset it after building the inputs)."""
    from repro.isa.interp import TraceRecord
    from repro.minigraph.transform import MGHandleRecord
    made = {"TraceRecord": 0, "MGHandleRecord": 0}

    def count(cls):
        init = cls.__init__

        def counted(self, *args, **kwargs):
            made[cls.__name__] += 1
            init(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counted)

    count(TraceRecord)
    count(MGHandleRecord)
    return made
