"""Candidate enumeration under the mini-graph interface constraints."""

import gc

from repro.isa import Assembler
from repro.minigraph import SerializationClass, enumerate_candidates
from repro.minigraph import candidates as candidates_mod


def _program_with_block(body):
    a = Assembler("t")
    a.data_zeros(8)
    a.li("r1", 1)
    a.li("r2", 2)
    a.li("r3", 3)
    body(a)
    a.halt()
    return a.build()


def test_basic_enumeration():
    def body(a):
        a.add("r4", "r1", "r2")
        a.add("r5", "r4", "r3")
        a.st("r5", "r0", 0)

    program = _program_with_block(body)
    candidates = enumerate_candidates(program)
    spans = {(c.start, c.end) for c in candidates}
    assert (3, 5) in spans            # the two adds
    assert (3, 6) in spans            # adds + store
    assert all(c.size >= 2 for c in candidates)


def test_size_limit():
    def body(a):
        for _ in range(6):
            a.add("r4", "r1", "r2")

    program = _program_with_block(body)
    candidates = enumerate_candidates(program, max_size=4)
    assert max(c.size for c in candidates) == 4


def test_complex_ops_not_aggregable():
    def body(a):
        a.add("r4", "r1", "r2")
        a.mul("r5", "r4", "r3")
        a.add("r6", "r5", "r1")
        a.st("r6", "r0", 0)

    program = _program_with_block(body)
    candidates = enumerate_candidates(program)
    for candidate in candidates:
        ops = [i.opclass for i in candidate.instructions()]
        from repro.isa.opcodes import OC_COMPLEX
        assert OC_COMPLEX not in ops


def test_at_most_one_memory_op():
    def body(a):
        a.ld("r4", "r1", 0)
        a.ld("r5", "r2", 0)
        a.add("r6", "r4", "r5")
        a.st("r6", "r0", 0)

    program = _program_with_block(body)
    for candidate in enumerate_candidates(program):
        mems = sum(1 for i in candidate.instructions() if i.is_memory)
        assert mems <= 1


def test_branch_only_last():
    def body(a):
        a.add("r4", "r1", "r2")
        a.bne("r4", "r0", "skip")
        a.add("r5", "r1", "r3")
        a.label("skip")
        a.st("r1", "r0", 0)

    program = _program_with_block(body)
    for candidate in enumerate_candidates(program):
        for offset, inst in enumerate(candidate.instructions()):
            if inst.is_branch:
                assert offset == candidate.size - 1


def test_max_three_external_inputs():
    def body(a):
        a.li("r4", 4)
        a.li("r5", 5)
        a.add("r6", "r1", "r2")
        a.add("r7", "r3", "r4")
        a.add("r8", "r6", "r7")
        a.add("r9", "r8", "r5")
        a.st("r9", "r0", 0)

    program = _program_with_block(body)
    for candidate in enumerate_candidates(program):
        assert len(candidate.ext_inputs) <= 3


def test_at_most_one_register_output():
    def body(a):
        a.add("r4", "r1", "r2")   # r4 live below
        a.add("r5", "r1", "r3")   # r5 live below
        a.st("r4", "r0", 0)
        a.st("r5", "r0", 1)

    program = _program_with_block(body)
    spans = {(c.start, c.end) for c in enumerate_candidates(program)}
    assert (3, 5) not in spans    # two live outputs — illegal


def test_confined_to_basic_blocks():
    def body(a):
        a.add("r4", "r1", "r2")
        a.label("mid")            # a branch target splits the block
        a.add("r5", "r4", "r3")
        a.bne("r5", "r0", "mid")

    program = _program_with_block(body)
    for candidate in enumerate_candidates(program):
        block = program.block_of(candidate.start)
        assert candidate.end <= block.end


def test_serialization_classes_assigned():
    def body(a):
        # Chain: ext inputs only into the first constituent -> NONE.
        a.add("r4", "r1", "r2")
        a.add("r5", "r4", "r4")
        a.st("r5", "r0", 0)
        # Serializing: r3 into the second constituent.
        a.add("r6", "r1", "r1")
        a.add("r7", "r6", "r3")
        a.st("r7", "r0", 1)

    program = _program_with_block(body)
    classes = {(c.start, c.end): c.serialization
               for c in enumerate_candidates(program)}
    assert classes[(3, 5)] is SerializationClass.NONE
    assert classes[(6, 8)] in (SerializationClass.BOUNDED,
                               SerializationClass.UNBOUNDED)


def test_candidate_latency_fields():
    def body(a):
        a.ld("r4", "r1", 0)
        a.add("r5", "r4", "r2")
        a.add("r6", "r5", "r5")
        a.st("r6", "r0", 0)

    program = _program_with_block(body)
    candidate = next(c for c in enumerate_candidates(program)
                     if (c.start, c.end) == (3, 6))
    assert candidate.latencies == (3, 1, 1)
    assert candidate.total_latency == 5
    assert candidate.has_load and not candidate.has_store
    assert candidate.out_reg == 6
    assert candidate.nominal_out_latency == 5


def test_nominal_out_latency_partial_chain():
    def body(a):
        a.add("r4", "r1", "r2")   # produces the output
        a.add("r5", "r4", "r3")   # r5 dead (overwritten below)
        a.st("r4", "r0", 0)
        a.li("r5", 0)
        a.st("r5", "r0", 1)

    program = _program_with_block(body)
    candidate = next(c for c in enumerate_candidates(program)
                     if (c.start, c.end) == (3, 5))
    assert candidate.out_producer_ix == 0
    assert candidate.nominal_out_latency == 1


def test_static_columns_live_as_long_as_their_program():
    """One static column set per live program, however many are alive,
    and a program's entry goes with the program."""
    def body(a):
        a.add("r4", "r1", "r2")
        a.add("r5", "r4", "r3")

    programs = [_program_with_block(body) for _ in range(10)]
    first = [candidates_mod._static_columns(program) for program in programs]
    second = [candidates_mod._static_columns(program)
              for program in programs]
    assert all(a is b for a, b in zip(first, second))
    assert len({id(cols) for cols in first + second}) == len(programs)
    gc.disable()
    try:
        alive = len(candidates_mod._static)
        programs.pop()
        assert len(candidates_mod._static) == alive - 1
    finally:
        gc.enable()
