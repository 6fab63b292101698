"""Seeded synthetic workload generator.

The paper's S-curves aggregate 78 programs; the hand-written kernels cover
the four suite families' idioms, and this generator pads the population
with structurally diverse programs: random (but reproducible) loop nests
whose bodies mix ALU chains of varying dependence depth, array loads and
stores, and data-dependent forward branches. The mix parameters are drawn
per program, so the population spans a wide range of ILP, branch
predictability, and memory behaviour — which is what the distributional
claims need.

Programs are guaranteed to terminate: all loops are counted, and forward
branches only skip within the loop body.

:func:`synth_program` is the parameterized entry point: every mix
parameter can be pinned explicitly (the correctness fuzzer does this to
make failing programs exactly reproducible from ``(seed, params)``), and
any parameter left ``None`` is drawn from the seeded stream at the same
point the original generator drew it — so the registered ``synthNN``
benchmarks are byte-identical to their pre-parameterization form.
"""

from __future__ import annotations

import random
from typing import List, Optional, Sequence

from ..isa.assembler import Assembler
from ..isa.program import Program

PROFILES = ("compute", "memory", "branchy", "serial")

# Register allocation contract for generated code:
#   r1  loop index    r2 trip count     r3 scratch for branches
#   r4-r7 array base registers
#   r8-r14 rotating temporaries
#   r15 checksum accumulator
_TEMPS = [8, 9, 10, 11, 12, 13, 14]


class _BodyGenerator:
    """Emits one loop body with a chosen instruction mix."""

    def __init__(self, a: Assembler, rng: random.Random,
                 bases: List[int], sizes: List[int], uid: str):
        self.a = a
        self.rng = rng
        self.bases = bases      # base-register numbers
        self.sizes = sizes      # matching array sizes (powers of two)
        self.uid = uid
        self._label_counter = 0
        self._ready = list(_TEMPS)  # registers holding defined values

    def _fresh_label(self) -> str:
        self._label_counter += 1
        return f"{self.uid}_l{self._label_counter}"

    def _pick_temp(self) -> str:
        return f"r{self.rng.choice(self._ready)}"

    def _dest_temp(self) -> str:
        # Rotate destinations so chains of varying depth appear.
        reg = self._ready.pop(0)
        self._ready.append(reg)
        return f"r{reg}"

    def _addr_reg(self, base_index: int) -> str:
        """Compute an in-bounds address into array ``base_index`` in r3."""
        a = self.a
        mask = self.sizes[base_index] - 1
        a.andi("r3", self._pick_temp(), mask)
        a.add("r3", "r3", f"r{self.bases[base_index]}")
        return "r3"

    def emit_alu(self) -> None:
        a = self.a
        rng = self.rng
        op = rng.choice(["add", "sub", "xor", "and_", "or_",
                         "slli", "srli", "addi", "slt"])
        dest = self._dest_temp()
        if op in ("slli", "srli"):
            getattr(a, op)(dest, self._pick_temp(), rng.randint(1, 5))
        elif op == "addi":
            a.addi(dest, self._pick_temp(), rng.randint(-64, 64))
        else:
            getattr(a, op)(dest, self._pick_temp(), self._pick_temp())

    def emit_load(self) -> None:
        base_index = self.rng.randrange(len(self.bases))
        addr = self._addr_reg(base_index)
        self.a.ld(self._dest_temp(), addr, 0)

    def emit_store(self) -> None:
        base_index = self.rng.randrange(len(self.bases))
        addr = self._addr_reg(base_index)
        self.a.st(self._pick_temp(), addr, 0)

    def emit_branchy(self) -> None:
        """A data-dependent forward branch skipping 1–3 instructions."""
        a = self.a
        skip = self._fresh_label()
        a.andi("r3", self._pick_temp(), self.rng.choice([1, 1, 3, 7]))
        if self.rng.random() < 0.5:
            a.beq("r3", "r0", skip)
        else:
            a.bne("r3", "r0", skip)
        for _ in range(self.rng.randint(1, 3)):
            self.emit_alu()
        a.label(skip)

    def emit_serial_chain(self) -> None:
        """A dependence chain: late-arriving values that stress slack."""
        a = self.a
        dest = self._dest_temp()
        a.add(dest, self._pick_temp(), self._pick_temp())
        for _ in range(self.rng.randint(2, 4)):
            a.addi(dest, dest, self.rng.randint(1, 9))

    def emit_body(self, n_ops: int, profile: str) -> None:
        weights = {
            "compute": [(self.emit_alu, 6), (self.emit_load, 2),
                        (self.emit_store, 1), (self.emit_branchy, 1),
                        (self.emit_serial_chain, 1)],
            "memory": [(self.emit_alu, 3), (self.emit_load, 4),
                       (self.emit_store, 2), (self.emit_branchy, 1),
                       (self.emit_serial_chain, 1)],
            "branchy": [(self.emit_alu, 4), (self.emit_load, 2),
                        (self.emit_store, 1), (self.emit_branchy, 4),
                        (self.emit_serial_chain, 1)],
            "serial": [(self.emit_alu, 3), (self.emit_load, 2),
                       (self.emit_store, 1), (self.emit_branchy, 1),
                       (self.emit_serial_chain, 4)],
        }[profile]
        emitters = [fn for fn, weight in weights for _ in range(weight)]
        for _ in range(n_ops):
            self.rng.choice(emitters)()
        # Fold a live temp into the checksum each iteration.
        self.a.xor("r15", "r15", self._pick_temp())


def synth_program(seed: int, input_name: str = "train", *,
                  name: Optional[str] = None,
                  profile: Optional[str] = None,
                  n_loops: Optional[int] = None,
                  trips: Optional[int] = None,
                  ops: Optional[int] = None,
                  array_sizes: Optional[Sequence[int]] = None,
                  ref_scale: float = 1.7) -> Program:
    """Build the synthetic program for ``seed``.

    Every keyword left at ``None`` is drawn from the seeded stream at the
    same point the unparameterized generator drew it, so defaults
    reproduce the registered ``synthNN`` programs exactly. Pinning a
    keyword skips only that parameter's draws; the remaining stream is
    still a pure function of ``seed``, so ``(seed, params)`` is an exact
    reproducer — this is what ``repro fuzz`` records for its shrunk
    failures, and what ``repro gen --seed`` exposes on the command line.

    ``trips``/``ops``, when pinned, apply to every loop. ``array_sizes``
    entries must be powers of two (indices are masked, not bounds-checked).
    """
    # Two streams: *structure* must be identical across inputs (the
    # cross-input robustness study profiles on one input and runs on
    # another, so static code must line up PC-for-PC); *data* varies.
    rng = random.Random(seed * 7919)
    data_rng = random.Random(seed * 7919 + (0 if input_name == "train"
                                            else 104729))
    a = Assembler(name if name is not None else f"synth{seed:02d}")
    # Arrays (power-of-two sizes so indices mask cheaply).
    if array_sizes is None:
        n_arrays = rng.randint(2, 4)
        sizes_in: List[Optional[int]] = [None] * n_arrays
    else:
        sizes_in = list(array_sizes)
    bases: List[int] = []
    sizes: List[int] = []
    for i, pinned in enumerate(sizes_in):
        size = pinned if pinned is not None \
            else rng.choice([64, 128, 256, 512])
        if size & (size - 1) or size <= 0:
            raise ValueError(f"array size {size} is not a power of two")
        addr = a.data_words(
            [data_rng.getrandbits(16) for _ in range(size)],
            label=f"arr{i}")
        bases.append(4 + i)
        sizes.append(size)
        a.li(f"r{4 + i}", addr)
    a.data_zeros(1, label="result")
    result = a.data_addr("result")

    for reg in _TEMPS:
        a.li(f"r{reg}", data_rng.getrandbits(12))
    a.li("r15", 0)

    if profile is None:
        profile = rng.choice(list(PROFILES))
    elif profile not in PROFILES:
        raise ValueError(f"unknown profile {profile!r} "
                         f"(choose from {', '.join(PROFILES)})")
    if n_loops is None:
        n_loops = rng.randint(1, 3)
    scale = 1.0 if input_name == "train" else ref_scale
    for loop_index in range(n_loops):
        loop_trips = trips if trips is not None else rng.randint(40, 160)
        loop_trips = int(loop_trips * scale)
        uid = f"L{loop_index}"
        a.li("r1", 0)
        a.li("r2", loop_trips)
        a.label(f"{uid}_top")
        body = _BodyGenerator(a, rng, bases, sizes, uid)
        loop_ops = ops if ops is not None else rng.randint(5, 14)
        body.emit_body(loop_ops, profile)
        a.addi("r1", "r1", 1)
        a.blt("r1", "r2", f"{uid}_top")
    a.st("r15", "r0", result)
    a.halt()
    return a.build()


def synth_builder(seed: int):
    """A builder function for the synthetic benchmark with ``seed``."""

    def build(input_name: str) -> Program:
        return synth_program(seed, input_name)

    return build
