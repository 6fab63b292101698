"""Additional suite kernels (second wave, bringing the population toward
the paper's 78-program scale)."""

from __future__ import annotations

import random

from ..isa.assembler import Assembler
from ..isa.program import Program


def twolf_swap(input_name: str) -> Program:
    """twolf-style annealing step: evaluate cell-swap wirelength deltas."""
    n = 150 if input_name == "train" else 260
    cells = 64
    seed = 3 if input_name == "train" else 5
    rng = random.Random(seed)
    xs = [rng.randint(0, 127) for _ in range(cells)]
    swaps = [rng.randrange(cells) for _ in range(2 * n)]

    a = Assembler("twolf")
    x_tab = a.data_words(xs, label="xs")
    swap_tab = a.data_words(swaps, label="swaps")
    a.data_zeros(1, label="result")
    result = a.data_addr("result")

    a.li("r1", swap_tab)
    a.li("r2", n)
    a.li("r3", x_tab)
    a.li("r15", 0)             # accepted swaps
    a.label("loop")
    a.ld("r4", "r1", 0)        # cell a
    a.ld("r5", "r1", 1)        # cell b
    a.add("r6", "r3", "r4")
    a.ld("r7", "r6", 0)        # x[a]
    a.add("r8", "r3", "r5")
    a.ld("r9", "r8", 0)        # x[b]
    # delta = |x[a] - x[b]| with a parity-based accept rule.
    a.sub("r10", "r7", "r9")
    a.bge("r10", "r0", "abs1")
    a.sub("r10", "r0", "r10")
    a.label("abs1")
    a.andi("r11", "r10", 3)
    a.bne("r11", "r0", "reject")
    # Accept: swap the coordinates.
    a.st("r9", "r6", 0)
    a.st("r7", "r8", 0)
    a.addi("r15", "r15", 1)
    a.label("reject")
    a.addi("r1", "r1", 2)
    a.addi("r2", "r2", -1)
    a.bne("r2", "r0", "loop")
    a.st("r15", "r0", result)
    a.halt()
    return a.build()


def vortex_db(input_name: str) -> Program:
    """vortex-style record store: keyed insert + lookup over a flat DB."""
    n = 160 if input_name == "train" else 280
    slots = 128
    seed = 7 if input_name == "train" else 11
    rng = random.Random(seed)
    ops = []
    for _ in range(n):
        ops.append(rng.randint(0, 1))          # 0=insert, 1=lookup
        ops.append(rng.randint(1, 96))         # key
        ops.append(rng.randint(1, 10000))      # payload

    a = Assembler("vortex")
    op_tab = a.data_words(ops, label="ops")
    keys = a.data_zeros(slots, label="keys")
    payloads = a.data_zeros(slots, label="payloads")
    a.data_zeros(1, label="result")
    result = a.data_addr("result")

    a.li("r1", op_tab)
    a.li("r2", n)
    a.li("r3", keys)
    a.li("r4", payloads)
    a.li("r15", 0)
    a.label("loop")
    a.ld("r5", "r1", 0)        # op
    a.ld("r6", "r1", 1)        # key
    a.ld("r7", "r1", 2)        # payload
    a.slli("r8", "r6", 1)
    a.xor("r8", "r8", "r6")
    a.andi("r8", "r8", slots - 1)   # slot hash
    a.add("r9", "r3", "r8")
    a.ld("r10", "r9", 0)       # stored key
    a.bne("r5", "r0", "lookup")
    # Insert (overwrite semantics).
    a.st("r6", "r9", 0)
    a.add("r11", "r4", "r8")
    a.st("r7", "r11", 0)
    a.addi("r15", "r15", 1)
    a.jmp("next")
    a.label("lookup")
    a.bne("r10", "r6", "miss")
    a.add("r11", "r4", "r8")
    a.ld("r12", "r11", 0)
    a.add("r15", "r15", "r12")
    a.jmp("next")
    a.label("miss")
    a.xori("r15", "r15", 1)
    a.label("next")
    a.addi("r1", "r1", 3)
    a.addi("r2", "r2", -1)
    a.bne("r2", "r0", "loop")
    a.st("r15", "r0", result)
    a.halt()
    return a.build()


def pegwit_modmul(input_name: str) -> Program:
    """pegwit-style public-key arithmetic: square-and-multiply modexp."""
    n = 26 if input_name == "train" else 44
    seed = 13 if input_name == "train" else 17
    rng = random.Random(seed)
    bases = [rng.randint(2, 1 << 16) for _ in range(n)]
    exps = [rng.randint(3, 255) for _ in range(n)]
    modulus = 65521  # largest 16-bit prime

    a = Assembler("pegwit")
    base_tab = a.data_words(bases, label="bases")
    exp_tab = a.data_words(exps, label="exps")
    a.data_zeros(1, label="result")
    result = a.data_addr("result")

    a.li("r1", base_tab)
    a.li("r2", exp_tab)
    a.li("r3", n)
    a.li("r7", modulus)
    a.li("r15", 0)
    a.label("loop")
    a.ld("r4", "r1", 0)        # base
    a.ld("r5", "r2", 0)        # exponent
    a.li("r6", 1)              # accumulator
    a.label("sqmul")
    a.beq("r5", "r0", "done")
    a.andi("r8", "r5", 1)
    a.beq("r8", "r0", "square")
    a.mul("r6", "r6", "r4")
    a.rem("r6", "r6", "r7")
    a.label("square")
    a.mul("r4", "r4", "r4")
    a.rem("r4", "r4", "r7")
    a.srli("r5", "r5", 1)
    a.jmp("sqmul")
    a.label("done")
    a.xor("r15", "r15", "r6")
    a.addi("r1", "r1", 1)
    a.addi("r2", "r2", 1)
    a.addi("r3", "r3", -1)
    a.bne("r3", "r0", "loop")
    a.st("r15", "r0", result)
    a.halt()
    return a.build()


def mpeg_idct(input_name: str) -> Program:
    """MPEG-style shift-add 1-D IDCT over coefficient rows."""
    rows = 20 if input_name == "train" else 36
    seed = 19 if input_name == "train" else 23
    rng = random.Random(seed)
    coeffs = [rng.randint(-512, 512) for _ in range(rows * 8)]

    a = Assembler("mpegidct")
    c_tab = a.data_words(coeffs, label="coeffs")
    pixels = a.data_zeros(rows * 8, label="pixels")
    a.data_zeros(1, label="result")
    result = a.data_addr("result")

    a.li("r1", c_tab)
    a.li("r2", pixels)
    a.li("r3", rows)
    a.li("r15", 0)
    a.label("row")
    for i in range(4):
        a.ld(f"r{4 + i}", "r1", i)          # even coefficients
    # Even butterfly tree (shift-add cosine approximations).
    a.add("r8", "r4", "r6")
    a.sub("r9", "r4", "r6")
    a.srai("r10", "r5", 1)
    a.add("r10", "r10", "r7")
    a.srai("r11", "r7", 1)
    a.sub("r11", "r5", "r11")
    a.add("r12", "r8", "r10")  # p0
    a.add("r13", "r9", "r11")  # p1
    a.sub("r14", "r9", "r11")  # p2
    a.sub("r4", "r8", "r10")   # p3 (r4 reused)
    a.st("r12", "r2", 0)
    a.st("r13", "r2", 1)
    a.st("r14", "r2", 2)
    a.st("r4", "r2", 3)
    # Odd half: mirror with different weights.
    for i in range(4):
        a.ld(f"r{5 + i}", "r1", 4 + i)
    a.add("r9", "r5", "r8")
    a.sub("r10", "r6", "r7")
    a.srai("r11", "r9", 2)
    a.add("r11", "r11", "r10")
    a.sub("r12", "r9", "r10")
    a.st("r11", "r2", 4)
    a.st("r12", "r2", 5)
    a.srai("r13", "r12", 1)
    a.add("r13", "r13", "r11")
    a.sub("r14", "r11", "r12")
    a.st("r13", "r2", 6)
    a.st("r14", "r2", 7)
    a.xor("r15", "r15", "r13")
    a.add("r15", "r15", "r12")
    a.addi("r1", "r1", 8)
    a.addi("r2", "r2", 8)
    a.addi("r3", "r3", -1)
    a.bne("r3", "r0", "row")
    a.st("r15", "r0", result)
    a.halt()
    return a.build()


def rtr_lookup(input_name: str) -> Program:
    """CommBench RTR: two-level radix-tree route lookup."""
    n = 220 if input_name == "train" else 380
    seed = 29 if input_name == "train" else 31
    rng = random.Random(seed)
    # Level-1 table: 256 entries; negative => next-hop, else L2 base index.
    l2_tables = 16
    level1 = []
    for _ in range(256):
        if rng.random() < 0.7:
            level1.append(rng.randint(1, 30))            # direct next hop
        else:
            level1.append(-(rng.randrange(l2_tables) + 1))  # L2 pointer
    level2 = [rng.randint(1, 30) for _ in range(l2_tables * 16)]
    addrs = [rng.getrandbits(16) for _ in range(n)]

    a = Assembler("rtr")
    l1 = a.data_words(level1, label="l1")
    l2 = a.data_words(level2, label="l2")
    pkt = a.data_words(addrs, label="pkts")
    a.data_zeros(1, label="result")
    result = a.data_addr("result")

    a.li("r1", pkt)
    a.li("r2", n)
    a.li("r3", l1)
    a.li("r4", l2)
    a.li("r15", 0)
    a.label("loop")
    a.ld("r5", "r1", 0)        # packet address
    a.srli("r6", "r5", 8)
    a.andi("r6", "r6", 255)    # level-1 index
    a.add("r7", "r3", "r6")
    a.ld("r8", "r7", 0)
    a.bge("r8", "r0", "hop")   # direct next hop
    # Level-2 walk.
    a.sub("r9", "r0", "r8")
    a.addi("r9", "r9", -1)     # table index
    a.slli("r9", "r9", 4)
    a.andi("r10", "r5", 15)    # low bits pick the slot
    a.add("r9", "r9", "r10")
    a.add("r11", "r4", "r9")
    a.ld("r8", "r11", 0)
    a.label("hop")
    a.add("r15", "r15", "r8")
    a.addi("r1", "r1", 1)
    a.addi("r2", "r2", -1)
    a.bne("r2", "r0", "loop")
    a.st("r15", "r0", result)
    a.halt()
    return a.build()


def frag_rewrite(input_name: str) -> Program:
    """CommBench FRAG: split packets into fragments, rewriting headers."""
    packets = 40 if input_name == "train" else 70
    seed = 37 if input_name == "train" else 41
    rng = random.Random(seed)
    lengths = [rng.randint(100, 1500) for _ in range(packets)]
    mtu = 576

    a = Assembler("frag")
    len_tab = a.data_words(lengths, label="lens")
    out = a.data_zeros(packets * 4, label="out")
    a.data_zeros(1, label="result")
    result = a.data_addr("result")

    a.li("r1", len_tab)
    a.li("r2", packets)
    a.li("r3", out)
    a.li("r7", mtu)
    a.li("r15", 0)             # fragments emitted
    a.label("pkt")
    a.ld("r4", "r1", 0)        # remaining length
    a.li("r5", 0)              # fragment offset
    a.label("frag")
    a.blt("r4", "r7", "last")
    # Full-size fragment: emit (offset | more-bit).
    a.ori("r6", "r5", 1 << 15)
    a.st("r6", "r3", 0)
    a.addi("r3", "r3", 1)
    a.addi("r15", "r15", 1)
    a.add("r5", "r5", "r7")
    a.sub("r4", "r4", "r7")
    a.jmp("frag")
    a.label("last")
    a.st("r5", "r3", 0)
    a.addi("r3", "r3", 1)
    a.addi("r15", "r15", 1)
    a.addi("r1", "r1", 1)
    a.addi("r2", "r2", -1)
    a.bne("r2", "r0", "pkt")
    a.st("r15", "r0", result)
    a.halt()
    return a.build()


def blowfish_rounds(input_name: str) -> Program:
    """Blowfish-style Feistel rounds with S-box lookups."""
    blocks = 50 if input_name == "train" else 90
    rounds = 8
    seed = 43 if input_name == "train" else 47
    rng = random.Random(seed)
    sbox = [rng.getrandbits(16) for _ in range(256)]
    pbox = [rng.getrandbits(16) for _ in range(rounds)]
    data = [rng.getrandbits(32) for _ in range(blocks * 2)]

    a = Assembler("blowfish")
    s_tab = a.data_words(sbox, label="sbox")
    p_tab = a.data_words(pbox, label="pbox")
    blocks_tab = a.data_words(data, label="blocks")
    a.data_zeros(1, label="result")
    result = a.data_addr("result")

    a.li("r1", blocks_tab)
    a.li("r2", blocks)
    a.li("r3", s_tab)
    a.li("r4", p_tab)
    a.li("r15", 0)
    a.label("block")
    a.ld("r5", "r1", 0)        # left
    a.ld("r6", "r1", 1)        # right
    a.li("r7", rounds)
    a.li("r8", 0)              # round index
    a.label("round")
    a.add("r9", "r4", "r8")
    a.ld("r10", "r9", 0)       # P[i]
    a.xor("r5", "r5", "r10")
    # F(left): S-box lookup on the low byte plus a rotate-add.
    a.andi("r11", "r5", 255)
    a.add("r12", "r3", "r11")
    a.ld("r13", "r12", 0)
    a.srli("r14", "r5", 8)
    a.add("r13", "r13", "r14")
    a.xor("r6", "r6", "r13")
    # Swap halves.
    a.mov("r11", "r5")
    a.mov("r5", "r6")
    a.mov("r6", "r11")
    a.addi("r8", "r8", 1)
    a.blt("r8", "r7", "round")
    a.st("r5", "r1", 0)
    a.st("r6", "r1", 1)
    a.xor("r15", "r15", "r5")
    a.addi("r1", "r1", 2)
    a.addi("r2", "r2", -1)
    a.bne("r2", "r0", "block")
    a.st("r15", "r0", result)
    a.halt()
    return a.build()


def patricia_trie(input_name: str) -> Program:
    """MiBench patricia: bit-test trie walk over address keys."""
    n = 180 if input_name == "train" else 300
    nodes = 127
    seed = 53 if input_name == "train" else 59
    rng = random.Random(seed)
    # A complete binary trie stored as arrays: bit index per node, child
    # pointers (node ids; leaves point at themselves).
    bit_ix = [rng.randint(0, 15) for _ in range(nodes)]
    left = [0] * nodes
    right = [0] * nodes
    for i in range(nodes):
        left[i] = 2 * i + 1 if 2 * i + 1 < nodes else i
        right[i] = 2 * i + 2 if 2 * i + 2 < nodes else i
    keys = [rng.getrandbits(16) for _ in range(n)]

    a = Assembler("patricia")
    bit_tab = a.data_words(bit_ix, label="bits")
    left_tab = a.data_words(left, label="left")
    right_tab = a.data_words(right, label="right")
    key_tab = a.data_words(keys, label="keys")
    a.data_zeros(1, label="result")
    result = a.data_addr("result")

    a.li("r1", key_tab)
    a.li("r2", n)
    a.li("r3", bit_tab)
    a.li("r4", left_tab)
    a.li("r5", right_tab)
    a.li("r15", 0)
    a.label("loop")
    a.ld("r6", "r1", 0)        # key
    a.li("r7", 0)              # node
    a.li("r8", 7)              # depth limit
    a.label("walk")
    a.add("r9", "r3", "r7")
    a.ld("r10", "r9", 0)       # bit index
    a.srl("r11", "r6", "r10")
    a.andi("r11", "r11", 1)
    a.beq("r11", "r0", "go_left")
    a.add("r9", "r5", "r7")
    a.jmp("step")
    a.label("go_left")
    a.add("r9", "r4", "r7")
    a.label("step")
    a.ld("r7", "r9", 0)        # next node (serial chain)
    a.addi("r8", "r8", -1)
    a.bne("r8", "r0", "walk")
    a.add("r15", "r15", "r7")
    a.addi("r1", "r1", 1)
    a.addi("r2", "r2", -1)
    a.bne("r2", "r0", "loop")
    a.st("r15", "r0", result)
    a.halt()
    return a.build()
