"""SPECint2000-family kernels: pointer chasing, compression, symbolic code.

Each kernel captures the dominant inner-loop idiom its namesake is known
for (mcf: pointer chasing; gzip: hash-chain match; bzip2: move-to-front;
gcc: table-driven dispatch; parser: tokenizing; crafty: bit twiddling;
vpr: conditional cost accumulation; perlbmk: hashing).
"""

from __future__ import annotations

import random

from ..isa.assembler import Assembler
from ..isa.program import Program


def mcf_chase(input_name: str) -> Program:
    """mcf-style pointer chasing over a shuffled linked arc list."""
    # The linked structure exceeds the 32KB L1 (8K nodes x 8B links), so
    # the chase misses like the real mcf does.
    nodes = 8192 if input_name == "train" else 12288
    hops = 1000 if input_name == "train" else 1800
    seed = 7 if input_name == "train" else 13
    rng = random.Random(seed)
    order = list(range(nodes))
    rng.shuffle(order)
    next_links = [0] * nodes
    for i in range(nodes):
        next_links[order[i]] = order[(i + 1) % nodes]
    costs = [rng.randint(1, 100) for _ in range(nodes)]

    a = Assembler("mcf")
    links = a.data_words(next_links, label="links")
    cost_tab = a.data_words(costs, label="costs")
    a.data_zeros(1, label="result")
    result = a.data_addr("result")

    a.li("r1", 0)            # current node
    a.li("r3", hops)
    a.li("r4", links)
    a.li("r5", cost_tab)
    a.li("r15", 0)           # total cost
    a.label("loop")
    a.add("r6", "r5", "r1")
    a.ld("r7", "r6", 0)      # cost[node]
    a.add("r15", "r15", "r7")
    a.andi("r8", "r7", 1)
    a.beq("r8", "r0", "even")
    a.slli("r9", "r7", 1)
    a.add("r15", "r15", "r9")  # odd-cost arcs weigh triple
    a.label("even")
    a.add("r6", "r4", "r1")
    a.ld("r1", "r6", 0)      # node = links[node] (serial chain)
    a.addi("r3", "r3", -1)
    a.bne("r3", "r0", "loop")
    a.st("r15", "r0", result)
    a.halt()
    return a.build()


def gzip_match(input_name: str) -> Program:
    """gzip-style longest-match search against a hash-selected window."""
    n = 400 if input_name == "train" else 700
    seed = 19 if input_name == "train" else 37
    rng = random.Random(seed)
    # Compressible text: small alphabet with repeats.
    text = []
    while len(text) < n:
        run = [rng.randint(97, 101)] * rng.randint(1, 6)
        text.extend(run)
    text = text[:n]

    a = Assembler("gzip")
    data = a.data_words(text, label="text")
    a.data_zeros(1, label="result")
    result = a.data_addr("result")

    a.li("r1", data + 8)     # cursor
    a.li("r2", n - 16)       # iterations
    a.li("r15", 0)           # match-length checksum
    a.label("loop")
    a.ld("r4", "r1", 0)
    a.ld("r5", "r1", 1)
    a.slli("r6", "r4", 3)
    a.xor("r6", "r6", "r5")
    a.andi("r6", "r6", 7)    # "hash" picks a back-distance 1..8
    a.addi("r6", "r6", 1)
    a.sub("r7", "r1", "r6")  # candidate match position
    a.li("r8", 0)            # match length
    a.label("match")
    a.add("r9", "r7", "r8")
    a.ld("r10", "r9", 0)
    a.add("r11", "r1", "r8")
    a.ld("r12", "r11", 0)
    a.bne("r10", "r12", "nomatch")
    a.addi("r8", "r8", 1)
    a.slti("r13", "r8", 8)
    a.bne("r13", "r0", "match")
    a.label("nomatch")
    a.add("r15", "r15", "r8")
    a.addi("r1", "r1", 1)
    a.addi("r2", "r2", -1)
    a.bne("r2", "r0", "loop")
    a.st("r15", "r0", result)
    a.halt()
    return a.build()


def bzip2_mtf(input_name: str) -> Program:
    """bzip2-style move-to-front transform over a byte stream."""
    n = 220 if input_name == "train" else 380
    alpha = 16
    seed = 43 if input_name == "train" else 67
    rng = random.Random(seed)
    stream = [rng.choice([0, 1, 1, 2, 3, 3, 3, 5, 8, 13][:10]) % alpha
              for _ in range(n)]

    a = Assembler("bzip2")
    data = a.data_words(stream, label="stream")
    mtf = a.data_words(list(range(alpha)), label="mtf")
    a.data_zeros(1, label="result")
    result = a.data_addr("result")

    a.li("r1", data)
    a.li("r2", n)
    a.li("r3", mtf)
    a.li("r15", 0)
    a.label("loop")
    a.ld("r4", "r1", 0)      # symbol
    # Find its rank in the MTF list.
    a.li("r5", 0)            # rank
    a.label("scan")
    a.add("r6", "r3", "r5")
    a.ld("r7", "r6", 0)
    a.beq("r7", "r4", "found")
    a.addi("r5", "r5", 1)
    a.jmp("scan")
    a.label("found")
    a.add("r15", "r15", "r5")
    # Shift list entries 0..rank-1 up by one, put symbol at front.
    a.label("shift")
    a.beq("r5", "r0", "front")
    a.addi("r8", "r5", -1)
    a.add("r9", "r3", "r8")
    a.ld("r10", "r9", 0)
    a.add("r11", "r3", "r5")
    a.st("r10", "r11", 0)
    a.mov("r5", "r8")
    a.jmp("shift")
    a.label("front")
    a.st("r4", "r3", 0)
    a.addi("r1", "r1", 1)
    a.addi("r2", "r2", -1)
    a.bne("r2", "r0", "loop")
    a.st("r15", "r0", result)
    a.halt()
    return a.build()


def gcc_dispatch(input_name: str) -> Program:
    """gcc-style table-driven opcode dispatch over an instruction stream."""
    n = 350 if input_name == "train" else 600
    seed = 71 if input_name == "train" else 73
    rng = random.Random(seed)
    ops = [rng.randint(0, 3) for _ in range(n)]
    operands = [rng.randint(0, 1000) for _ in range(n)]

    a = Assembler("gcc")
    op_tab = a.data_words(ops, label="ops")
    val_tab = a.data_words(operands, label="vals")
    a.data_zeros(1, label="result")
    result = a.data_addr("result")

    a.li("r1", op_tab)
    a.li("r2", val_tab)
    a.li("r3", n)
    a.li("r15", 0)           # accumulator
    a.label("loop")
    a.ld("r4", "r1", 0)
    a.ld("r5", "r2", 0)
    a.seqi("r6", "r4", 0)
    a.bne("r6", "r0", "op_add")
    a.seqi("r6", "r4", 1)
    a.bne("r6", "r0", "op_sub")
    a.seqi("r6", "r4", 2)
    a.bne("r6", "r0", "op_shift")
    a.xor("r15", "r15", "r5")      # default: xor
    a.jmp("next")
    a.label("op_add")
    a.add("r15", "r15", "r5")
    a.jmp("next")
    a.label("op_sub")
    a.sub("r15", "r15", "r5")
    a.jmp("next")
    a.label("op_shift")
    a.andi("r7", "r5", 7)
    a.sll("r8", "r15", "r7")
    a.srl("r9", "r15", "r7")
    a.or_("r15", "r8", "r9")
    a.label("next")
    a.addi("r1", "r1", 1)
    a.addi("r2", "r2", 1)
    a.addi("r3", "r3", -1)
    a.bne("r3", "r0", "loop")
    a.st("r15", "r0", result)
    a.halt()
    return a.build()


def parser_tokens(input_name: str) -> Program:
    """parser-style tokenizer: classify characters, accumulate word lengths."""
    n = 420 if input_name == "train" else 720
    seed = 79 if input_name == "train" else 83
    rng = random.Random(seed)
    text = []
    while len(text) < n:
        text.extend(rng.randint(97, 122) for _ in range(rng.randint(1, 7)))
        text.append(32)
    text = text[:n]
    text[-1] = 32

    a = Assembler("parser")
    data = a.data_words(text, label="text")
    hist = a.data_zeros(16, label="hist")
    a.data_zeros(1, label="result")
    result = a.data_addr("result")

    a.li("r1", data)
    a.li("r2", n)
    a.li("r3", 0)            # current word length
    a.li("r4", hist)
    a.li("r15", 0)
    a.label("loop")
    a.ld("r5", "r1", 0)
    a.seqi("r6", "r5", 32)
    a.beq("r6", "r0", "inword")
    # Word boundary: bump the length histogram.
    a.beq("r3", "r0", "next")
    a.andi("r7", "r3", 15)
    a.add("r8", "r4", "r7")
    a.ld("r9", "r8", 0)
    a.addi("r9", "r9", 1)
    a.st("r9", "r8", 0)
    a.add("r15", "r15", "r3")
    a.li("r3", 0)
    a.jmp("next")
    a.label("inword")
    a.addi("r3", "r3", 1)
    a.xor("r15", "r15", "r5")
    a.label("next")
    a.addi("r1", "r1", 1)
    a.addi("r2", "r2", -1)
    a.bne("r2", "r0", "loop")
    a.st("r15", "r0", result)
    a.halt()
    return a.build()


def crafty_bits(input_name: str) -> Program:
    """crafty-style bitboard manipulation: popcounts and shifts."""
    n = 130 if input_name == "train" else 230
    seed = 89 if input_name == "train" else 97
    rng = random.Random(seed)
    boards = [rng.getrandbits(32) for _ in range(n)]

    a = Assembler("crafty")
    data = a.data_words(boards, label="boards")
    a.data_zeros(1, label="result")
    result = a.data_addr("result")

    a.li("r1", data)
    a.li("r2", n)
    a.li("r15", 0)
    a.label("loop")
    a.ld("r4", "r1", 0)
    # Kernighan popcount (data-dependent trip count).
    a.li("r5", 0)
    a.label("pop")
    a.beq("r4", "r0", "done_pop")
    a.addi("r6", "r4", -1)
    a.and_("r4", "r4", "r6")
    a.addi("r5", "r5", 1)
    a.jmp("pop")
    a.label("done_pop")
    # Fold attack-mask style shifted planes into the checksum.
    a.ld("r4", "r1", 0)
    a.slli("r7", "r4", 8)
    a.srli("r8", "r4", 8)
    a.or_("r9", "r7", "r8")
    a.xor("r15", "r15", "r9")
    a.add("r15", "r15", "r5")
    a.addi("r1", "r1", 1)
    a.addi("r2", "r2", -1)
    a.bne("r2", "r0", "loop")
    a.st("r15", "r0", result)
    a.halt()
    return a.build()


def vpr_cost(input_name: str) -> Program:
    """vpr-style placement cost: bounding-box deltas with clamping."""
    n = 300 if input_name == "train" else 520
    seed = 101 if input_name == "train" else 103
    rng = random.Random(seed)
    xs = [rng.randint(0, 63) for _ in range(n)]
    ys = [rng.randint(0, 63) for _ in range(n)]

    a = Assembler("vpr")
    x_tab = a.data_words(xs, label="xs")
    y_tab = a.data_words(ys, label="ys")
    a.data_zeros(1, label="result")
    result = a.data_addr("result")

    a.li("r1", x_tab)
    a.li("r2", y_tab)
    a.li("r3", n - 1)
    a.li("r15", 0)
    a.label("loop")
    a.ld("r4", "r1", 0)
    a.ld("r5", "r1", 1)
    a.ld("r6", "r2", 0)
    a.ld("r7", "r2", 1)
    a.sub("r8", "r4", "r5")
    a.bge("r8", "r0", "absx")
    a.sub("r8", "r0", "r8")
    a.label("absx")
    a.sub("r9", "r6", "r7")
    a.bge("r9", "r0", "absy")
    a.sub("r9", "r0", "r9")
    a.label("absy")
    a.add("r10", "r8", "r9")     # manhattan distance
    a.slti("r11", "r10", 32)
    a.bne("r11", "r0", "cheap")
    a.slli("r10", "r10", 1)      # long wires cost double
    a.label("cheap")
    a.add("r15", "r15", "r10")
    a.addi("r1", "r1", 1)
    a.addi("r2", "r2", 1)
    a.addi("r3", "r3", -1)
    a.bne("r3", "r0", "loop")
    a.st("r15", "r0", result)
    a.halt()
    return a.build()


def perl_hash(input_name: str) -> Program:
    """perlbmk-style string hashing into a small open-addressed table."""
    n = 240 if input_name == "train" else 420
    table_size = 64
    seed = 107 if input_name == "train" else 109
    rng = random.Random(seed)
    # Keys from a small universe: the table never fills, probes stay short.
    keys = [rng.randint(1, 44) for _ in range(n)]

    a = Assembler("perlbmk")
    key_tab = a.data_words(keys, label="keys")
    table = a.data_zeros(table_size, label="table")
    a.data_zeros(1, label="result")
    result = a.data_addr("result")

    a.li("r1", key_tab)
    a.li("r2", n)
    a.li("r3", table)
    a.li("r15", 0)
    a.label("loop")
    a.ld("r4", "r1", 0)
    # h = (k * 33 + 7) mod 64 via shift-add
    a.slli("r5", "r4", 5)
    a.add("r5", "r5", "r4")
    a.addi("r5", "r5", 7)
    a.andi("r5", "r5", 63)
    # Linear probe (bounded) until an empty or matching slot.
    a.li("r8", table_size)
    a.label("probe")
    a.add("r6", "r3", "r5")
    a.ld("r7", "r6", 0)
    a.beq("r7", "r0", "insert")
    a.beq("r7", "r4", "hit")
    a.addi("r5", "r5", 1)
    a.andi("r5", "r5", 63)
    a.addi("r8", "r8", -1)
    a.bne("r8", "r0", "probe")
    a.jmp("next")            # table full: drop the key
    a.label("insert")
    a.st("r4", "r6", 0)
    a.addi("r15", "r15", 1)
    a.jmp("next")
    a.label("hit")
    a.addi("r15", "r15", 2)
    a.label("next")
    a.addi("r1", "r1", 1)
    a.addi("r2", "r2", -1)
    a.bne("r2", "r0", "loop")
    a.st("r15", "r0", result)
    a.halt()
    return a.build()
