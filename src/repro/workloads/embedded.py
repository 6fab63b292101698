"""MiBench-family kernels: embedded sort/search/crypto/math loops.

MiBench uses ``small``/``large`` input names; this module follows the
repository-wide ``train``/``ref`` convention (train ≙ small).
"""

from __future__ import annotations

import random

from ..isa.assembler import Assembler
from ..isa.instruction import REG_RA
from ..isa.program import Program


def qsort_kernel(input_name: str) -> Program:
    """In-place insertion sort (qsort's small-partition workhorse)."""
    n = 56 if input_name == "train" else 88
    seed = 3 if input_name == "train" else 7
    rng = random.Random(seed)
    values = [rng.randint(0, 10000) for _ in range(n)]

    a = Assembler("qsort")
    data = a.data_words(values, label="data")
    a.data_zeros(1, label="result")
    result = a.data_addr("result")

    a.li("r1", data)
    a.li("r2", 1)              # i
    a.li("r3", n)
    a.label("outer")
    a.add("r4", "r1", "r2")
    a.ld("r5", "r4", 0)        # key
    a.mov("r6", "r2")          # j
    a.label("inner")
    a.beq("r6", "r0", "place")
    a.addi("r7", "r6", -1)
    a.add("r8", "r1", "r7")
    a.ld("r9", "r8", 0)
    a.bge("r5", "r9", "place")
    a.add("r10", "r1", "r6")
    a.st("r9", "r10", 0)
    a.mov("r6", "r7")
    a.jmp("inner")
    a.label("place")
    a.add("r10", "r1", "r6")
    a.st("r5", "r10", 0)
    a.addi("r2", "r2", 1)
    a.blt("r2", "r3", "outer")
    # Checksum: weighted sum to catch misordering.
    a.li("r2", 0)
    a.li("r15", 0)
    a.label("check")
    a.add("r4", "r1", "r2")
    a.ld("r5", "r4", 0)
    a.mul("r6", "r5", "r2")
    a.add("r15", "r15", "r6")
    a.addi("r2", "r2", 1)
    a.blt("r2", "r3", "check")
    a.st("r15", "r0", result)
    a.halt()
    return a.build()


def dijkstra_kernel(input_name: str) -> Program:
    """Dijkstra relaxation over a dense adjacency matrix."""
    nodes = 14 if input_name == "train" else 20
    seed = 11 if input_name == "train" else 13
    rng = random.Random(seed)
    inf = 1 << 20
    adj = []
    for i in range(nodes):
        for j in range(nodes):
            if i == j:
                adj.append(0)
            elif rng.random() < 0.4:
                adj.append(rng.randint(1, 50))
            else:
                adj.append(inf)

    a = Assembler("dijkstra")
    matrix = a.data_words(adj, label="adj")
    dist = a.data_words([0] + [inf] * (nodes - 1), label="dist")
    visited = a.data_zeros(nodes, label="visited")
    a.data_zeros(1, label="result")
    result = a.data_addr("result")

    a.li("r1", nodes)          # rounds remaining
    a.label("round")
    # Find the unvisited node with the minimum distance.
    a.li("r2", 0)              # scan index
    a.li("r3", -1)             # best node
    a.li("r4", inf + 1)        # best distance
    a.label("scan")
    a.li("r5", visited)
    a.add("r5", "r5", "r2")
    a.ld("r6", "r5", 0)
    a.bne("r6", "r0", "skip")
    a.li("r5", dist)
    a.add("r5", "r5", "r2")
    a.ld("r7", "r5", 0)
    a.bge("r7", "r4", "skip")
    a.mov("r4", "r7")
    a.mov("r3", "r2")
    a.label("skip")
    a.addi("r2", "r2", 1)
    a.slti("r8", "r2", nodes)
    a.bne("r8", "r0", "scan")
    a.blt("r3", "r0", "finish")
    # Mark visited; relax its out-edges.
    a.li("r5", visited)
    a.add("r5", "r5", "r3")
    a.li("r6", 1)
    a.st("r6", "r5", 0)
    a.li("r9", nodes)
    a.mul("r10", "r3", "r9")   # row offset
    a.li("r2", 0)
    a.label("relax")
    a.li("r5", matrix)
    a.add("r5", "r5", "r10")
    a.add("r5", "r5", "r2")
    a.ld("r11", "r5", 0)       # w(best, j)
    a.add("r12", "r4", "r11")  # candidate distance
    a.li("r5", dist)
    a.add("r5", "r5", "r2")
    a.ld("r13", "r5", 0)
    a.bge("r12", "r13", "norelax")
    a.st("r12", "r5", 0)
    a.label("norelax")
    a.addi("r2", "r2", 1)
    a.slti("r8", "r2", nodes)
    a.bne("r8", "r0", "relax")
    a.addi("r1", "r1", -1)
    a.bne("r1", "r0", "round")
    a.label("finish")
    a.li("r2", 0)
    a.li("r15", 0)
    a.label("sum")
    a.li("r5", dist)
    a.add("r5", "r5", "r2")
    a.ld("r6", "r5", 0)
    a.add("r15", "r15", "r6")
    a.addi("r2", "r2", 1)
    a.slti("r8", "r2", nodes)
    a.bne("r8", "r0", "sum")
    a.st("r15", "r0", result)
    a.halt()
    return a.build()


def sha_mix(input_name: str) -> Program:
    """SHA-style message mixing rounds: rotate-xor-add dataflow."""
    blocks = 14 if input_name == "train" else 24
    seed = 17 if input_name == "train" else 19
    rng = random.Random(seed)
    words = [rng.getrandbits(32) for _ in range(blocks * 16)]

    a = Assembler("sha")
    msg = a.data_words(words, label="msg")
    a.data_zeros(1, label="result")
    result = a.data_addr("result")
    mask = 0xFFFFFFFF

    a.li("r1", msg)
    a.li("r2", blocks)
    a.li("r4", 0x67452301)     # state a
    a.li("r5", 0xEFCDAB89)     # state b
    a.li("r6", 0x98BADCFE)     # state c
    a.label("block")
    a.li("r3", 16)
    a.label("round")
    a.ld("r7", "r1", 0)
    # rotate-left a by 5 (32-bit)
    a.slli("r8", "r4", 5)
    a.srli("r9", "r4", 27)
    a.or_("r8", "r8", "r9")
    a.li("r12", mask)
    a.and_("r8", "r8", "r12")
    # f = b xor c
    a.xor("r10", "r5", "r6")
    a.add("r11", "r8", "r10")
    a.add("r11", "r11", "r7")
    a.and_("r11", "r11", "r12")
    # shift state: c <- b rot 30, b <- a, a <- mixed
    a.slli("r13", "r5", 30)
    a.srli("r14", "r5", 2)
    a.or_("r6", "r13", "r14")
    a.and_("r6", "r6", "r12")
    a.mov("r5", "r4")
    a.mov("r4", "r11")
    a.addi("r1", "r1", 1)
    a.addi("r3", "r3", -1)
    a.bne("r3", "r0", "round")
    a.addi("r2", "r2", -1)
    a.bne("r2", "r0", "block")
    a.xor("r15", "r4", "r5")
    a.xor("r15", "r15", "r6")
    a.st("r15", "r0", result)
    a.halt()
    return a.build()


def stringsearch(input_name: str) -> Program:
    """Brute-force substring search with first-character skip loop."""
    n = 380 if input_name == "train" else 640
    seed = 23 if input_name == "train" else 29
    rng = random.Random(seed)
    haystack = [rng.randint(97, 103) for _ in range(n)]
    needle = [98, 99, 98, 100]
    # Plant a few real matches.
    for pos in range(10, n - 8, n // 7):
        haystack[pos:pos + 4] = needle

    a = Assembler("stringsearch")
    hay = a.data_words(haystack, label="hay")
    pat = a.data_words(needle, label="pat")
    a.data_zeros(1, label="result")
    result = a.data_addr("result")
    m = len(needle)

    a.li("r1", hay)
    a.li("r2", n - m)
    a.li("r3", pat)
    a.ld("r4", "r3", 0)        # first pattern char
    a.li("r15", 0)             # match count
    a.label("loop")
    a.ld("r5", "r1", 0)
    a.bne("r5", "r4", "next")
    # Verify the remaining characters.
    a.li("r6", 1)
    a.label("verify")
    a.add("r7", "r1", "r6")
    a.ld("r8", "r7", 0)
    a.add("r9", "r3", "r6")
    a.ld("r10", "r9", 0)
    a.bne("r8", "r10", "next")
    a.addi("r6", "r6", 1)
    a.slti("r11", "r6", m)
    a.bne("r11", "r0", "verify")
    a.addi("r15", "r15", 1)
    a.label("next")
    a.addi("r1", "r1", 1)
    a.addi("r2", "r2", -1)
    a.bne("r2", "r0", "loop")
    a.st("r15", "r0", result)
    a.halt()
    return a.build()


def bitcount(input_name: str) -> Program:
    """MiBench bitcount: several counting strategies over a value stream."""
    n = 180 if input_name == "train" else 320
    seed = 31 if input_name == "train" else 37
    rng = random.Random(seed)
    values = [rng.getrandbits(32) for _ in range(n)]
    # Nibble-popcount lookup table.
    nib = [bin(i).count("1") for i in range(16)]

    a = Assembler("bitcount")
    data = a.data_words(values, label="data")
    table = a.data_words(nib, label="nib")
    a.data_zeros(1, label="result")
    result = a.data_addr("result")

    a.li("r1", data)
    a.li("r2", n)
    a.li("r3", table)
    a.li("r15", 0)
    a.label("loop")
    a.ld("r4", "r1", 0)
    # Strategy 1: table lookup on the low byte's two nibbles.
    a.andi("r5", "r4", 15)
    a.add("r6", "r3", "r5")
    a.ld("r7", "r6", 0)
    a.srli("r5", "r4", 4)
    a.andi("r5", "r5", 15)
    a.add("r6", "r3", "r5")
    a.ld("r8", "r6", 0)
    a.add("r15", "r15", "r7")
    a.add("r15", "r15", "r8")
    # Strategy 2: shift-and-mask reduction of the high half.
    a.srli("r9", "r4", 16)
    a.srli("r10", "r9", 1)
    a.andi("r10", "r10", 0x5555)
    a.sub("r9", "r9", "r10")
    a.andi("r11", "r9", 0x3333)
    a.srli("r12", "r9", 2)
    a.andi("r12", "r12", 0x3333)
    a.add("r9", "r11", "r12")
    a.srli("r12", "r9", 4)
    a.add("r9", "r9", "r12")
    a.andi("r9", "r9", 0x0F0F)
    a.srli("r12", "r9", 8)
    a.add("r9", "r9", "r12")
    a.andi("r9", "r9", 63)
    a.add("r15", "r15", "r9")
    a.addi("r1", "r1", 1)
    a.addi("r2", "r2", -1)
    a.bne("r2", "r0", "loop")
    a.st("r15", "r0", result)
    a.halt()
    return a.build()


def fft_fixed(input_name: str) -> Program:
    """Fixed-point radix-2 butterfly pass over interleaved complex data."""
    n = 128 if input_name == "train" else 256
    seed = 41 if input_name == "train" else 43
    rng = random.Random(seed)
    re = [rng.randint(-2048, 2048) for _ in range(n)]
    im = [rng.randint(-2048, 2048) for _ in range(n)]

    a = Assembler("fft")
    re_tab = a.data_words(re, label="re")
    im_tab = a.data_words(im, label="im")
    a.data_zeros(1, label="result")
    result = a.data_addr("result")

    a.li("r1", re_tab)
    a.li("r2", im_tab)
    a.li("r3", n // 2)
    a.li("r15", 0)
    a.label("bfly")
    a.ld("r4", "r1", 0)        # re[even]
    a.ld("r5", "r1", 1)        # re[odd]
    a.ld("r6", "r2", 0)        # im[even]
    a.ld("r7", "r2", 1)        # im[odd]
    # Twiddle ~ (3/4, 1/4) in shift arithmetic.
    a.srai("r8", "r5", 2)
    a.sub("r9", "r5", "r8")    # 3/4 re_odd
    a.srai("r10", "r7", 2)     # 1/4 im_odd
    a.sub("r11", "r9", "r10")  # t_re
    a.srai("r8", "r7", 2)
    a.sub("r12", "r7", "r8")   # 3/4 im_odd
    a.srai("r13", "r5", 2)
    a.add("r12", "r12", "r13")  # t_im
    a.add("r14", "r4", "r11")
    a.st("r14", "r1", 0)
    a.sub("r14", "r4", "r11")
    a.st("r14", "r1", 1)
    a.add("r14", "r6", "r12")
    a.st("r14", "r2", 0)
    a.sub("r14", "r6", "r12")
    a.st("r14", "r2", 1)
    a.xor("r15", "r15", "r14")
    a.addi("r1", "r1", 2)
    a.addi("r2", "r2", 2)
    a.addi("r3", "r3", -1)
    a.bne("r3", "r0", "bfly")
    a.st("r15", "r0", result)
    a.halt()
    return a.build()


def basicmath(input_name: str) -> Program:
    """MiBench basicmath: Euclid GCD over number pairs (call/return)."""
    n = 90 if input_name == "train" else 160
    seed = 47 if input_name == "train" else 53
    rng = random.Random(seed)
    pairs = []
    for _ in range(n):
        pairs.append(rng.randint(1, 5000))
        pairs.append(rng.randint(1, 5000))

    a = Assembler("basicmath")
    data = a.data_words(pairs, label="pairs")
    a.data_zeros(1, label="result")
    result = a.data_addr("result")

    a.li("r1", data)
    a.li("r2", n)
    a.li("r15", 0)
    a.label("loop")
    a.ld("r4", "r1", 0)
    a.ld("r5", "r1", 1)
    a.jal("gcd")
    a.add("r15", "r15", "r4")
    a.addi("r1", "r1", 2)
    a.addi("r2", "r2", -1)
    a.bne("r2", "r0", "loop")
    a.st("r15", "r0", result)
    a.halt()
    # gcd(r4, r5) -> r4, clobbers r6
    a.label("gcd")
    a.beq("r5", "r0", "gcd_done")
    a.rem("r6", "r4", "r5")
    a.mov("r4", "r5")
    a.mov("r5", "r6")
    a.jmp("gcd")
    a.label("gcd_done")
    a.jr(REG_RA)
    return a.build()


def susan_threshold(input_name: str) -> Program:
    """susan-style image thresholding with neighbourhood comparison."""
    width = 24
    height = 16 if input_name == "train" else 28
    seed = 59 if input_name == "train" else 61
    rng = random.Random(seed)
    image = [rng.randint(0, 255) for _ in range(width * height)]

    a = Assembler("susan")
    img = a.data_words(image, label="img")
    out = a.data_zeros(width * height, label="out")
    a.data_zeros(1, label="result")
    result = a.data_addr("result")
    threshold = 27

    a.li("r1", 1)              # row
    a.li("r2", height - 1)
    a.li("r15", 0)
    a.label("row")
    a.li("r3", 1)              # col
    a.label("col")
    a.li("r4", width)
    a.mul("r5", "r1", "r4")
    a.add("r5", "r5", "r3")    # index
    a.li("r6", img)
    a.add("r6", "r6", "r5")
    a.ld("r7", "r6", 0)        # centre
    a.li("r8", 0)              # USAN count
    # Compare against 4 neighbours.
    for offset in (-1, 1, -width, width):
        skip = f"n{offset}"
        a.ld("r9", "r6", offset)
        a.sub("r10", "r9", "r7")
        a.bge("r10", "r0", f"abs{offset}")
        a.sub("r10", "r0", "r10")
        a.label(f"abs{offset}")
        a.slti("r11", "r10", threshold)
        a.beq("r11", "r0", skip)
        a.addi("r8", "r8", 1)
        a.label(skip)
    a.li("r12", out)
    a.add("r12", "r12", "r5")
    a.st("r8", "r12", 0)
    a.add("r15", "r15", "r8")
    a.addi("r3", "r3", 1)
    a.slti("r13", "r3", width - 1)
    a.bne("r13", "r0", "col")
    a.addi("r1", "r1", 1)
    a.blt("r1", "r2", "row")
    a.st("r15", "r0", result)
    a.halt()
    return a.build()
