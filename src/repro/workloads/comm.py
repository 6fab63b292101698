"""CommBench-family kernels: checksums, coding, and packet scheduling."""

from __future__ import annotations

import random

from ..isa.assembler import Assembler
from ..isa.program import Program


def _crc32_table() -> list:
    table = []
    for n in range(256):
        c = n
        for _ in range(8):
            c = (0xEDB88320 ^ (c >> 1)) if c & 1 else (c >> 1)
        table.append(c)
    return table


def crc32(input_name: str) -> Program:
    """Table-driven CRC32 over a message buffer."""
    n = 400 if input_name == "train" else 680
    seed = 3 if input_name == "train" else 5
    rng = random.Random(seed)
    message = [rng.randint(0, 255) for _ in range(n)]

    a = Assembler("crc32")
    table = a.data_words(_crc32_table(), label="crctab")
    data = a.data_words(message, label="msg")
    a.data_zeros(1, label="result")
    result = a.data_addr("result")

    a.li("r1", data)
    a.li("r2", n)
    a.li("r3", table)
    a.li("r4", 0xFFFFFFFF)     # crc
    a.label("loop")
    a.ld("r5", "r1", 0)
    a.xor("r6", "r4", "r5")
    a.andi("r6", "r6", 255)
    a.add("r7", "r3", "r6")
    a.ld("r8", "r7", 0)
    a.srli("r9", "r4", 8)
    a.xor("r4", "r8", "r9")
    a.addi("r1", "r1", 1)
    a.addi("r2", "r2", -1)
    a.bne("r2", "r0", "loop")
    a.st("r4", "r0", result)
    a.halt()
    return a.build()


def rs_gf_encode(input_name: str) -> Program:
    """Reed-Solomon-style GF(256) parity: log/antilog table multiplies."""
    n = 230 if input_name == "train" else 400
    seed = 11 if input_name == "train" else 31
    rng = random.Random(seed)
    # GF(256) log/alog tables over the AES polynomial.
    alog = [1] * 256
    for i in range(1, 255):
        v = alog[i - 1] << 1
        if v & 0x100:
            v ^= 0x11B
        alog[i] = v & 0xFF
    log = [0] * 256
    for i in range(255):
        log[alog[i]] = i
    data = [rng.randint(1, 255) for _ in range(n)]
    gens = [rng.randint(1, 255) for _ in range(8)]

    a = Assembler("rsenc")
    log_tab = a.data_words(log, label="log")
    alog_tab = a.data_words(alog + alog, label="alog")  # doubled: no mod
    msg = a.data_words(data, label="msg")
    gen = a.data_words(gens, label="gen")
    a.data_zeros(1, label="result")
    result = a.data_addr("result")

    a.li("r1", msg)
    a.li("r2", n)
    a.li("r3", log_tab)
    a.li("r4", alog_tab)
    a.li("r5", gen)
    a.li("r15", 0)             # parity accumulator
    a.li("r14", 0)             # generator index
    a.label("loop")
    a.ld("r6", "r1", 0)        # symbol (nonzero)
    a.add("r7", "r5", "r14")
    a.ld("r8", "r7", 0)        # generator coefficient
    # GF multiply: alog[log[a] + log[b]]
    a.add("r9", "r3", "r6")
    a.ld("r10", "r9", 0)
    a.add("r9", "r3", "r8")
    a.ld("r11", "r9", 0)
    a.add("r12", "r10", "r11")
    a.add("r9", "r4", "r12")
    a.ld("r13", "r9", 0)
    a.xor("r15", "r15", "r13")
    a.addi("r14", "r14", 1)
    a.andi("r14", "r14", 7)
    a.addi("r1", "r1", 1)
    a.addi("r2", "r2", -1)
    a.bne("r2", "r0", "loop")
    a.st("r15", "r0", result)
    a.halt()
    return a.build()


def drr_sched(input_name: str) -> Program:
    """Deficit-round-robin packet scheduler over per-flow queues."""
    rounds = 60 if input_name == "train" else 110
    flows = 8
    seed = 13 if input_name == "train" else 41
    rng = random.Random(seed)
    sizes = [rng.randint(40, 1500) for _ in range(flows * 4)]

    a = Assembler("drr")
    size_tab = a.data_words(sizes, label="sizes")
    deficits = a.data_zeros(flows, label="deficits")
    a.data_zeros(1, label="result")
    result = a.data_addr("result")
    quantum = 500

    a.li("r1", rounds)
    a.li("r15", 0)             # bytes sent
    a.label("round")
    a.li("r2", 0)              # flow index
    a.label("flow")
    a.li("r3", deficits)
    a.add("r3", "r3", "r2")
    a.ld("r4", "r3", 0)
    a.addi("r4", "r4", quantum)
    # Pick this flow's "head packet" size: sizes[(flow*4 + round) & 31]
    a.slli("r5", "r2", 2)
    a.add("r5", "r5", "r1")
    a.andi("r5", "r5", 31)
    a.li("r6", size_tab)
    a.add("r6", "r6", "r5")
    a.ld("r7", "r6", 0)
    # Send packets while deficit covers them.
    a.label("send")
    a.blt("r4", "r7", "done_send")
    a.sub("r4", "r4", "r7")
    a.add("r15", "r15", "r7")
    a.addi("r7", "r7", 64)     # next packet slightly larger
    a.jmp("send")
    a.label("done_send")
    a.st("r4", "r3", 0)
    a.addi("r2", "r2", 1)
    a.slti("r8", "r2", flows)
    a.bne("r8", "r0", "flow")
    a.addi("r1", "r1", -1)
    a.bne("r1", "r0", "round")
    a.st("r15", "r0", result)
    a.halt()
    return a.build()


def ipchk(input_name: str) -> Program:
    """IP-style one's-complement header checksum over packet words."""
    packets = 70 if input_name == "train" else 120
    words = 10
    seed = 17 if input_name == "train" else 43
    rng = random.Random(seed)
    headers = [rng.randint(0, 0xFFFF) for _ in range(packets * words)]

    a = Assembler("ipchk")
    data = a.data_words(headers, label="headers")
    a.data_zeros(1, label="result")
    result = a.data_addr("result")

    a.li("r1", data)
    a.li("r2", packets)
    a.li("r15", 0)
    a.label("packet")
    a.li("r3", words)
    a.li("r4", 0)              # sum
    a.label("word")
    a.ld("r5", "r1", 0)
    a.add("r4", "r4", "r5")
    # Fold carries out of the low 16 bits.
    a.srli("r6", "r4", 16)
    a.andi("r4", "r4", 0xFFFF)
    a.add("r4", "r4", "r6")
    a.addi("r1", "r1", 1)
    a.addi("r3", "r3", -1)
    a.bne("r3", "r0", "word")
    a.xori("r4", "r4", 0xFFFF)
    a.xor("r15", "r15", "r4")
    a.addi("r2", "r2", -1)
    a.bne("r2", "r0", "packet")
    a.st("r15", "r0", result)
    a.halt()
    return a.build()


def red_queue(input_name: str) -> Program:
    """RED-style queue management: EWMA average and drop decisions."""
    n = 320 if input_name == "train" else 560
    seed = 19 if input_name == "train" else 47
    rng = random.Random(seed)
    arrivals = [rng.randint(0, 120) for _ in range(n)]

    a = Assembler("red")
    data = a.data_words(arrivals, label="arrivals")
    a.data_zeros(1, label="result")
    result = a.data_addr("result")
    min_th, max_th = 20, 80

    a.li("r1", data)
    a.li("r2", n)
    a.li("r4", 0)              # avg (fixed-point <<4)
    a.li("r15", 0)             # drops
    a.label("loop")
    a.ld("r5", "r1", 0)        # instantaneous queue length
    # avg += (q - avg) >> 3   (EWMA in <<4 fixed point)
    a.slli("r6", "r5", 4)
    a.sub("r7", "r6", "r4")
    a.srai("r7", "r7", 3)
    a.add("r4", "r4", "r7")
    a.srai("r8", "r4", 4)
    a.slti("r9", "r8", min_th)
    a.bne("r9", "r0", "accept")
    a.slti("r9", "r8", max_th)
    a.beq("r9", "r0", "drop")
    # Probabilistic region: drop when (avg ^ q) has low bits set.
    a.xor("r10", "r8", "r5")
    a.andi("r10", "r10", 3)
    a.bne("r10", "r0", "accept")
    a.label("drop")
    a.addi("r15", "r15", 1)
    a.label("accept")
    a.addi("r1", "r1", 1)
    a.addi("r2", "r2", -1)
    a.bne("r2", "r0", "loop")
    a.st("r15", "r0", result)
    a.halt()
    return a.build()


def zrle(input_name: str) -> Program:
    """Zero run-length encoder (transport-stream style)."""
    n = 380 if input_name == "train" else 640
    seed = 23 if input_name == "train" else 53
    rng = random.Random(seed)
    data = []
    while len(data) < n:
        if rng.random() < 0.5:
            data.extend([0] * rng.randint(1, 9))
        else:
            data.append(rng.randint(1, 255))
    data = data[:n]
    data[-1] = 1  # terminate any trailing run

    a = Assembler("zrle")
    src = a.data_words(data, label="src")
    dst = a.data_zeros(n + 4, label="dst")
    a.data_zeros(1, label="result")
    result = a.data_addr("result")

    a.li("r1", src)
    a.li("r2", dst)
    a.li("r3", n)
    a.li("r15", 0)             # emitted words
    a.label("loop")
    a.ld("r4", "r1", 0)
    a.bne("r4", "r0", "literal")
    # Count the zero run.
    a.li("r5", 0)
    a.label("run")
    a.addi("r5", "r5", 1)
    a.addi("r1", "r1", 1)
    a.addi("r3", "r3", -1)
    a.beq("r3", "r0", "emit_run")
    a.ld("r4", "r1", 0)
    a.beq("r4", "r0", "run")
    a.label("emit_run")
    a.ori("r6", "r5", 256)     # run marker
    a.st("r6", "r2", 0)
    a.addi("r2", "r2", 1)
    a.addi("r15", "r15", 1)
    a.bne("r3", "r0", "loop")
    a.jmp("done")
    a.label("literal")
    a.st("r4", "r2", 0)
    a.addi("r2", "r2", 1)
    a.addi("r15", "r15", 1)
    a.addi("r1", "r1", 1)
    a.addi("r3", "r3", -1)
    a.bne("r3", "r0", "loop")
    a.label("done")
    a.st("r15", "r0", result)
    a.halt()
    return a.build()
