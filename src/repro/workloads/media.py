"""MediaBench-family kernels: codecs and DSP loops.

Includes the ADPCM coder used by the paper's Figure 8 limit study.
"""

from __future__ import annotations

import math
import random

from ..isa.assembler import Assembler
from ..isa.program import Program

# IMA ADPCM tables (standard).
_STEP_TABLE = [
    7, 8, 9, 10, 11, 12, 13, 14, 16, 17, 19, 21, 23, 25, 28, 31, 34, 37,
    41, 45, 50, 55, 60, 66, 73, 80, 88, 97, 107, 118, 130, 143, 157, 173,
    190, 209, 230, 253, 279, 307, 337, 371, 408, 449, 494, 544, 598, 658,
    724, 796, 876, 963, 1060, 1166, 1282, 1411, 1552, 1707, 1878, 2066,
    2272, 2499, 2749, 3024, 3327, 3660, 4026, 4428, 4871, 5358, 5894, 6484,
    7132, 7845, 8630, 9493, 10442, 11487, 12635, 13899, 15289, 16818,
    18500, 20350, 22385, 24623, 27086, 29794, 32767,
]
_INDEX_TABLE = [-1, -1, -1, -1, 2, 4, 6, 8, -1, -1, -1, -1, 2, 4, 6, 8]


def _pcm_samples(count: int, seed: int) -> list:
    rng = random.Random(seed)
    return [int(4000 * math.sin(i * 0.07) + rng.randint(-300, 300))
            for i in range(count)]


def adpcm_enc(input_name: str) -> Program:
    """IMA ADPCM encoder (the paper's limit-study benchmark).

    The extra ``tiny`` input keeps the 1024-subset exhaustive search of
    Figure 8 tractable.
    """
    count = {"train": 160, "ref": 280, "tiny": 64}[input_name]
    seed = {"train": 11, "ref": 23, "tiny": 2}[input_name]
    a = Assembler("adpcm")
    samples = a.data_words(_pcm_samples(count, seed), label="samples")
    codes = a.data_zeros(count, label="codes")
    steps = a.data_words(_STEP_TABLE, label="steps")
    index_tab = a.data_words(_INDEX_TABLE, label="indextab")
    a.data_zeros(1, label="result")
    result = a.data_addr("result")

    a.li("r1", samples)
    a.li("r2", codes)
    a.li("r3", count)
    a.li("r4", 0)          # valpred
    a.li("r5", 0)          # index
    a.li("r6", steps)
    a.li("r7", index_tab)
    a.li("r15", 0)         # checksum
    a.label("loop")
    a.add("r12", "r6", "r5")
    a.ld("r11", "r12", 0)  # step
    a.ld("r8", "r1", 0)    # sample
    a.sub("r9", "r8", "r4")  # diff
    a.li("r10", 0)
    a.bge("r9", "r0", "pos")
    a.li("r10", 8)
    a.sub("r9", "r0", "r9")
    a.label("pos")
    a.srai("r13", "r11", 3)  # vpdiff = step >> 3
    a.blt("r9", "r11", "b1")
    a.ori("r10", "r10", 4)
    a.sub("r9", "r9", "r11")
    a.add("r13", "r13", "r11")
    a.label("b1")
    a.srai("r11", "r11", 1)
    a.blt("r9", "r11", "b2")
    a.ori("r10", "r10", 2)
    a.sub("r9", "r9", "r11")
    a.add("r13", "r13", "r11")
    a.label("b2")
    a.srai("r11", "r11", 1)
    a.blt("r9", "r11", "b3")
    a.ori("r10", "r10", 1)
    a.add("r13", "r13", "r11")
    a.label("b3")
    a.andi("r14", "r10", 8)
    a.beq("r14", "r0", "plus")
    a.sub("r4", "r4", "r13")
    a.jmp("clamp")
    a.label("plus")
    a.add("r4", "r4", "r13")
    a.label("clamp")
    a.li("r14", 32767)
    a.blt("r4", "r14", "c1")
    a.mov("r4", "r14")
    a.label("c1")
    a.li("r14", -32768)
    a.bge("r4", "r14", "c2")
    a.mov("r4", "r14")
    a.label("c2")
    a.add("r12", "r7", "r10")
    a.ld("r14", "r12", 0)
    a.add("r5", "r5", "r14")
    a.bge("r5", "r0", "c3")
    a.li("r5", 0)
    a.label("c3")
    a.li("r14", 88)
    a.blt("r5", "r14", "c4")
    a.mov("r5", "r14")
    a.label("c4")
    a.st("r10", "r2", 0)
    a.add("r15", "r15", "r10")
    a.addi("r1", "r1", 1)
    a.addi("r2", "r2", 1)
    a.addi("r3", "r3", -1)
    a.bne("r3", "r0", "loop")
    a.st("r15", "r0", result)
    a.halt()
    return a.build()


def adpcm_dec(input_name: str) -> Program:
    """IMA ADPCM decoder, fed by a synthetic code stream."""
    count = 200 if input_name == "train" else 320
    seed = 5 if input_name == "train" else 17
    rng = random.Random(seed)
    a = Assembler("adpcm_dec")
    codes = a.data_words([rng.randint(0, 15) for _ in range(count)],
                         label="codes")
    pcm = a.data_zeros(count, label="pcm")
    steps = a.data_words(_STEP_TABLE, label="steps")
    index_tab = a.data_words(_INDEX_TABLE, label="indextab")
    a.data_zeros(1, label="result")
    result = a.data_addr("result")

    a.li("r1", codes)
    a.li("r2", pcm)
    a.li("r3", count)
    a.li("r4", 0)          # valpred
    a.li("r5", 0)          # index
    a.li("r6", steps)
    a.li("r7", index_tab)
    a.li("r15", 0)
    a.label("loop")
    a.add("r12", "r6", "r5")
    a.ld("r11", "r12", 0)  # step
    a.ld("r10", "r1", 0)   # code
    a.srai("r13", "r11", 3)  # vpdiff = step >> 3
    a.andi("r14", "r10", 4)
    a.beq("r14", "r0", "d1")
    a.add("r13", "r13", "r11")
    a.label("d1")
    a.andi("r14", "r10", 2)
    a.beq("r14", "r0", "d2")
    a.srai("r9", "r11", 1)
    a.add("r13", "r13", "r9")
    a.label("d2")
    a.andi("r14", "r10", 1)
    a.beq("r14", "r0", "d3")
    a.srai("r9", "r11", 2)
    a.add("r13", "r13", "r9")
    a.label("d3")
    a.andi("r14", "r10", 8)
    a.beq("r14", "r0", "dplus")
    a.sub("r4", "r4", "r13")
    a.jmp("dclamp")
    a.label("dplus")
    a.add("r4", "r4", "r13")
    a.label("dclamp")
    a.li("r14", 32767)
    a.blt("r4", "r14", "e1")
    a.mov("r4", "r14")
    a.label("e1")
    a.li("r14", -32768)
    a.bge("r4", "r14", "e2")
    a.mov("r4", "r14")
    a.label("e2")
    a.add("r12", "r7", "r10")
    a.ld("r14", "r12", 0)
    a.add("r5", "r5", "r14")
    a.bge("r5", "r0", "e3")
    a.li("r5", 0)
    a.label("e3")
    a.li("r14", 88)
    a.blt("r5", "r14", "e4")
    a.mov("r5", "r14")
    a.label("e4")
    a.st("r4", "r2", 0)
    a.xor("r15", "r15", "r4")
    a.addi("r1", "r1", 1)
    a.addi("r2", "r2", 1)
    a.addi("r3", "r3", -1)
    a.bne("r3", "r0", "loop")
    a.st("r15", "r0", result)
    a.halt()
    return a.build()


def jpeg_dct(input_name: str) -> Program:
    """Shift-add 8-point DCT butterflies over image rows (jpeg-style)."""
    rows = 24 if input_name == "train" else 40
    seed = 31 if input_name == "train" else 47
    rng = random.Random(seed)
    a = Assembler("jpegdct")
    pixels = a.data_words([rng.randint(0, 255) for _ in range(rows * 8)],
                          label="pixels")
    coeffs = a.data_zeros(rows * 8, label="coeffs")
    a.data_zeros(1, label="result")
    result = a.data_addr("result")

    a.li("r1", pixels)
    a.li("r2", coeffs)
    a.li("r3", rows)
    a.li("r15", 0)
    a.label("row")
    # Load the 8 pixels of the row.
    for i in range(8):
        a.ld(f"r{4 + i}", "r1", i)
    # Stage 1 butterflies: s_i = x_i + x_{7-i}, d_i = x_i - x_{7-i}.
    a.add("r12", "r4", "r11")   # s0
    a.sub("r13", "r4", "r11")   # d0
    a.add("r14", "r5", "r10")   # s1
    a.sub("r5", "r5", "r10")    # d1
    a.add("r10", "r6", "r9")    # s2
    a.sub("r6", "r6", "r9")     # d2
    a.add("r9", "r7", "r8")     # s3
    a.sub("r7", "r7", "r8")     # d3
    # Stage 2: even part.
    a.add("r4", "r12", "r9")    # e0 = s0+s3
    a.sub("r12", "r12", "r9")   # e1 = s0-s3
    a.add("r8", "r14", "r10")   # e2 = s1+s2
    a.sub("r14", "r14", "r10")  # e3 = s1-s2
    # Outputs (shift-add approximations of the cosine weights).
    a.add("r9", "r4", "r8")     # c0
    a.sub("r10", "r4", "r8")    # c4
    a.slli("r11", "r12", 1)
    a.add("r11", "r11", "r14")  # c2 ~ 2*e1 + e3
    a.slli("r4", "r14", 1)
    a.sub("r4", "r12", "r4")    # c6 ~ e1 - 2*e3
    a.st("r9", "r2", 0)
    a.st("r10", "r2", 4)
    a.st("r11", "r2", 2)
    a.st("r4", "r2", 6)
    # Odd part: progressive shift-add rotations of d0..d3.
    a.slli("r8", "r13", 1)
    a.add("r8", "r8", "r5")     # o1 = 2*d0 + d1
    a.srai("r9", "r6", 1)
    a.add("r9", "r9", "r7")     # o3 = d2/2 + d3
    a.add("r10", "r8", "r9")    # c1
    a.sub("r11", "r8", "r9")    # c7
    a.srai("r12", "r5", 1)
    a.sub("r12", "r13", "r12")  # o5 = d0 - d1/2
    a.slli("r14", "r7", 1)
    a.sub("r14", "r6", "r14")   # o7 = d2 - 2*d3
    a.add("r5", "r12", "r14")   # c3
    a.sub("r6", "r12", "r14")   # c5
    a.st("r10", "r2", 1)
    a.st("r5", "r2", 3)
    a.st("r6", "r2", 5)
    a.st("r11", "r2", 7)
    a.xor("r15", "r15", "r10")
    a.add("r15", "r15", "r9")
    a.addi("r1", "r1", 8)
    a.addi("r2", "r2", 8)
    a.addi("r3", "r3", -1)
    a.bne("r3", "r0", "row")
    a.st("r15", "r0", result)
    a.halt()
    return a.build()


def gsm_autocorr(input_name: str) -> Program:
    """GSM-style LPC autocorrelation (multiply-accumulate over lags)."""
    n = 120 if input_name == "train" else 200
    seed = 3 if input_name == "train" else 29
    rng = random.Random(seed)
    a = Assembler("gsmlpc")
    signal = a.data_words([rng.randint(-1000, 1000) for _ in range(n)],
                          label="signal")
    acf = a.data_zeros(9, label="acf")
    a.data_zeros(1, label="result")
    result = a.data_addr("result")

    a.li("r7", 0)              # lag k
    a.li("r8", 9)
    a.label("lag")
    a.li("r1", signal)
    a.add("r2", "r1", "r7")    # &signal[k]
    a.sub("r3", "r8", "r7")
    a.li("r4", n)
    a.sub("r3", "r4", "r7")    # n - k iterations
    a.li("r5", 0)              # accumulator
    a.label("mac")
    a.ld("r9", "r1", 0)
    a.ld("r10", "r2", 0)
    a.mul("r11", "r9", "r10")
    a.add("r5", "r5", "r11")
    a.addi("r1", "r1", 1)
    a.addi("r2", "r2", 1)
    a.addi("r3", "r3", -1)
    a.bne("r3", "r0", "mac")
    a.srai("r5", "r5", 4)      # scale
    a.li("r6", acf)
    a.add("r6", "r6", "r7")
    a.st("r5", "r6", 0)
    a.addi("r7", "r7", 1)
    a.blt("r7", "r8", "lag")
    # Fold the ACF into a checksum.
    a.li("r1", acf)
    a.li("r3", 9)
    a.li("r15", 0)
    a.label("fold")
    a.ld("r9", "r1", 0)
    a.xor("r15", "r15", "r9")
    a.addi("r1", "r1", 1)
    a.addi("r3", "r3", -1)
    a.bne("r3", "r0", "fold")
    a.st("r15", "r0", result)
    a.halt()
    return a.build()


def g721_quant(input_name: str) -> Program:
    """G.721-style log-domain quantization: normalize, compare, pack."""
    n = 180 if input_name == "train" else 300
    seed = 41 if input_name == "train" else 53
    rng = random.Random(seed)
    a = Assembler("g721quant")
    data = a.data_words([rng.randint(1, 1 << 14) for _ in range(n)],
                        label="data")
    quant = a.data_zeros(n, label="quant")
    a.data_zeros(1, label="result")
    result = a.data_addr("result")

    a.li("r1", data)
    a.li("r2", quant)
    a.li("r3", n)
    a.li("r15", 0)
    a.label("loop")
    a.ld("r4", "r1", 0)
    # Normalize: count the magnitude's exponent by repeated shifting.
    a.li("r5", 0)              # exponent
    a.mov("r6", "r4")
    a.label("norm")
    a.slti("r7", "r6", 2)
    a.bne("r7", "r0", "done_norm")
    a.srai("r6", "r6", 1)
    a.addi("r5", "r5", 1)
    a.jmp("norm")
    a.label("done_norm")
    # Mantissa: top bits under the exponent.
    a.srai("r8", "r4", 1)
    a.andi("r8", "r8", 63)
    a.slli("r9", "r5", 6)
    a.or_("r9", "r9", "r8")    # packed log value
    a.st("r9", "r2", 0)
    a.add("r15", "r15", "r9")
    a.addi("r1", "r1", 1)
    a.addi("r2", "r2", 1)
    a.addi("r3", "r3", -1)
    a.bne("r3", "r0", "loop")
    a.st("r15", "r0", result)
    a.halt()
    return a.build()


def epic_filter(input_name: str) -> Program:
    """EPIC-style separable wavelet filter (two-tap lift) over a signal."""
    n = 256 if input_name == "train" else 448
    seed = 59 if input_name == "train" else 61
    rng = random.Random(seed)
    a = Assembler("epicfilt")
    signal = a.data_words([rng.randint(0, 4095) for _ in range(n)],
                          label="signal")
    lo = a.data_zeros(n // 2, label="lo")
    hi = a.data_zeros(n // 2, label="hi")
    a.data_zeros(1, label="result")
    result = a.data_addr("result")

    a.li("r1", signal)
    a.li("r2", lo)
    a.li("r3", hi)
    a.li("r4", n // 2)
    a.li("r15", 0)
    a.label("loop")
    a.ld("r5", "r1", 0)
    a.ld("r6", "r1", 1)
    a.add("r7", "r5", "r6")
    a.srai("r7", "r7", 1)      # average -> lowpass
    a.sub("r8", "r5", "r6")    # difference -> highpass
    a.st("r7", "r2", 0)
    a.st("r8", "r3", 0)
    a.xor("r15", "r15", "r7")
    a.add("r15", "r15", "r8")
    a.addi("r1", "r1", 2)
    a.addi("r2", "r2", 1)
    a.addi("r3", "r3", 1)
    a.addi("r4", "r4", -1)
    a.bne("r4", "r0", "loop")
    a.st("r15", "r0", result)
    a.halt()
    return a.build()
