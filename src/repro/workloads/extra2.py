"""Third kernel wave — brings the population to the paper's 78 programs."""

from __future__ import annotations

import random

from ..isa.assembler import Assembler
from ..isa.program import Program


def eon_march(input_name: str) -> Program:
    """eon-style integer ray marching over a voxel grid."""
    rays = 60 if input_name == "train" else 110
    grid = 32
    seed = 3 if input_name == "train" else 5
    rng = random.Random(seed)
    density = [1 if rng.random() < 0.12 else 0
               for _ in range(grid * grid)]
    dirs = [(rng.choice([1, 2]), rng.choice([1, 2])) for _ in range(rays)]

    a = Assembler("eon")
    grid_tab = a.data_words(density, label="grid")
    dir_tab = a.data_words([c for pair in dirs for c in pair],
                           label="dirs")
    a.data_zeros(1, label="result")
    result = a.data_addr("result")

    a.li("r1", dir_tab)
    a.li("r2", rays)
    a.li("r3", grid_tab)
    a.li("r15", 0)             # hit accumulator
    a.label("ray")
    a.ld("r4", "r1", 0)        # dx
    a.ld("r5", "r1", 1)        # dy
    a.li("r6", 0)              # x
    a.li("r7", 0)              # y
    a.li("r8", 20)             # step budget
    a.label("march")
    a.add("r6", "r6", "r4")
    a.add("r7", "r7", "r5")
    a.andi("r6", "r6", grid - 1)
    a.andi("r7", "r7", grid - 1)
    a.slli("r9", "r7", 5)      # y * 32
    a.add("r9", "r9", "r6")
    a.add("r10", "r3", "r9")
    a.ld("r11", "r10", 0)
    a.bne("r11", "r0", "hit")
    a.addi("r8", "r8", -1)
    a.bne("r8", "r0", "march")
    a.jmp("next")
    a.label("hit")
    a.add("r15", "r15", "r8")  # remaining budget scores the hit distance
    a.label("next")
    a.addi("r1", "r1", 2)
    a.addi("r2", "r2", -1)
    a.bne("r2", "r0", "ray")
    a.st("r15", "r0", result)
    a.halt()
    return a.build()


def gap_permute(input_name: str) -> Program:
    """gap-style group arithmetic: iterated permutation composition."""
    size = 32
    rounds = 12 if input_name == "train" else 22
    seed = 7 if input_name == "train" else 11
    rng = random.Random(seed)
    perm_a = list(range(size))
    perm_b = list(range(size))
    rng.shuffle(perm_a)
    rng.shuffle(perm_b)

    a = Assembler("gap")
    pa = a.data_words(perm_a, label="pa")
    pb = a.data_words(perm_b, label="pb")
    work = a.data_words(list(range(size)), label="work")
    scratch = a.data_zeros(size, label="scratch")
    a.data_zeros(1, label="result")
    result = a.data_addr("result")

    a.li("r1", rounds)
    a.label("round")
    # scratch[i] = pb[pa[work[i]]]
    a.li("r2", 0)
    a.label("compose")
    a.li("r3", work)
    a.add("r3", "r3", "r2")
    a.ld("r4", "r3", 0)
    a.li("r5", pa)
    a.add("r5", "r5", "r4")
    a.ld("r6", "r5", 0)
    a.li("r7", pb)
    a.add("r7", "r7", "r6")
    a.ld("r8", "r7", 0)
    a.li("r9", scratch)
    a.add("r9", "r9", "r2")
    a.st("r8", "r9", 0)
    a.addi("r2", "r2", 1)
    a.slti("r10", "r2", size)
    a.bne("r10", "r0", "compose")
    # Copy scratch back to work.
    a.li("r2", 0)
    a.label("copy")
    a.li("r9", scratch)
    a.add("r9", "r9", "r2")
    a.ld("r8", "r9", 0)
    a.li("r3", work)
    a.add("r3", "r3", "r2")
    a.st("r8", "r3", 0)
    a.addi("r2", "r2", 1)
    a.slti("r10", "r2", size)
    a.bne("r10", "r0", "copy")
    a.addi("r1", "r1", -1)
    a.bne("r1", "r0", "round")
    a.li("r9", scratch)
    a.ld("r15", "r9", 0)
    a.st("r15", "r0", result)
    a.halt()
    return a.build()


def mesa_span(input_name: str) -> Program:
    """mesa-style span rasterizer: fixed-point interpolation with z-test."""
    spans = 60 if input_name == "train" else 100
    width = 24
    seed = 13 if input_name == "train" else 17
    rng = random.Random(seed)
    starts = [rng.randint(0, 1 << 12) for _ in range(spans * 2)]

    a = Assembler("mesa")
    param_tab = a.data_words(starts, label="params")
    zbuf = a.data_words([1 << 14] * width, label="zbuf")
    cbuf = a.data_zeros(width, label="cbuf")
    a.data_zeros(1, label="result")
    result = a.data_addr("result")

    a.li("r1", param_tab)
    a.li("r2", spans)
    a.li("r15", 0)
    a.label("span")
    a.ld("r4", "r1", 0)        # z start (Q8)
    a.ld("r5", "r1", 1)        # z slope seed
    a.andi("r5", "r5", 255)
    a.addi("r5", "r5", -128)   # slope in [-128, 127]
    a.li("r6", 0)              # x
    a.label("pixel")
    a.li("r7", zbuf)
    a.add("r7", "r7", "r6")
    a.ld("r8", "r7", 0)        # depth buffer
    a.srai("r9", "r4", 2)      # interpolated z
    a.bge("r9", "r8", "occluded")
    a.st("r9", "r7", 0)        # z write
    a.li("r10", cbuf)
    a.add("r10", "r10", "r6")
    a.st("r6", "r10", 0)       # colour write (x as shade)
    a.addi("r15", "r15", 1)
    a.label("occluded")
    a.add("r4", "r4", "r5")
    a.addi("r6", "r6", 1)
    a.slti("r11", "r6", width)
    a.bne("r11", "r0", "pixel")
    a.addi("r1", "r1", 2)
    a.addi("r2", "r2", -1)
    a.bne("r2", "r0", "span")
    a.st("r15", "r0", result)
    a.halt()
    return a.build()


def g721_predictor(input_name: str) -> Program:
    """G.721 adaptive-predictor update: sign-sign LMS over 6 taps."""
    n = 120 if input_name == "train" else 210
    taps = 6
    seed = 19 if input_name == "train" else 23
    rng = random.Random(seed)
    errors = [rng.randint(-2000, 2000) for _ in range(n)]

    a = Assembler("g721pred")
    err_tab = a.data_words(errors, label="errs")
    weights = a.data_zeros(taps, label="w")
    history = a.data_zeros(taps, label="h")
    a.data_zeros(1, label="result")
    result = a.data_addr("result")

    a.li("r1", err_tab)
    a.li("r2", n)
    a.li("r3", weights)
    a.li("r4", history)
    a.li("r15", 0)
    a.label("sample")
    a.ld("r5", "r1", 0)        # error
    # Update each tap: w += sign(err) * sign(h) (sign-sign LMS).
    a.li("r6", 0)
    a.label("tap")
    a.add("r7", "r4", "r6")
    a.ld("r8", "r7", 0)        # history value
    a.xor("r9", "r5", "r8")    # sign agreement in the top bit
    a.slt("r10", "r9", "r0")
    a.add("r11", "r3", "r6")
    a.ld("r12", "r11", 0)
    a.beq("r10", "r0", "agree")
    a.addi("r12", "r12", -1)
    a.jmp("wrote")
    a.label("agree")
    a.addi("r12", "r12", 1)
    a.label("wrote")
    a.st("r12", "r11", 0)
    a.addi("r6", "r6", 1)
    a.slti("r13", "r6", taps)
    a.bne("r13", "r0", "tap")
    # Shift history (tap 0 gets the new error).
    a.li("r6", taps - 1)
    a.label("shift")
    a.beq("r6", "r0", "store_new")
    a.addi("r7", "r6", -1)
    a.add("r8", "r4", "r7")
    a.ld("r9", "r8", 0)
    a.add("r10", "r4", "r6")
    a.st("r9", "r10", 0)
    a.mov("r6", "r7")
    a.jmp("shift")
    a.label("store_new")
    a.st("r5", "r4", 0)
    a.ld("r11", "r3", 0)
    a.xor("r15", "r15", "r11")
    a.addi("r1", "r1", 1)
    a.addi("r2", "r2", -1)
    a.bne("r2", "r0", "sample")
    a.st("r15", "r0", result)
    a.halt()
    return a.build()


def cast_rounds(input_name: str) -> Program:
    """CAST-style cipher rounds: mixed add/xor/rotate F-functions."""
    blocks = 60 if input_name == "train" else 105
    seed = 29 if input_name == "train" else 31
    rng = random.Random(seed)
    data = [rng.getrandbits(32) for _ in range(blocks)]
    keys = [rng.getrandbits(16) for _ in range(12)]

    a = Assembler("cast")
    data_tab = a.data_words(data, label="data")
    key_tab = a.data_words(keys, label="keys")
    a.data_zeros(1, label="result")
    result = a.data_addr("result")
    mask = 0xFFFFFFFF

    a.li("r1", data_tab)
    a.li("r2", blocks)
    a.li("r3", key_tab)
    a.li("r15", 0)
    a.li("r14", mask)
    a.label("block")
    a.ld("r4", "r1", 0)
    a.li("r5", 0)              # round
    a.label("round")
    a.add("r6", "r3", "r5")
    a.ld("r7", "r6", 0)        # round key
    a.andi("r8", "r5", 3)
    a.bne("r8", "r0", "type2")
    a.add("r4", "r4", "r7")    # type 1: add then rotate-xor
    a.and_("r4", "r4", "r14")
    a.slli("r9", "r4", 3)
    a.srli("r10", "r4", 29)
    a.or_("r9", "r9", "r10")
    a.xor("r4", "r4", "r9")
    a.jmp("endr")
    a.label("type2")
    a.xor("r4", "r4", "r7")    # type 2: xor then shifted subtract
    a.srli("r9", "r4", 5)
    a.sub("r4", "r4", "r9")
    a.label("endr")
    a.and_("r4", "r4", "r14")
    a.addi("r5", "r5", 1)
    a.slti("r11", "r5", 12)
    a.bne("r11", "r0", "round")
    a.st("r4", "r1", 0)
    a.xor("r15", "r15", "r4")
    a.addi("r1", "r1", 1)
    a.addi("r2", "r2", -1)
    a.bne("r2", "r0", "block")
    a.st("r15", "r0", result)
    a.halt()
    return a.build()


def tcp_statemachine(input_name: str) -> Program:
    """TCP-style connection state machine over a segment-event stream."""
    n = 300 if input_name == "train" else 520
    seed = 37 if input_name == "train" else 41
    rng = random.Random(seed)
    # events: 0=SYN 1=ACK 2=FIN 3=RST; transition table state×event.
    # states: 0 closed, 1 syn-rcvd, 2 established, 3 fin-wait
    transitions = [
        1, 0, 0, 0,    # closed
        1, 2, 0, 0,    # syn-rcvd
        2, 2, 3, 0,    # established
        3, 0, 0, 0,    # fin-wait (ack closes)
    ]
    transitions[13] = 0  # fin-wait + ack -> closed
    events = [rng.randint(0, 3) for _ in range(n)]

    a = Assembler("tcp")
    trans_tab = a.data_words(transitions, label="trans")
    event_tab = a.data_words(events, label="events")
    a.data_zeros(1, label="result")
    result = a.data_addr("result")

    a.li("r1", event_tab)
    a.li("r2", n)
    a.li("r3", trans_tab)
    a.li("r4", 0)              # state
    a.li("r15", 0)             # established count
    a.label("loop")
    a.ld("r5", "r1", 0)        # event
    a.slli("r6", "r4", 2)
    a.add("r6", "r6", "r5")
    a.add("r7", "r3", "r6")
    a.ld("r4", "r7", 0)        # next state (serial chain)
    a.seqi("r8", "r4", 2)
    a.add("r15", "r15", "r8")
    a.addi("r1", "r1", 1)
    a.addi("r2", "r2", -1)
    a.bne("r2", "r0", "loop")
    a.st("r15", "r0", result)
    a.halt()
    return a.build()


def rijndael_round(input_name: str) -> Program:
    """AES-like round function: S-box substitution + xor diffusion."""
    blocks = 40 if input_name == "train" else 72
    seed = 43 if input_name == "train" else 47
    rng = random.Random(seed)
    sbox = list(range(256))
    rng.shuffle(sbox)
    state = [rng.getrandbits(8) for _ in range(blocks * 4)]

    a = Assembler("rijndael")
    sbox_tab = a.data_words(sbox, label="sbox")
    state_tab = a.data_words(state, label="state")
    a.data_zeros(1, label="result")
    result = a.data_addr("result")

    a.li("r1", state_tab)
    a.li("r2", blocks)
    a.li("r3", sbox_tab)
    a.li("r15", 0)
    a.label("block")
    # SubBytes on 4 state bytes.
    for i in range(4):
        a.ld(f"r{4 + i}", "r1", i)
    for i in range(4):
        a.add("r8", "r3", f"r{4 + i}")
        a.ld(f"r{4 + i}", "r8", 0)
    # MixColumns-flavoured xor diffusion.
    a.xor("r9", "r4", "r5")
    a.xor("r10", "r6", "r7")
    a.xor("r11", "r9", "r10")  # column parity
    a.xor("r4", "r4", "r11")
    a.xor("r5", "r5", "r11")
    a.xor("r6", "r6", "r11")
    a.xor("r7", "r7", "r11")
    for i in range(4):
        a.andi(f"r{4 + i}", f"r{4 + i}", 255)
        a.st(f"r{4 + i}", "r1", i)
    a.xor("r15", "r15", "r4")
    a.addi("r1", "r1", 4)
    a.addi("r2", "r2", -1)
    a.bne("r2", "r0", "block")
    a.st("r15", "r0", result)
    a.halt()
    return a.build()


def ispell_probe(input_name: str) -> Program:
    """ispell-style dictionary probing: hash, probe, fallback suffix strip."""
    n = 150 if input_name == "train" else 260
    dict_size = 256
    seed = 53 if input_name == "train" else 59
    rng = random.Random(seed)
    dictionary = [0] * dict_size
    for _ in range(dict_size // 2):
        word = rng.randint(1, 1 << 15)
        dictionary[(word * 31) % dict_size] = word
    words = [rng.randint(1, 1 << 15) for _ in range(n)]
    # Plant known words so lookups hit sometimes.
    for i in range(0, n, 5):
        slot = rng.randrange(dict_size)
        if dictionary[slot]:
            words[i] = dictionary[slot]

    a = Assembler("ispell")
    dict_tab = a.data_words(dictionary, label="dict")
    word_tab = a.data_words(words, label="words")
    a.data_zeros(1, label="result")
    result = a.data_addr("result")

    a.li("r1", word_tab)
    a.li("r2", n)
    a.li("r3", dict_tab)
    a.li("r13", 31)
    a.li("r15", 0)
    a.label("word")
    a.ld("r4", "r1", 0)
    a.mul("r5", "r4", "r13")
    a.andi("r5", "r5", dict_size - 1)
    a.add("r6", "r3", "r5")
    a.ld("r7", "r6", 0)
    a.beq("r7", "r4", "found")
    # Fallback: strip a "suffix" (shift right) and probe once more.
    a.srli("r8", "r4", 3)
    a.mul("r9", "r8", "r13")
    a.andi("r9", "r9", dict_size - 1)
    a.add("r10", "r3", "r9")
    a.ld("r11", "r10", 0)
    a.bne("r11", "r8", "next")
    a.addi("r15", "r15", 1)    # found after stripping
    a.jmp("next")
    a.label("found")
    a.addi("r15", "r15", 2)
    a.label("next")
    a.addi("r1", "r1", 1)
    a.addi("r2", "r2", -1)
    a.bne("r2", "r0", "word")
    a.st("r15", "r0", result)
    a.halt()
    return a.build()


def mad_synth(input_name: str) -> Program:
    """mad-style subband synthesis: windowed multiply-accumulate."""
    frames = 16 if input_name == "train" else 28
    window = 16
    seed = 61 if input_name == "train" else 67
    rng = random.Random(seed)
    samples = [rng.randint(-4096, 4096) for _ in range(frames * window)]
    coeffs = [rng.randint(-256, 256) for _ in range(window)]

    a = Assembler("madsynth")
    s_tab = a.data_words(samples, label="samples")
    c_tab = a.data_words(coeffs, label="coeffs")
    out = a.data_zeros(frames, label="out")
    a.data_zeros(1, label="result")
    result = a.data_addr("result")

    a.li("r1", s_tab)
    a.li("r2", frames)
    a.li("r3", c_tab)
    a.li("r4", out)
    a.li("r15", 0)
    a.label("frame")
    a.li("r5", 0)              # accumulator
    a.li("r6", window)
    a.mov("r7", "r1")
    a.mov("r8", "r3")
    a.label("mac")
    a.ld("r9", "r7", 0)
    a.ld("r10", "r8", 0)
    a.mul("r11", "r9", "r10")
    a.add("r5", "r5", "r11")
    a.addi("r7", "r7", 1)
    a.addi("r8", "r8", 1)
    a.addi("r6", "r6", -1)
    a.bne("r6", "r0", "mac")
    a.srai("r5", "r5", 8)      # descale
    a.st("r5", "r4", 0)
    a.xor("r15", "r15", "r5")
    a.addi("r1", "r1", window)
    a.addi("r4", "r4", 1)
    a.addi("r2", "r2", -1)
    a.bne("r2", "r0", "frame")
    a.st("r15", "r0", result)
    a.halt()
    return a.build()


def tiff_dither(input_name: str) -> Program:
    """tiff-style error-diffusion dithering (1-D Floyd–Steinberg)."""
    n = 360 if input_name == "train" else 620
    seed = 71 if input_name == "train" else 73
    rng = random.Random(seed)
    pixels = [rng.randint(0, 255) for _ in range(n)]

    a = Assembler("tiffdither")
    p_tab = a.data_words(pixels, label="pixels")
    out = a.data_zeros(n, label="out")
    a.data_zeros(1, label="result")
    result = a.data_addr("result")

    a.li("r1", p_tab)
    a.li("r2", out)
    a.li("r3", n)
    a.li("r4", 0)              # carried error
    a.li("r7", 128)            # threshold
    a.li("r15", 0)
    a.label("pixel")
    a.ld("r5", "r1", 0)
    a.add("r5", "r5", "r4")    # add diffused error
    a.blt("r5", "r7", "dark")
    a.li("r6", 1)
    a.addi("r4", "r5", -255)   # error = value - white
    a.jmp("emit")
    a.label("dark")
    a.li("r6", 0)
    a.mov("r4", "r5")          # error = value
    a.label("emit")
    a.srai("r4", "r4", 1)      # diffuse half of the error forward
    a.st("r6", "r2", 0)
    a.add("r15", "r15", "r6")
    a.addi("r1", "r1", 1)
    a.addi("r2", "r2", 1)
    a.addi("r3", "r3", -1)
    a.bne("r3", "r0", "pixel")
    a.st("r15", "r0", result)
    a.halt()
    return a.build()
