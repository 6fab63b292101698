"""Opcode definitions for the repro RISC ISA.

The ISA is a small 32-register RISC machine in the style of the Alpha EV6
used by the paper. Operation *classes* mirror the issue-port split of
Table 1 of the paper: simple integer, complex integer (multiply/divide,
standing in for the shared complex-int/FP port), loads, stores, and control
transfers. Latencies are per-opcode; loads take their latency from the data
cache at simulation time.

Opcodes are small integers so that hot simulator loops can dispatch on them
cheaply; human-readable metadata lives in :data:`OP_INFO`.
"""

from __future__ import annotations

from typing import Dict, NamedTuple

# --------------------------------------------------------------------------
# Operation classes (issue-port classes, Table 1)
# --------------------------------------------------------------------------

OC_SIMPLE = 0   # simple integer ALU (1-cycle)
OC_COMPLEX = 1  # complex integer / FP (shared single port)
OC_LOAD = 2
OC_STORE = 3
OC_BRANCH = 4   # conditional control transfer
OC_JUMP = 5     # unconditional control transfer (direct, call, indirect)
OC_NOP = 6
OC_HALT = 7
OC_MGH = 8      # mini-graph handle (appears only in transformed streams)

class OpInfo(NamedTuple):
    """Static metadata for one opcode."""

    name: str
    opclass: int
    latency: int      # execution latency in cycles (loads: L1-hit placeholder)
    n_src: int        # number of register sources
    writes_reg: bool  # produces a register value
    has_imm: bool


_OPS = []
_BY_NAME: Dict[str, int] = {}


def _op(name: str, opclass: int, latency: int, n_src: int,
        writes_reg: bool, has_imm: bool) -> int:
    code = len(_OPS)
    _OPS.append(OpInfo(name, opclass, latency, n_src, writes_reg, has_imm))
    _BY_NAME[name] = code
    return code


# Simple integer, register-register ------------------------------------------------
ADD = _op("add", OC_SIMPLE, 1, 2, True, False)
SUB = _op("sub", OC_SIMPLE, 1, 2, True, False)
AND = _op("and", OC_SIMPLE, 1, 2, True, False)
OR = _op("or", OC_SIMPLE, 1, 2, True, False)
XOR = _op("xor", OC_SIMPLE, 1, 2, True, False)
NOR = _op("nor", OC_SIMPLE, 1, 2, True, False)
SLL = _op("sll", OC_SIMPLE, 1, 2, True, False)
SRL = _op("srl", OC_SIMPLE, 1, 2, True, False)
SRA = _op("sra", OC_SIMPLE, 1, 2, True, False)
SLT = _op("slt", OC_SIMPLE, 1, 2, True, False)
SLTU = _op("sltu", OC_SIMPLE, 1, 2, True, False)
SEQ = _op("seq", OC_SIMPLE, 1, 2, True, False)
CMOVZ = _op("cmovz", OC_SIMPLE, 1, 3, True, False)   # rd = (rs2==0) ? rs1 : rd
CMOVN = _op("cmovn", OC_SIMPLE, 1, 3, True, False)   # rd = (rs2!=0) ? rs1 : rd

# Simple integer, register-immediate ----------------------------------------------
ADDI = _op("addi", OC_SIMPLE, 1, 1, True, True)
ANDI = _op("andi", OC_SIMPLE, 1, 1, True, True)
ORI = _op("ori", OC_SIMPLE, 1, 1, True, True)
XORI = _op("xori", OC_SIMPLE, 1, 1, True, True)
SLLI = _op("slli", OC_SIMPLE, 1, 1, True, True)
SRLI = _op("srli", OC_SIMPLE, 1, 1, True, True)
SRAI = _op("srai", OC_SIMPLE, 1, 1, True, True)
SLTI = _op("slti", OC_SIMPLE, 1, 1, True, True)
SEQI = _op("seqi", OC_SIMPLE, 1, 1, True, True)
LI = _op("li", OC_SIMPLE, 1, 0, True, True)

# Complex integer / FP-port operations ---------------------------------------------
MUL = _op("mul", OC_COMPLEX, 3, 2, True, False)
MULH = _op("mulh", OC_COMPLEX, 3, 2, True, False)
DIV = _op("div", OC_COMPLEX, 12, 2, True, False)
REM = _op("rem", OC_COMPLEX, 12, 2, True, False)
FADD = _op("fadd", OC_COMPLEX, 4, 2, True, False)    # fixed-point "FP" add
FMUL = _op("fmul", OC_COMPLEX, 4, 2, True, False)    # fixed-point "FP" mul

# Memory ---------------------------------------------------------------------------
LD = _op("ld", OC_LOAD, 3, 1, True, True)      # rd = MEM[rs1 + imm]
ST = _op("st", OC_STORE, 1, 2, False, True)    # MEM[rs1 + imm] = rs2

# Control --------------------------------------------------------------------------
BEQ = _op("beq", OC_BRANCH, 1, 2, False, True)
BNE = _op("bne", OC_BRANCH, 1, 2, False, True)
BLT = _op("blt", OC_BRANCH, 1, 2, False, True)
BGE = _op("bge", OC_BRANCH, 1, 2, False, True)
BLTU = _op("bltu", OC_BRANCH, 1, 2, False, True)
BGEU = _op("bgeu", OC_BRANCH, 1, 2, False, True)
JMP = _op("jmp", OC_JUMP, 1, 0, False, True)
JAL = _op("jal", OC_JUMP, 1, 0, True, True)    # rd = return address
JR = _op("jr", OC_JUMP, 1, 1, False, False)    # indirect jump / return

# Misc -----------------------------------------------------------------------------
NOP = _op("nop", OC_NOP, 1, 0, False, False)
HALT = _op("halt", OC_HALT, 1, 0, False, False)
MGH = _op("mgh", OC_MGH, 1, 0, True, False)    # mini-graph handle

OP_INFO = tuple(_OPS)
OP_BY_NAME = dict(_BY_NAME)
N_OPCODES = len(OP_INFO)


def op_name(op: int) -> str:
    """Human-readable mnemonic for opcode ``op``."""
    return OP_INFO[op].name


def op_class(op: int) -> int:
    """Issue-port class of opcode ``op``."""
    return OP_INFO[op].opclass


def is_control(op: int) -> bool:
    """True for any control transfer (conditional or unconditional)."""
    return OP_INFO[op].opclass in (OC_BRANCH, OC_JUMP)


def is_memory(op: int) -> bool:
    """True for loads and stores."""
    return OP_INFO[op].opclass in (OC_LOAD, OC_STORE)
