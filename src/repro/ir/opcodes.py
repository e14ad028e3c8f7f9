"""Opcode definitions for the miniature IR.

The IR models the subset of LLVM IR that the APT-GET paper's compiler pass
manipulates: integer arithmetic, address computation (``GEP``), memory
operations, PHI nodes, comparisons, and control flow.  Values are 64-bit
signed integers; registers are function-local virtual registers named by
strings; immediates may appear directly as operands.
"""

from __future__ import annotations

import enum


class Opcode(enum.IntEnum):
    """Every instruction kind understood by the execution engines."""

    # Data movement / arithmetic.
    CONST = 1  # dst = imm
    MOV = 2  # dst = a
    ADD = 3  # dst = a + b
    SUB = 4  # dst = a - b
    MUL = 5  # dst = a * b
    DIV = 6  # dst = a // b  (b != 0)
    REM = 7  # dst = a % b   (b != 0)
    AND = 8  # dst = a & b
    OR = 9  # dst = a | b
    XOR = 10  # dst = a ^ b
    SHL = 11  # dst = a << b
    SHR = 12  # dst = a >> b
    MIN = 13  # dst = min(a, b)
    MAX = 14  # dst = max(a, b)

    # Comparisons (produce 0 or 1).
    CMP_EQ = 20
    CMP_NE = 21
    CMP_LT = 22
    CMP_LE = 23
    CMP_GT = 24
    CMP_GE = 25

    # Select: dst = a if cond else b.
    SELECT = 30

    # Address computation: dst = base + index * scale  (LLVM getelementptr).
    GEP = 31

    # Memory.
    LOAD = 40  # dst = memory[a]          (a: byte address)
    STORE = 41  # memory[a] = b
    PREFETCH = 42  # hint: fetch line containing address a

    # Models a fixed-cost, memory-free computation (the paper's ``work()``
    # function): retires `a` instructions at the machine's work IPC.
    WORK = 45

    # Control flow.
    PHI = 50  # dst = incoming value from the edge taken into this block
    JMP = 51  # unconditional jump to targets[0]
    BR = 52  # conditional: a != 0 -> targets[0], else targets[1]
    RET = 53  # return a (or 0 if no operand)
    #: dst = callee(args...) — callee name is args[0] (a string symbol,
    #: not a register); remaining args are the actual arguments.
    CALL = 54


#: Opcodes that terminate a basic block.
TERMINATORS = frozenset({Opcode.JMP, Opcode.BR, Opcode.RET})

#: Binary arithmetic opcodes mapped to a Python expression template used by
#: the translating engine and the interpreter's dispatch tables.  MIN/MAX
#: are conditional expressions, not builtin calls (the A&J index clamp
#: runs once per inner iteration): ``min(a, b)`` is ``a`` unless
#: ``b < a`` and ``max(a, b)`` is ``a`` unless ``b > a``.  Operands are
#: registers, locals or constants, so evaluating one twice is free.
BINOP_EXPR = {
    Opcode.ADD: "({a}) + ({b})",
    Opcode.SUB: "({a}) - ({b})",
    Opcode.MUL: "({a}) * ({b})",
    Opcode.DIV: "({a}) // ({b})",
    Opcode.REM: "({a}) % ({b})",
    Opcode.AND: "({a}) & ({b})",
    Opcode.OR: "({a}) | ({b})",
    Opcode.XOR: "({a}) ^ ({b})",
    Opcode.SHL: "({a}) << ({b})",
    Opcode.SHR: "({a}) >> ({b})",
    Opcode.MIN: "({b}) if ({b}) < ({a}) else ({a})",
    Opcode.MAX: "({b}) if ({b}) > ({a}) else ({a})",
    Opcode.CMP_EQ: "1 if ({a}) == ({b}) else 0",
    Opcode.CMP_NE: "1 if ({a}) != ({b}) else 0",
    Opcode.CMP_LT: "1 if ({a}) < ({b}) else 0",
    Opcode.CMP_LE: "1 if ({a}) <= ({b}) else 0",
    Opcode.CMP_GT: "1 if ({a}) > ({b}) else 0",
    Opcode.CMP_GE: "1 if ({a}) >= ({b}) else 0",
}

#: Opcodes producing a value in ``dst``.
HAS_DST = frozenset(
    {
        Opcode.CONST,
        Opcode.MOV,
        Opcode.SELECT,
        Opcode.GEP,
        Opcode.LOAD,
        Opcode.PHI,
        Opcode.CALL,
    }
) | frozenset(BINOP_EXPR)
