"""Expression-program compiler and stack machine.

Expressions are flattened to a postfix program (integer code + float
constant pool) executed by a small stack machine.  A program must
evaluate bit-identically to ``exprs.eval_float``: n-ary operations fold
left in push order, Dot accumulates from 0.0 in index order, and a zero
denominator aborts with ok=False instead of raising.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InputError
from .exprs import Add, Const, Div, Dot, Expr, Mul, Square, Var

OP_CONST = 0
OP_VAR = 1
OP_ADD = 2
OP_MUL = 3
OP_DIV = 4
OP_SQUARE = 5
OP_DOT = 6


def backend_name() -> str:
    """Which evaluator runs programs; there is only the Python one."""
    return "python"


@dataclass
class Program:
    """A compiled expression: flat code, constant pool, scratch stack."""

    code: tuple[int, ...]
    consts: tuple[float, ...]
    stack: list[float]

    def run(self, values) -> tuple[bool, float]:
        """Evaluate at a float vector ordered by the compiling var_index;
        returns (ok, value)."""
        code = self.code
        consts = self.consts
        stack = self.stack
        pc = 0
        sp = 0
        length = len(code)
        while pc < length:
            op = code[pc]
            if op == OP_CONST:
                stack[sp] = consts[code[pc + 1]]
                sp += 1
                pc += 2
            elif op == OP_VAR:
                stack[sp] = values[code[pc + 1]]
                sp += 1
                pc += 2
            elif op == OP_ADD:
                n = code[pc + 1]
                base = sp - n
                acc = stack[base]
                for i in range(1, n):
                    acc = acc + stack[base + i]
                stack[base] = acc
                sp = base + 1
                pc += 2
            elif op == OP_MUL:
                n = code[pc + 1]
                base = sp - n
                acc = stack[base]
                for i in range(1, n):
                    acc = acc * stack[base + i]
                stack[base] = acc
                sp = base + 1
                pc += 2
            elif op == OP_DIV:
                den = stack[sp - 1]
                if den == 0.0:
                    return False, 0.0
                stack[sp - 2] = stack[sp - 2] / den
                sp -= 1
                pc += 1
            elif op == OP_SQUARE:
                v = stack[sp - 1]
                stack[sp - 1] = v * v
                pc += 1
            elif op == OP_DOT:
                n = code[pc + 1]
                acc = 0.0
                p = pc + 2
                for _ in range(n):
                    acc = acc + consts[code[p]] * values[code[p + 1]]
                    p += 2
                stack[sp] = acc
                sp += 1
                pc = p
            else:
                raise ValueError(f"bad opcode {op}")
        return True, stack[0]


def compile_expr(expr: Expr, var_index: dict[str, int]) -> Program:
    """Flatten an expression tree into a Program.

    ``var_index`` maps variable names to positions in the value vector
    passed to run(); every program sharing an index map can share value
    vectors.
    """
    code: list[int] = []
    consts: list[float] = []

    def intern(value: float) -> int:
        consts.append(value)
        return len(consts) - 1

    def emit(node: Expr) -> int:
        """Append postfix code; returns the subtree's max stack depth."""
        if isinstance(node, Const):
            code.extend((OP_CONST, intern(float(node.value))))
            return 1
        if isinstance(node, Var):
            try:
                code.extend((OP_VAR, var_index[node.name]))
            except KeyError:
                raise InputError(f"unbound variable {node.name!r}") from None
            return 1
        if isinstance(node, (Add, Mul)):
            depth = 0
            for pos, arg in enumerate(node.args):
                depth = max(depth, pos + emit(arg))
            code.extend((OP_ADD if isinstance(node, Add) else OP_MUL, len(node.args)))
            return depth
        if isinstance(node, Div):
            d = emit(node.num)
            d = max(d, 1 + emit(node.den))
            code.append(OP_DIV)
            return d
        if isinstance(node, Square):
            d = emit(node.arg)
            code.append(OP_SQUARE)
            return d
        if isinstance(node, Dot):
            pairs = []
            for coeff, name in zip(node.coeffs, node.names):
                try:
                    pairs.extend((intern(float(coeff)), var_index[name]))
                except KeyError:
                    raise InputError(f"unbound variable {name!r}") from None
            code.extend((OP_DOT, len(node.names)))
            code.extend(pairs)
            return 1
        raise InputError(f"unknown node {node!r}")

    depth = max(emit(expr), 1)
    return Program(code=tuple(code), consts=tuple(consts), stack=[0.0] * depth)
