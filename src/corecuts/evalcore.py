"""Expression programs: a tree bound to positions in a value vector.

The enumerator reads a node's fixed variables as one float vector
ordered by its flat variable list.  ``compile_expr`` checks that every
variable of an expression has a position there; ``Program.run`` reads
those positions into a name map and evaluates the tree with
``exprs.eval_float``, the package's one float evaluator.  A zero
denominator yields ok=False instead of raising.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InputError
from .exprs import EvalDivisionByZero, Expr, eval_float, variables_of


def backend_name() -> str:
    """Which evaluator runs programs; there is only the Python one."""
    return "python"


@dataclass(frozen=True)
class Program:
    """An expression and the vector position of each of its variables."""

    expr: Expr
    slots: tuple[tuple[str, int], ...]

    def run(self, values) -> tuple[bool, float]:
        """Evaluate at a float vector ordered by the compiling var_index;
        returns (ok, value)."""
        env = {name: values[pos] for name, pos in self.slots}
        try:
            return True, eval_float(self.expr, env)
        except EvalDivisionByZero:
            return False, 0.0


def compile_expr(expr: Expr, var_index: dict[str, int]) -> Program:
    """Bind an expression to the positions in ``var_index``, which maps
    variable names to positions in the value vector passed to run()."""
    slots = []
    for name in sorted(variables_of(expr)):
        if name not in var_index:
            raise InputError(f"unbound variable {name!r}")
        slots.append((name, var_index[name]))
    return Program(expr, tuple(slots))
