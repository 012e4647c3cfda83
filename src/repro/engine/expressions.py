"""Vectorized expression AST for predicates and aggregate inputs.

Expressions evaluate against a page's column arrays and report an
abstract per-row cost used by the CPU model, so that more complex
predicates genuinely make a query more CPU-bound in the simulation.

Example::

    expr = (col("l_discount") >= lit(0.05)) & (col("l_quantity") < lit(24))
    mask = expr.evaluate(page_data)
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import FrozenSet, Hashable, Sequence, Tuple

import numpy as np

from repro.storage.datagen import PageData


def value_key(value: object) -> Tuple[type, Hashable]:
    """Hashable identity of a constant.  The type keeps ``1``, ``1.0``
    and ``True`` apart, and a float goes by its bits, so ``0.0`` and
    ``-0.0`` differ too."""
    if isinstance(value, float):
        return (type(value), value.hex())
    return (type(value), value)


class Expression(ABC):
    """A vectorized expression over page columns."""

    #: Structural identity, built once per node from its children's keys:
    #: expressions with equal keys evaluate to the same values at the
    #: same cost on the same rows.
    key: Tuple

    @abstractmethod
    def evaluate(self, data: PageData) -> np.ndarray:
        """Evaluate against one page's columns."""

    @property
    @abstractmethod
    def cost_units_per_row(self) -> float:
        """Abstract CPU units this expression costs per row."""

    @abstractmethod
    def columns(self) -> FrozenSet[str]:
        """Columns the expression reads."""

    # Operator sugar -----------------------------------------------------

    def __and__(self, other: "Expression") -> "Expression":
        return BooleanOp("and", self, other)

    def __or__(self, other: "Expression") -> "Expression":
        return BooleanOp("or", self, other)

    def __add__(self, other: "Expression") -> "Expression":
        return Arithmetic("+", self, other)

    def __sub__(self, other: "Expression") -> "Expression":
        return Arithmetic("-", self, other)

    def __mul__(self, other: "Expression") -> "Expression":
        return Arithmetic("*", self, other)

    def __lt__(self, other: "Expression") -> "Expression":
        return Comparison("<", self, other)

    def __gt__(self, other: "Expression") -> "Expression":
        return Comparison(">", self, other)

    def __ge__(self, other: "Expression") -> "Expression":
        return Comparison(">=", self, other)

    def eq(self, other: "Expression") -> "Expression":
        """Equality comparison (named to keep __eq__ for identity)."""
        return Comparison("==", self, other)

    def ne(self, other: "Expression") -> "Expression":
        """Inequality comparison."""
        return Comparison("!=", self, other)

    def between(self, low: object, high: object) -> "Expression":
        """Inclusive range predicate."""
        return Between(self, low, high)

    def isin(self, values: Sequence) -> "Expression":
        """Set-membership predicate."""
        return InSet(self, values)


class Column(Expression):
    """Reference to a stored column."""

    def __init__(self, name: str):
        self.name = name
        self.key = ("col", name)

    def evaluate(self, data: PageData) -> np.ndarray:
        try:
            return data[self.name]
        except KeyError:
            raise KeyError(
                f"column {self.name!r} not in page (has: {sorted(data)})"
            ) from None

    @property
    def cost_units_per_row(self) -> float:
        return 0.0  # a column reference is free; operations on it cost

    def columns(self) -> FrozenSet[str]:
        return frozenset([self.name])


class Literal(Expression):
    """A constant."""

    def __init__(self, value: object):
        self.value = value
        self.key = ("lit", value_key(value))

    def evaluate(self, data: PageData) -> np.ndarray:
        return self.value  # type: ignore[return-value] — broadcasting handles it

    @property
    def cost_units_per_row(self) -> float:
        return 0.0

    def columns(self) -> FrozenSet[str]:
        return frozenset()


class Comparison(Expression):
    """Binary comparison producing a boolean mask."""

    _OPS = {
        "<": np.less,
        "<=": np.less_equal,
        ">": np.greater,
        ">=": np.greater_equal,
        "==": np.equal,
        "!=": np.not_equal,
    }

    def __init__(self, op: str, left: Expression, right: Expression):
        if op not in self._OPS:
            raise ValueError(f"unknown comparison {op!r}")
        self.op = op
        self.left = left
        self.right = right
        self.key = (op, left.key, right.key)

    def evaluate(self, data: PageData) -> np.ndarray:
        return self._OPS[self.op](self.left.evaluate(data), self.right.evaluate(data))

    @property
    def cost_units_per_row(self) -> float:
        return 1.0 + self.left.cost_units_per_row + self.right.cost_units_per_row

    def columns(self) -> FrozenSet[str]:
        return self.left.columns() | self.right.columns()


class Between(Expression):
    """Inclusive range test on an expression."""

    def __init__(self, operand: Expression, low: object, high: object):
        self.operand = operand
        self.low = low
        self.high = high
        self.key = ("between", operand.key, value_key(low), value_key(high))

    def evaluate(self, data: PageData) -> np.ndarray:
        values = self.operand.evaluate(data)
        return (values >= self.low) & (values <= self.high)

    @property
    def cost_units_per_row(self) -> float:
        return 2.0 + self.operand.cost_units_per_row

    def columns(self) -> FrozenSet[str]:
        return self.operand.columns()


class InSet(Expression):
    """Set-membership test."""

    def __init__(self, operand: Expression, values: Sequence):
        self.operand = operand
        self.values = tuple(values)
        self.key = ("isin", operand.key, tuple(map(value_key, self.values)))

    def evaluate(self, data: PageData) -> np.ndarray:
        return np.isin(self.operand.evaluate(data), self.values)

    @property
    def cost_units_per_row(self) -> float:
        return 1.0 + 0.5 * len(self.values) + self.operand.cost_units_per_row

    def columns(self) -> FrozenSet[str]:
        return self.operand.columns()


class BooleanOp(Expression):
    """Conjunction / disjunction of boolean expressions."""

    def __init__(self, op: str, left: Expression, right: Expression):
        if op not in ("and", "or"):
            raise ValueError(f"unknown boolean op {op!r}")
        self.op = op
        self.left = left
        self.right = right
        self.key = (op, left.key, right.key)

    def evaluate(self, data: PageData) -> np.ndarray:
        left = self.left.evaluate(data)
        right = self.right.evaluate(data)
        return (left & right) if self.op == "and" else (left | right)

    @property
    def cost_units_per_row(self) -> float:
        return 0.5 + self.left.cost_units_per_row + self.right.cost_units_per_row

    def columns(self) -> FrozenSet[str]:
        return self.left.columns() | self.right.columns()


class Arithmetic(Expression):
    """Elementwise arithmetic over expressions."""

    _OPS = {"+": np.add, "-": np.subtract, "*": np.multiply}

    def __init__(self, op: str, left: Expression, right: Expression):
        if op not in self._OPS:
            raise ValueError(f"unknown arithmetic op {op!r}")
        self.op = op
        self.left = left
        self.right = right
        self.key = (op, left.key, right.key)

    def evaluate(self, data: PageData) -> np.ndarray:
        return self._OPS[self.op](self.left.evaluate(data), self.right.evaluate(data))

    @property
    def cost_units_per_row(self) -> float:
        return 1.0 + self.left.cost_units_per_row + self.right.cost_units_per_row

    def columns(self) -> FrozenSet[str]:
        return self.left.columns() | self.right.columns()


def col(name: str) -> Column:
    """Column reference shorthand."""
    return Column(name)


def lit(value: object) -> Literal:
    """Literal shorthand."""
    return Literal(value)
