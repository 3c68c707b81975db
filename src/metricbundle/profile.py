"""Time-profile expressions: a small language for real-valued functions of t.

Grammar (standard precedence, ^ binds tightest, then unary minus, then * /,
then + -; binary operators are left-associative except ^ which is
right-associative, so 2^3^2 == 2^(3^2) == 512):

    expr   := term (('+' | '-') term)*
    term   := unary (('*' | '/') unary)*
    unary  := '-' unary | power
    power  := atom ('^' unary)?         # exponent must fold to an integer
    atom   := NUMBER | 't' | NAME '(' expr ')' | '(' expr ')'

Known functions: sin, cos, exp, tanh. The only variable is t. Exponents may
be any constant sub-expression (no t) evaluating to an integer; they are
folded at parse time so differentiation stays in the language.
"""

from __future__ import annotations

import operator
import re
from dataclasses import dataclass, field

import numpy as np

from .errors import EvalError, ProfileSyntaxError

__all__ = [
    "ProfileExpr",
    "Const",
    "TimeVar",
    "Neg",
    "BinOp",
    "Pow",
    "Call",
    "parse_profile",
    "eval_profile",
    "contains_time",
    "differentiate",
]

FUNCTIONS = {"sin": np.sin, "cos": np.cos, "exp": np.exp, "tanh": np.tanh}
_BINOPS = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv}


@dataclass(frozen=True)
class Const:
    value: float
    offset: int = field(default=0, compare=False)


@dataclass(frozen=True)
class TimeVar:
    offset: int = field(default=0, compare=False)


@dataclass(frozen=True)
class Neg:
    arg: "ProfileExpr"
    offset: int = field(default=0, compare=False)


@dataclass(frozen=True)
class BinOp:
    op: str  # one of + - * /
    left: "ProfileExpr"
    right: "ProfileExpr"
    offset: int = field(default=0, compare=False)


@dataclass(frozen=True)
class Pow:
    base: "ProfileExpr"
    exponent: int
    offset: int = field(default=0, compare=False)


@dataclass(frozen=True)
class Call:
    func: str
    arg: "ProfileExpr"
    offset: int = field(default=0, compare=False)


ProfileExpr = Const | TimeVar | Neg | BinOp | Pow | Call

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>\d+\.\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?"
    r"|\d+(?:[eE][+-]?\d+)?)|(?P<name>[A-Za-z_][A-Za-z_0-9]*)|(?P<op>[-+*/^()]))"
)


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            raise ProfileSyntaxError(
                f"unexpected character {stripped[0]!r}", len(text) - len(stripped)
            )
        tokens.append((m.lastgroup, m.group(m.lastgroup), m.start(m.lastgroup)))
        pos = m.end()
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def next(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, op: str):
        kind, value, offset = self.peek()
        if kind != "op" or value != op:
            raise ProfileSyntaxError(f"expected {op!r}", offset)
        return self.next()

    def parse(self) -> ProfileExpr:
        node = self.expr()
        kind, value, offset = self.peek()
        if kind != "end":
            raise ProfileSyntaxError(f"unexpected trailing {value!r}", offset)
        return node

    def binary(self, ops: str, operand) -> ProfileExpr:
        """operand ((one of ops) operand)*, as left-associative BinOps."""
        node = operand()
        while True:
            kind, value, offset = self.peek()
            if kind != "op" or value not in ops:
                return node
            self.next()
            node = BinOp(value, node, operand(), offset=offset)

    def expr(self) -> ProfileExpr:
        return self.binary("+-", self.term)

    def term(self) -> ProfileExpr:
        return self.binary("*/", self.unary)

    def unary(self) -> ProfileExpr:
        kind, value, offset = self.peek()
        if kind == "op" and value == "-":
            self.next()
            return Neg(self.unary(), offset=offset)
        return self.power()

    def power(self) -> ProfileExpr:
        base = self.atom()
        kind, value, offset = self.peek()
        if kind == "op" and value == "^":
            self.next()
            exponent = self.unary()  # recursion through unary keeps ^ right-associative
            return Pow(base, _fold_integer_exponent(exponent, offset), offset=offset)
        return base

    def atom(self) -> ProfileExpr:
        kind, value, offset = self.next()
        if kind == "num":
            return Const(float(value), offset=offset)
        if kind == "name":
            if value == "t":
                return TimeVar(offset=offset)
            nkind, nvalue, _ = self.peek()
            if nkind == "op" and nvalue == "(":
                if value not in FUNCTIONS:
                    raise ProfileSyntaxError(f"unknown function {value!r}", offset)
                self.next()
                arg = self.expr()
                self.expect_op(")")
                return Call(value, arg, offset=offset)
            raise ProfileSyntaxError(f"unknown variable {value!r}", offset)
        if kind == "op" and value == "(":
            node = self.expr()
            self.expect_op(")")
            return node
        raise ProfileSyntaxError(f"unexpected {value!r}" if value else "unexpected end of input", offset)


def _fold_integer_exponent(node: ProfileExpr, offset: int) -> int:
    if contains_time(node):
        raise ProfileSyntaxError("exponent must not depend on t", offset)
    value = eval_profile(node, 0.0)
    rounded = round(value)
    if abs(value - rounded) > 1e-9:
        raise ProfileSyntaxError(f"exponent must be an integer, got {value}", offset)
    return int(rounded)


def contains_time(node: ProfileExpr) -> bool:
    """True when the expression depends on t."""
    match node:
        case TimeVar():
            return True
        case Neg(arg=a) | Call(arg=a) | Pow(base=a):
            return contains_time(a)
        case BinOp(left=l, right=r):
            return contains_time(l) or contains_time(r)
        case _:
            return False


def parse_profile(text: str) -> ProfileExpr:
    return _Parser(text).parse()


def eval_profile(node: ProfileExpr, t):
    """Value of node at t: a float for a float t, an array for an array of times.

    A float is evaluated as a one-element array. When some times fail, the
    EvalError is that of the first failing time, at the first failing node in
    evaluation order (children left to right, then the node itself).
    """
    times = np.atleast_1d(np.asarray(t, dtype=float))
    faults: list = []
    _fault(faults, ~np.isfinite(times), "t must be finite", 0)
    with np.errstate(all="ignore"):
        out = np.broadcast_to(_eval(node, times, faults), times.shape)
    if faults:
        raise EvalError(*min(faults)[2:])
    return float(out[0]) if np.ndim(t) == 0 else out


def _eval(node: ProfileExpr, t: np.ndarray, faults: list):
    """Values over the times t; failing checks are recorded in faults."""
    match node:
        case Const(value=v):
            out = np.float64(v)
        case TimeVar():
            out = t
        case Neg(arg=a):
            out = -_eval(a, t, faults)
        case BinOp(op=op, left=l, right=r, offset=offset):
            lv, rv = _eval(l, t, faults), _eval(r, t, faults)
            if op == "/":
                _fault(faults, rv == 0.0, "division by zero", offset)
            out = _BINOPS[op](lv, rv)
        case Pow(base=b, exponent=n, offset=offset):
            bv = _eval(b, t, faults)
            if n < 0:
                _fault(faults, bv == 0.0, "zero raised to a negative power", offset)
            out = bv**n
        case Call(func=f, arg=a):
            out = FUNCTIONS[f](_eval(a, t, faults))
        case _:
            raise TypeError(f"not a profile node: {node!r}")
    _fault(faults, ~np.isfinite(out), "non-finite value", getattr(node, "offset", 0))
    return out


def _fault(faults: list, mask, message: str, offset: int) -> None:
    """Record a failing check as (first failing time, evaluation order, error)."""
    # A 0-d mask comes from a subtree without t; it fails at every time, index 0.
    if mask.any():
        faults.append((int(np.argmax(mask)), len(faults), message, offset))


# d/du of each known function, as a tree over its argument u whose new nodes
# take the offset at.
_DERIVATIVES = {
    "sin": lambda u, at: Call("cos", u, at),
    "cos": lambda u, at: Neg(Call("sin", u, at), at),
    "exp": lambda u, at: Call("exp", u, at),
    "tanh": lambda u, at: BinOp("-", Const(1.0, at), Pow(Call("tanh", u, at), 2, at), at),
}


def differentiate(node: ProfileExpr) -> ProfileExpr:
    """Analytic derivative with respect to t.

    Every node built here takes the offset of the node it differentiates, so
    an error in the derivative points into the source text.
    """
    at = getattr(node, "offset", 0)
    match node:
        case Const():
            return Const(0.0, at)
        case TimeVar():
            return Const(1.0, at)
        case Neg(arg=a):
            return Neg(differentiate(a), at)
        case BinOp(op="+" | "-" as op, left=l, right=r):
            return BinOp(op, differentiate(l), differentiate(r), at)
        case BinOp(op="*" | "/" as op, left=l, right=r):
            # d(l r) = dl r + l dr, and d(l / r) = (dl r - l dr) / r^2.
            terms = (BinOp("*", differentiate(l), r, at), BinOp("*", l, differentiate(r), at))
            if op == "*":
                return BinOp("+", *terms, at)
            return BinOp("/", BinOp("-", *terms, at), Pow(r, 2, at), at)
        case Pow(base=b, exponent=n):
            if n == 0:
                return Const(0.0, at)
            factor = BinOp("*", Const(float(n), at), Pow(b, n - 1, at), at)
            return BinOp("*", factor, differentiate(b), at)
        case Call(func=f, arg=a):
            return BinOp("*", _DERIVATIVES[f](a, at), differentiate(a), at)
    raise TypeError(f"not a profile node: {node!r}")
