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

from .errors import (
    EvalError,
    ProfileSyntaxError,
    UnknownFunctionError,
    UnknownVariableError,
)

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
    "print_profile",
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
        if m.lastgroup is None:
            break
        tokens.append((m.lastgroup, m.group(m.lastgroup), m.start(m.lastgroup)))
        pos = m.end()
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
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

    def expr(self) -> ProfileExpr:
        node = self.term()
        while True:
            kind, value, offset = self.peek()
            if kind == "op" and value in "+-":
                self.next()
                node = BinOp(value, node, self.term(), offset=offset)
            else:
                return node

    def term(self) -> ProfileExpr:
        node = self.unary()
        while True:
            kind, value, offset = self.peek()
            if kind == "op" and value in "*/":
                self.next()
                node = BinOp(value, node, self.unary(), offset=offset)
            else:
                return node

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
                    raise UnknownFunctionError(f"unknown function {value!r}", offset)
                self.next()
                arg = self.expr()
                self.expect_op(")")
                return Call(value, arg, offset=offset)
            raise UnknownVariableError(f"unknown variable {value!r}", offset)
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


_PREC = {"+": 1, "-": 1, "*": 2, "/": 2, "neg": 3, "^": 4, "atom": 5}


def _prec(node: ProfileExpr) -> int:
    match node:
        case BinOp(op=op):
            return _PREC[op]
        case Neg():
            return _PREC["neg"]
        case Pow():
            return _PREC["^"]
        case _:
            return _PREC["atom"]


def print_profile(node: ProfileExpr) -> str:
    """Render to source text; parse(print(x)) reproduces x."""
    match node:
        case Const(value=v):
            if v >= 0:
                return repr(v)
            return f"({v!r})"
        case TimeVar():
            return "t"
        case Neg(arg=a):
            inner = print_profile(a)
            if _prec(a) < _PREC["neg"]:
                inner = f"({inner})"
            return f"-{inner}"
        case BinOp(op=op, left=l, right=r):
            ls = print_profile(l)
            rs = print_profile(r)
            if _prec(l) < _PREC[op]:
                ls = f"({ls})"
            # left-associative: parenthesize right child at equal precedence
            if _prec(r) <= _PREC[op]:
                rs = f"({rs})"
            return f"{ls} {op} {rs}"
        case Pow(base=b, exponent=n):
            bs = print_profile(b)
            if _prec(b) <= _PREC["^"]:
                bs = f"({bs})"
            return f"{bs}^{n}" if n >= 0 else f"{bs}^({n})"
        case Call(func=f, arg=a):
            return f"{f}({print_profile(a)})"
    raise TypeError(f"not a profile node: {node!r}")


def differentiate(node: ProfileExpr) -> ProfileExpr:
    """Analytic derivative with respect to t."""
    match node:
        case Const():
            return Const(0.0)
        case TimeVar():
            return Const(1.0)
        case Neg(arg=a):
            return Neg(differentiate(a))
        case BinOp(op="+", left=l, right=r):
            return BinOp("+", differentiate(l), differentiate(r))
        case BinOp(op="-", left=l, right=r):
            return BinOp("-", differentiate(l), differentiate(r))
        case BinOp(op="*", left=l, right=r):
            return BinOp(
                "+",
                BinOp("*", differentiate(l), r),
                BinOp("*", l, differentiate(r)),
            )
        case BinOp(op="/", left=l, right=r):
            num = BinOp(
                "-",
                BinOp("*", differentiate(l), r),
                BinOp("*", l, differentiate(r)),
            )
            return BinOp("/", num, Pow(r, 2))
        case Pow(base=b, exponent=n):
            if n == 0:
                return Const(0.0)
            return BinOp(
                "*",
                BinOp("*", Const(float(n)), Pow(b, n - 1)),
                differentiate(b),
            )
        case Call(func="sin", arg=a):
            return BinOp("*", Call("cos", a), differentiate(a))
        case Call(func="cos", arg=a):
            return BinOp("*", Neg(Call("sin", a)), differentiate(a))
        case Call(func="exp", arg=a):
            return BinOp("*", Call("exp", a), differentiate(a))
        case Call(func="tanh", arg=a):
            chain = BinOp("-", Const(1.0), Pow(Call("tanh", a), 2))
            return BinOp("*", chain, differentiate(a))
    raise TypeError(f"not a profile node: {node!r}")
