"""Tiny expression language for profiles of the invariance variable ``xi``.

Grammar (whitespace insignificant)::

    expr   := term (('+'|'-') term)*
    term   := factor (('*'|'/') factor)*
    factor := '-' factor | power
    power  := atom ('^' factor)?          # right-associative
    atom   := NUMBER | 'xi' | 'pi' | 'e'
            | FUNC '(' expr ')' | '(' expr ')'

Functions: sin cos tan sec exp ln sqrt abs W (principal Lambert branch).
Number literals are non-negative; a leading '-' is always the unary operator,
which keeps print -> parse an exact round trip on any tree whose literals are
non-negative.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Callable, Union

import numpy as np

from .errors import BranchDomainError, EvaluationError, ExpressionSyntaxError
from .lambertw import lambert_w

__all__ = [
    "Node", "Num", "Var", "Const", "Neg", "BinOp", "Call",
    "parse_expression", "to_text", "evaluate", "differentiate",
    "compile_callable", "compile_array", "FUNCTIONS", "CONSTANTS",
]

FUNCTIONS = ("sin", "cos", "tan", "sec", "exp", "ln", "sqrt", "abs", "W")
CONSTANTS = {"pi": math.pi, "e": math.e}


@dataclass(frozen=True)
class Num:
    value: float


@dataclass(frozen=True)
class Var:
    pass


@dataclass(frozen=True)
class Const:
    name: str


@dataclass(frozen=True)
class Neg:
    arg: "Node"


@dataclass(frozen=True)
class BinOp:
    op: str  # one of + - * / ^
    left: "Node"
    right: "Node"


@dataclass(frozen=True)
class Call:
    fn: str
    arg: "Node"


Node = Union[Num, Var, Const, Neg, BinOp, Call]

_TOKEN = re.compile(
    r"\s*(?:(?P<num>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^()]))"
)


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def _skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self):
        self._skip_ws()
        if self.pos >= len(self.text):
            return None, None, self.pos
        m = _TOKEN.match(self.text, self.pos)
        if not m:
            raise ExpressionSyntaxError(
                f"unexpected character {self.text[self.pos]!r}", self.pos)
        kind = m.lastgroup
        return kind, m.group(kind), m.start(kind)

    def take(self):
        kind, value, start = self.peek()
        if kind is not None:
            self.pos = start + len(value)
        return kind, value, start

    def expect_op(self, op: str):
        kind, value, start = self.take()
        if kind != "op" or value != op:
            raise ExpressionSyntaxError(
                f"expected {op!r}, found {value!r}", start)

    def parse(self) -> Node:
        node = self.expr()
        kind, value, start = self.peek()
        if kind is not None:
            raise ExpressionSyntaxError(
                f"trailing input starting with {value!r}", start)
        return node

    def expr(self) -> Node:
        node = self.term()
        while True:
            kind, value, _ = self.peek()
            if kind == "op" and value in "+-":
                self.take()
                node = BinOp(value, node, self.term())
            else:
                return node

    def term(self) -> Node:
        node = self.factor()
        while True:
            kind, value, _ = self.peek()
            if kind == "op" and value in "*/":
                self.take()
                node = BinOp(value, node, self.factor())
            else:
                return node

    def factor(self) -> Node:
        kind, value, _ = self.peek()
        if kind == "op" and value == "-":
            self.take()
            return Neg(self.factor())
        return self.power()

    def power(self) -> Node:
        node = self.atom()
        kind, value, _ = self.peek()
        if kind == "op" and value == "^":
            self.take()
            return BinOp("^", node, self.factor())
        return node

    def atom(self) -> Node:
        kind, value, start = self.take()
        if kind == "num":
            return Num(float(value))
        if kind == "name":
            if value == "xi":
                return Var()
            if value in CONSTANTS:
                return Const(value)
            if value in FUNCTIONS:
                self.expect_op("(")
                arg = self.expr()
                self.expect_op(")")
                return Call(value, arg)
            raise ExpressionSyntaxError(f"unknown identifier {value!r}", start)
        if kind == "op" and value == "(":
            node = self.expr()
            self.expect_op(")")
            return node
        raise ExpressionSyntaxError(
            f"expected a number, name or '(', found {value!r}", start)


def parse_expression(text: str) -> Node:
    """Parse ``text`` into an AST; raises ExpressionSyntaxError with offset."""
    return _Parser(text).parse()


# --- printing ---------------------------------------------------------------

_PREC = {"+": 1, "-": 1, "*": 2, "/": 2, "neg": 3, "^": 4, "atom": 5}


def _prec(node: Node) -> int:
    if isinstance(node, BinOp):
        return _PREC[node.op]
    if isinstance(node, Neg):
        return _PREC["neg"]
    return _PREC["atom"]


def to_text(node: Node) -> str:
    """Render an AST; parse(to_text(ast)) == ast for non-negative literals."""
    if isinstance(node, Num):
        return repr(node.value)
    if isinstance(node, Var):
        return "xi"
    if isinstance(node, Const):
        return node.name
    if isinstance(node, Call):
        return f"{node.fn}({to_text(node.arg)})"
    if isinstance(node, Neg):
        inner = to_text(node.arg)
        if _prec(node.arg) < _PREC["neg"]:
            inner = f"({inner})"
        return "-" + inner
    if isinstance(node, BinOp):
        p = _PREC[node.op]
        left, right = to_text(node.left), to_text(node.right)
        if _prec(node.left) < p or (node.op == "^" and _prec(node.left) <= p):
            left = f"({left})"
        # +-*/ are left-associative, ^ right-associative.  A right operand of
        # equal precedence is parenthesised even for + and * so the printed
        # text reparses to the identical tree, not just an equal value.
        rp = _prec(node.right)
        if node.op in "+-*/" and (rp <= p or isinstance(node.right, Neg)):
            right = f"({right})"
        elif node.op == "^" and rp < _PREC["neg"]:
            right = f"({right})"
        return f"{left}{node.op}{right}" if node.op == "^" else f"{left} {node.op} {right}"
    raise TypeError(f"not an expression node: {node!r}")


# --- evaluation -------------------------------------------------------------

def _sec(x: float) -> float:
    return 1.0 / math.cos(x)


_FN_IMPL: dict[str, Callable[[float], float]] = {
    "sin": math.sin, "cos": math.cos, "tan": math.tan, "sec": _sec,
    "exp": math.exp, "ln": math.log, "sqrt": math.sqrt, "abs": abs,
    "W": lambda x: lambert_w(x, branch="principal"),
}


def evaluate(node: Node, xi: float) -> float:
    """Interpret the AST at a point. Non-finite results raise EvaluationError."""
    try:
        value = _eval(node, xi)
    except (ValueError, OverflowError, ZeroDivisionError) as exc:
        raise EvaluationError(f"cannot evaluate at xi={xi!r}: {exc}") from exc
    if not math.isfinite(value):
        raise EvaluationError(f"non-finite value at xi={xi!r}")
    return value


def _eval(node: Node, xi: float) -> float:
    if isinstance(node, Num):
        return node.value
    if isinstance(node, Var):
        return xi
    if isinstance(node, Const):
        return CONSTANTS[node.name]
    if isinstance(node, Neg):
        return -_eval(node.arg, xi)
    if isinstance(node, Call):
        return _FN_IMPL[node.fn](_eval(node.arg, xi))
    if isinstance(node, BinOp):
        a = _eval(node.left, xi)
        b = _eval(node.right, xi)
        if node.op == "+":
            return a + b
        if node.op == "-":
            return a - b
        if node.op == "*":
            return a * b
        if node.op == "/":
            return a / b
        return a ** b
    raise TypeError(f"not an expression node: {node!r}")


def compile_callable(node: Node) -> Callable[[float], float]:
    """Close over the AST once; repeated evaluation skips re-dispatch cost."""
    fn = _compile(node, _PY_FORMS, {"math": math, "_sec": _sec,
                                    "_W": _FN_IMPL["W"]})

    def call(xi: float) -> float:
        try:
            value = fn(xi)
        except (ValueError, OverflowError, ZeroDivisionError) as exc:
            raise EvaluationError(f"cannot evaluate at xi={xi!r}: {exc}") from exc
        if not math.isfinite(value):
            raise EvaluationError(f"non-finite value at xi={xi!r}")
        return value

    return call


def compile_array(node: Node) -> Callable[[np.ndarray], np.ndarray]:
    """The same source as ``compile_callable`` evaluated on a whole array at
    once. Returns a float array shaped like its input; a point where the
    expression cannot be evaluated comes back non-finite instead of raising.

    sin, cos and sqrt are numpy's, which on x86-64 round as libm does.
    numpy's SIMD exp, log, tan and power round differently in the last bit
    on some inputs, and derivatives amplify that past a few ulp, so those go
    through libm one element at a time (``^`` through ``np.float_power``).
    """
    fn = _compile(node, _ARRAY_FORMS, {"np": np, "_sec": _sec_array,
                                       "_W": _w_array, **_LIBM_ARRAY})

    def call(xs):
        xs = np.asarray(xs, dtype=float)
        with np.errstate(all="ignore"):
            out = np.asarray(fn(xs), dtype=float)
        return out if out.shape == xs.shape else np.full(xs.shape, out)

    return call


def _compile(node: Node, forms: dict[str, str], namespace: dict):
    src = _pysrc(node, forms)
    return eval(compile(f"lambda xi: {src}", "<expression>", "eval"), namespace)


def _elementwise(fn: Callable[[float], float], errors) -> Callable:
    """fn applied to every element of an array; elements that raise one of
    ``errors`` become NaN."""
    def guarded(x: float) -> float:
        try:
            return fn(x)
        except errors:
            return math.nan

    def apply(xs):
        xs = np.asarray(xs, dtype=float)
        values = xs.ravel().tolist()
        try:
            out = list(map(fn, values))
        except errors:
            out = list(map(guarded, values))
        return np.array(out, dtype=float).reshape(xs.shape)

    return apply


_MATH_ERRORS = (ValueError, OverflowError)
_LIBM_ARRAY = {f"_{name}": _elementwise(getattr(math, name), _MATH_ERRORS)
               for name in ("exp", "log", "tan")}
_w_array = _elementwise(_FN_IMPL["W"], _MATH_ERRORS + (BranchDomainError,))


def _sec_array(x):
    return 1.0 / np.cos(x)


_PY_FORMS = {"sin": "math.sin", "cos": "math.cos", "tan": "math.tan",
             "sec": "_sec", "exp": "math.exp", "ln": "math.log",
             "sqrt": "math.sqrt", "abs": "abs", "W": "_W",
             "^": "({}**{})"}
_ARRAY_FORMS = {"sin": "np.sin", "cos": "np.cos", "tan": "_tan", "sec": "_sec",
                "exp": "_exp", "ln": "_log", "sqrt": "np.sqrt", "abs": "abs",
                "W": "_W", "^": "np.float_power({}, {})"}


def _pysrc(node: Node, forms: dict[str, str]) -> str:
    if isinstance(node, Num):
        return repr(node.value)
    if isinstance(node, Var):
        return "xi"
    if isinstance(node, Const):
        return repr(CONSTANTS[node.name])
    if isinstance(node, Neg):
        return f"(-{_pysrc(node.arg, forms)})"
    if isinstance(node, Call):
        return f"{forms[node.fn]}({_pysrc(node.arg, forms)})"
    if isinstance(node, BinOp):
        left, right = _pysrc(node.left, forms), _pysrc(node.right, forms)
        if node.op == "^":
            return forms["^"].format(left, right)
        return f"({left}{node.op}{right})"
    raise TypeError(f"not an expression node: {node!r}")


# --- differentiation --------------------------------------------------------

def differentiate(node: Node) -> Node:
    """Symbolic d/dxi with light constant folding."""
    return _simplify(_diff(node))


def _diff(node: Node) -> Node:
    if isinstance(node, (Num, Const)):
        return Num(0.0)
    if isinstance(node, Var):
        return Num(1.0)
    if isinstance(node, Neg):
        return Neg(_diff(node.arg))
    if isinstance(node, BinOp):
        a, b = node.left, node.right
        da, db = _diff(a), _diff(b)
        if node.op == "+":
            return BinOp("+", da, db)
        if node.op == "-":
            return BinOp("-", da, db)
        if node.op == "*":
            return BinOp("+", BinOp("*", da, b), BinOp("*", a, db))
        if node.op == "/":
            num = BinOp("-", BinOp("*", da, b), BinOp("*", a, db))
            return BinOp("/", num, BinOp("^", b, Num(2.0)))
        # a^b: general form via a^b * (b' ln a + b a'/a); constant exponent
        # gets the power rule so negative bases keep working.
        if isinstance(b, Num):
            return BinOp("*", BinOp("*", b, BinOp("^", a, Num(b.value - 1.0))), da)
        log_term = BinOp("+", BinOp("*", db, Call("ln", a)),
                         BinOp("/", BinOp("*", b, da), a))
        return BinOp("*", node, log_term)
    if isinstance(node, Call):
        u, du = node.arg, _diff(node.arg)
        if node.fn == "sin":
            outer = Call("cos", u)
        elif node.fn == "cos":
            outer = Neg(Call("sin", u))
        elif node.fn == "tan":
            outer = BinOp("/", Num(1.0), BinOp("^", Call("cos", u), Num(2.0)))
        elif node.fn == "sec":
            outer = BinOp("*", Call("sec", u), Call("tan", u))
        elif node.fn == "exp":
            outer = node
        elif node.fn == "ln":
            outer = BinOp("/", Num(1.0), u)
        elif node.fn == "sqrt":
            outer = BinOp("/", Num(1.0), BinOp("*", Num(2.0), node))
        elif node.fn == "abs":
            outer = BinOp("/", node, u)  # sign(u) away from u = 0
        elif node.fn == "W":
            # dW/dx = exp(-W(x)) / (1 + W(x)); finite at x = 0.
            outer = BinOp("/", Call("exp", Neg(node)),
                          BinOp("+", Num(1.0), node))
        else:
            raise TypeError(f"no derivative rule for {node.fn}")
        return BinOp("*", outer, du)
    raise TypeError(f"not an expression node: {node!r}")


def _simplify(node: Node) -> Node:
    if isinstance(node, Neg):
        arg = _simplify(node.arg)
        if isinstance(arg, Num):
            return Num(-arg.value) if arg.value != 0 else Num(0.0)
        return Neg(arg)
    if isinstance(node, Call):
        return Call(node.fn, _simplify(node.arg))
    if not isinstance(node, BinOp):
        return node
    a, b = _simplify(node.left), _simplify(node.right)
    op = node.op
    if isinstance(a, Num) and isinstance(b, Num):
        try:
            return Num(_eval(BinOp(op, a, b), 0.0))
        except (ValueError, OverflowError, ZeroDivisionError):
            return BinOp(op, a, b)
    zero_a = isinstance(a, Num) and a.value == 0.0
    zero_b = isinstance(b, Num) and b.value == 0.0
    one_a = isinstance(a, Num) and a.value == 1.0
    one_b = isinstance(b, Num) and b.value == 1.0
    if op == "+":
        if zero_a:
            return b
        if zero_b:
            return a
    elif op == "-":
        if zero_b:
            return a
        if zero_a:
            return Neg(b)
    elif op == "*":
        if zero_a or zero_b:
            return Num(0.0)
        if one_a:
            return b
        if one_b:
            return a
    elif op == "/":
        if zero_a:
            return Num(0.0)
        if one_b:
            return a
    elif op == "^":
        if one_b:
            return a
        if zero_b:
            return Num(1.0)
    return BinOp(op, a, b)
