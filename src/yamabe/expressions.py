"""Tiny expression language for profiles of the invariance variable ``xi``.

Grammar (whitespace insignificant)::

    expr   := term (('+'|'-') term)*
    term   := factor (('*'|'/') factor)*
    factor := '-' factor | power
    power  := atom ('^' factor)?          # right-associative
    atom   := NUMBER | 'xi' | 'pi' | 'e'
            | FUNC '(' expr ')' | '(' expr ')'

Functions: sin cos tan sec exp ln sqrt abs W (principal Lambert branch).
Number literals are non-negative; a leading '-' is always the unary operator.
"""

from __future__ import annotations

import math
import operator
import re
from dataclasses import dataclass
from typing import Callable, Union

import numpy as np

from .errors import BranchDomainError, EvaluationError, ExpressionSyntaxError
from .lambertw import lambert_w

__all__ = [
    "Node", "Num", "Var", "Const", "Neg", "BinOp", "Call",
    "parse_expression", "differentiate",
    "compile_callable", "compile_array", "compile_jet", "FUNCTIONS",
    "CONSTANTS",
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


# --- evaluation -------------------------------------------------------------

# names a printed literal may use: repr(float) of a non-finite number
_LITERALS = {"inf": math.inf, "nan": math.nan}


def compile_callable(node: Node) -> Callable[[float], float]:
    """The expression at one point: ``compile_array`` on a one-element
    array, returning a finite float or raising EvaluationError where that
    entry is not finite."""
    evaluate = compile_array(node)

    def call(xi: float) -> float:
        value = float(evaluate(np.array([xi], dtype=float))[0])
        if not math.isfinite(value):
            raise EvaluationError(f"non-finite value at xi={xi!r}")
        return value

    return call


def compile_array(node: Node) -> Callable[[np.ndarray], np.ndarray]:
    """The expression evaluated on a whole array at once. Returns a float
    array shaped like its input, NaN at every point where Python's float
    arithmetic or math module raises on some step of the expression.

    numpy returns an infinity or a NaN where Python raises, and a later step
    can turn that back into a finite number (1/(1/xi) at 0, 1/(10^xi) where
    the power overflows). So every division, power and function records
    where Python would have raised, and those points come back NaN.

    sin, cos and sqrt are numpy's, which on x86-64 round as libm does.
    numpy's SIMD exp, log, tan and power round differently in the last bit
    on some inputs, and derivatives amplify that past a few ulp, so those go
    through libm one element at a time (``^`` through ``np.float_power``),
    each result written straight into a float array. W is ``lambert_w`` one
    element at a time in the same way, as the scalar form calls it.
    """
    evaluate = compile_jet((node,))

    def call(xs):
        with np.errstate(all="ignore"):
            return evaluate(np.asarray(xs, dtype=float))[0]

    return call


def compile_jet(nodes) -> Callable[[np.ndarray], tuple]:
    """Several expressions evaluated on one float array by one generated
    function: a tuple with, for each of ``nodes``, the array
    ``compile_array`` gives for it, or None where the node is None, so a
    caller computes only the entries it asks for. Each output is NaN where
    a step of its own tree raises. The function takes a float array and
    runs under the caller's ``np.errstate(all="ignore")``."""
    lines, outputs = [], []
    for k, node in enumerate(nodes):
        if node is None:
            outputs.append("None")
            continue
        lines.append(f"    _raised = []\n"
                     f"    _out{k} = _output(xi, {_pysrc(node)}, _raised)\n")
        outputs.append(f"_out{k}")
    source = (f"def jet(xi):\n{''.join(lines)}"
              f"    return ({', '.join(outputs)},)\n")
    namespace = {**_LITERALS, **_ARRAY_NAMESPACE}
    exec(compile(source, "<expression>", "exec"), namespace)
    return namespace["jet"]


def _output(xs: np.ndarray, value, raised: list) -> np.ndarray:
    """One output of a jet: value as a float array shaped like xs, NaN
    wherever a mask in ``raised`` is set."""
    out = np.asarray(value, dtype=float)
    if out.shape != xs.shape:
        out = np.full(xs.shape, out)
    if raised:
        mask = np.zeros(xs.shape, dtype=bool)
        for where in raised:
            mask |= where
        out = np.where(mask, np.nan, out)
    return out


# The array helpers below take the list ``raised`` of the compiled array
# form and append a boolean mask of the points where Python's form of the
# same step raises.

def _elementwise(fn: Callable[[float], float], errors) -> Callable:
    """fn applied to every element of an array, each result written
    straight into the float output (``np.fromiter`` over ``map``, with no
    list in between). If an element raises one of ``errors``, the elements
    are taken again one at a time: those that raise become NaN and are
    recorded."""
    def apply(xs, raised):
        xs = np.asarray(xs, dtype=float)
        values = xs.ravel().tolist()
        try:
            return np.fromiter(map(fn, values), float,
                               len(values)).reshape(xs.shape)
        except errors:
            out, failed = [], []
            for x in values:
                try:
                    out.append(fn(x))
                    failed.append(False)
                except errors:
                    out.append(math.nan)
                    failed.append(True)
            raised.append(np.array(failed).reshape(xs.shape))
        return np.array(out, dtype=float).reshape(xs.shape)

    return apply


def _math_checked(fn: Callable) -> Callable:
    """A numpy function, recording where the math module raises instead: a
    NaN from a non-NaN argument or an infinity from a finite one."""
    def apply(x, raised):
        out = fn(x)
        if np.count_nonzero(np.isfinite(out)) < np.size(out):
            raised.append((np.isnan(out) & ~np.isnan(x))
                          | (np.isinf(out) & np.isfinite(x)))
        return out

    return apply


def _div_array(a, b, raised):
    """a / b; Python raises ZeroDivisionError wherever b is zero."""
    zero = np.equal(b, 0.0)
    if np.count_nonzero(zero):
        raised.append(zero)
    return np.divide(a, b)


def _pow_array(a, b, raised):
    """a ^ b; math.pow raises where finite operands give a non-finite
    power (overflow, a negative base under a fractional power, 0 to a
    negative power)."""
    out = np.float_power(a, b)
    if np.count_nonzero(np.isfinite(out)) < np.size(out):
        raised.append(~np.isfinite(out) & np.isfinite(a) & np.isfinite(b))
    return out


_MATH_ERRORS = (ValueError, OverflowError)
_ARRAY_NAMESPACE = {
    "_sin": _math_checked(np.sin), "_cos": _math_checked(np.cos),
    "_sqrt": _math_checked(np.sqrt),
    "_sec": _math_checked(lambda x: 1.0 / np.cos(x)),
    "_tan": _elementwise(math.tan, _MATH_ERRORS),
    "_exp": _elementwise(math.exp, _MATH_ERRORS),
    "_ln": _elementwise(math.log, _MATH_ERRORS),
    # looked up at each call, so a wrapper of this module's lambert_w sees it
    "_W": _elementwise(lambda x: lambert_w(x), (BranchDomainError,)),
    "_div": _div_array, "_pow": _pow_array, "_output": _output,
}

_ARRAY_FORMS = {**{fn: f"_{fn}({{}}, _raised)" for fn in FUNCTIONS},
                "abs": "abs({})", "^": "_pow({}, {}, _raised)",
                "/": "_div({}, {}, _raised)"}


def _pysrc(node: Node) -> str:
    if isinstance(node, Num):
        return repr(node.value)
    if isinstance(node, Var):
        return "xi"
    if isinstance(node, Const):
        return repr(CONSTANTS[node.name])
    if isinstance(node, Neg):
        return f"(-{_pysrc(node.arg)})"
    if isinstance(node, Call):
        return _ARRAY_FORMS[node.fn].format(_pysrc(node.arg))
    if isinstance(node, BinOp):
        left, right = _pysrc(node.left), _pysrc(node.right)
        if node.op in _ARRAY_FORMS:
            return _ARRAY_FORMS[node.op].format(left, right)
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


# the binary operations of a fold, in Python's float arithmetic with ``^`` as
# math.pow: both round as the array form's operators (``np.float_power`` is
# libm's pow too), and where the array form marks a failure they raise
_FOLD = {"+": operator.add, "-": operator.sub, "*": operator.mul,
         "/": operator.truediv, "^": math.pow}


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
        # fold only to a finite value; otherwise the failure stays in the
        # tree and shows up when the expression is evaluated
        try:
            value = _FOLD[op](a.value, b.value)
        except (ValueError, OverflowError, ZeroDivisionError):
            value = math.nan
        return Num(value) if math.isfinite(value) else BinOp(op, a, b)
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
