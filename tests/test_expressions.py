import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from yamabe.errors import (BranchDomainError, EvaluationError,
                           ExpressionSyntaxError)
from yamabe.expressions import (CONSTANTS, FUNCTIONS, BinOp, Call, Const, Neg,
                                Num, Var, _simplify, compile_array,
                                compile_callable, compile_jet, differentiate,
                                parse_expression, to_text)
from yamabe.lambertw import lambert_w

from conftest import central_d1


def ev(text, xi):
    return compile_callable(parse_expression(text))(xi)


# An independent scalar evaluator to hold the compiled array form to: the
# expression in Python's float arithmetic and math module, one point at a
# time, raising EvaluationError where a step raises or the value is not
# finite.
_PY_FORMS = {"sin": "math.sin({})", "cos": "math.cos({})",
             "tan": "math.tan({})", "sec": "_sec({})", "exp": "math.exp({})",
             "ln": "math.log({})", "sqrt": "math.sqrt({})", "abs": "abs({})",
             "W": "_W({})", "^": "math.pow({}, {})"}


def _sec(x):
    return 1.0 / math.cos(x)


def _w(x):
    return lambert_w(x, branch="principal")


def _py_source(node):
    if isinstance(node, Num):
        return repr(node.value)
    if isinstance(node, Var):
        return "xi"
    if isinstance(node, Const):
        return repr(CONSTANTS[node.name])
    if isinstance(node, Neg):
        return f"(-{_py_source(node.arg)})"
    if isinstance(node, Call):
        return _PY_FORMS[node.fn].format(_py_source(node.arg))
    left, right = _py_source(node.left), _py_source(node.right)
    if node.op == "^":
        return _PY_FORMS["^"].format(left, right)
    return f"({left}{node.op}{right})"


def reference(node):
    fn = eval(f"lambda xi: {_py_source(node)}",
              {"math": math, "_sec": _sec, "_W": _w, "inf": math.inf,
               "nan": math.nan})

    def call(xi):
        try:
            value = fn(xi)
        except (ValueError, OverflowError, ZeroDivisionError,
                BranchDomainError) as exc:
            raise EvaluationError(f"cannot evaluate at xi={xi!r}: {exc}")
        if not math.isfinite(value):
            raise EvaluationError(f"non-finite value at xi={xi!r}")
        return value

    return call


class TestParsing:
    def test_precedence_and_power(self):
        assert ev("2 + 3*4", 0.0) == 14.0
        assert ev("2*3^2", 0.0) == 18.0
        assert ev("2^3^2", 0.0) == 512.0          # right-associative
        assert ev("(2^3)^2", 0.0) == 64.0

    def test_unary_minus_binds_below_power(self):
        assert ev("-xi^2", 3.0) == -9.0
        assert ev("(-xi)^2", 3.0) == 9.0
        assert ev("2--3", 0.0) == 5.0

    def test_constants_and_variable(self):
        assert ev("pi", 0.0) == math.pi
        assert ev("e", 0.0) == math.e
        assert ev("xi/2", 5.0) == 2.5

    def test_functions(self):
        assert ev("sec(0)", 0.0) == 1.0
        assert abs(ev("sec(1)", 0.0) - 1.0 / math.cos(1.0)) < 1e-15
        assert abs(ev("W(1)", 0.0) - 0.5671432904097838) < 1e-12
        # W(x e^x) = x on the principal branch
        assert abs(ev("W(2*exp(2))", 0.0) - 2.0) < 1e-12
        assert ev("abs(0-3.5)", 0.0) == 3.5

    def test_syntax_error_carries_offset(self):
        with pytest.raises(ExpressionSyntaxError) as err:
            parse_expression("1 + $")
        assert "offset 4" in str(err.value)
        assert err.value.position == 4

    def test_unknown_identifier(self):
        with pytest.raises(ExpressionSyntaxError):
            parse_expression("2*foo(1)")

    def test_trailing_input(self):
        with pytest.raises(ExpressionSyntaxError):
            parse_expression("1 + 2 3")

    def test_unbalanced_parens(self):
        with pytest.raises(ExpressionSyntaxError):
            parse_expression("sin(xi")


class TestEvaluation:
    def test_division_by_zero(self):
        with pytest.raises(EvaluationError):
            ev("1/xi", 0.0)

    def test_log_domain(self):
        with pytest.raises(EvaluationError):
            ev("ln(xi)", -1.0)

    def test_overflow_is_reported(self):
        with pytest.raises(EvaluationError):
            ev("exp(exp(xi))", 10.0)

    def test_fractional_power_of_negative_base(self):
        with pytest.raises(EvaluationError):
            ev("xi^0.5", -1.0)

    def test_lambert_off_branch(self):
        with pytest.raises(EvaluationError):
            ev("W(xi)", -1.0)

    def test_non_finite_literal(self):
        # 1e400 parses to inf, which prints as the name "inf"
        with pytest.raises(EvaluationError):
            ev("xi + 1e400", 0.0)
        assert np.isinf(compile_array(parse_expression("1e400"))(
            np.zeros(2))).all()

    def test_array_constant_division_by_zero(self):
        got = compile_array(parse_expression("xi + 1/0"))(np.arange(3.0))
        assert got.shape == (3,) and np.isnan(got).all()

    @pytest.mark.parametrize("text,bad,good", [
        ("1/(1/xi)", 0.0, 2.0),          # 1/0 -> inf, then 1/inf -> 0
        ("1/(10^xi)", 400.0, 2.0),       # the power overflows, then 1/inf
        ("exp(-1/xi)", 0.0, 1.0),        # -1/0 -> -inf, then exp -> 0
        ("1/(xi^-1)", 0.0, 4.0),         # 0^-1 -> inf, then 1/inf
        ("1/ln(xi - 1)", 1.0, 3.0)])     # ln(0) -> -inf, then 1/-inf
    def test_array_fails_where_the_scalar_raises(self, text, bad, good):
        node = parse_expression(text)
        with pytest.raises(EvaluationError):
            reference(node)(bad)
        with pytest.raises(EvaluationError):
            compile_callable(node)(bad)
        got = compile_array(node)(np.array([bad, good]))
        assert np.isnan(got[0])
        assert got[1] == reference(node)(good) == compile_callable(node)(good)

    def test_array_keeps_infinities_the_scalar_form_keeps(self):
        # a float product overflows to inf without raising, so both forms
        # give 1/inf = 0
        node = parse_expression("1/(xi*1e308*10)")
        assert reference(node)(1.0) == 0.0
        assert compile_array(node)(np.array([1.0])).tolist() == [0.0]


class TestFolding:
    """Num op Num folds only to a finite value; anything else keeps the
    BinOp, so the failure surfaces when the expression is evaluated."""

    def test_finite_fold(self):
        assert _simplify(BinOp("*", Num(2.0), Num(3.0))) == Num(6.0)
        assert _simplify(BinOp("^", Num(2.0), Num(0.5))) == Num(math.pow(2.0, 0.5))

    @pytest.mark.parametrize("op,a,b", [("^", -8.0, 1.0 / 3.0),
                                        ("/", 1.0, 0.0),
                                        ("*", 1e308, 10.0)])
    def test_failing_fold_stays_a_binop(self, op, a, b):
        node = BinOp(op, Num(a), Num(b))
        assert _simplify(node) == node
        with pytest.raises(EvaluationError):
            reference(_simplify(node))(1.0)
        assert not np.isfinite(compile_array(_simplify(node))(np.ones(1))[0])

    def test_overflowing_derivative_is_not_folded(self):
        # d/dxi (xi*1e308*10) = 1e308*10: evaluating it overflows
        node = differentiate(parse_expression("xi*1e308*10"))
        with pytest.raises(EvaluationError):
            reference(node)(1.0)
        assert np.isinf(compile_array(node)(np.ones(1))[0])


# random trees over every function, every operator and signed literals: the
# scalar form returns a finite float or raises EvaluationError, the array
# form never raises, and it is the reference evaluator wherever that is
# finite
_signed_leaf = st.one_of(
    st.builds(Num, st.floats(min_value=0.0, max_value=10.0)),
    st.builds(lambda v: Neg(Num(v)), st.floats(min_value=0.0, max_value=10.0)),
    st.just(Var()),
    st.builds(Const, st.sampled_from(["pi", "e"])),
)
_any_tree = st.recursive(_signed_leaf, lambda children: st.one_of(
    st.builds(Neg, children),
    st.builds(BinOp, st.sampled_from("+-*/^"), children, children),
    st.builds(Call, st.sampled_from(FUNCTIONS), children),
), max_leaves=12)
_xis = st.one_of(st.just(0.0), st.floats(min_value=-3.0, max_value=3.0))


class TestErrorContract:
    @given(_any_tree, _xis)
    @settings(max_examples=400, deadline=None)
    def test_scalar_is_finite_or_evaluation_error(self, node, xi):
        for tree in (node, differentiate(node)):
            try:
                value = compile_callable(tree)(xi)
            except EvaluationError:
                continue
            assert isinstance(value, float) and math.isfinite(value)

    @given(_any_tree, st.lists(_xis, max_size=4))
    @settings(max_examples=300, deadline=None)
    def test_array_never_raises(self, node, xis):
        xs = np.array(xis, dtype=float)
        for tree in (node, differentiate(node)):
            got = compile_array(tree)(xs)
            assert got.dtype == np.float64 and got.shape == xs.shape

    @given(_any_tree, st.lists(_xis, min_size=1, max_size=4))
    @settings(max_examples=400, deadline=None)
    def test_array_is_non_finite_where_the_scalar_raises(self, node, xis):
        xs = np.array(xis, dtype=float)
        for tree in (node, differentiate(node)):
            got = compile_array(tree)(xs)
            scalar = reference(tree)
            for xi, entry in zip(xis, got.tolist()):
                try:
                    want = scalar(xi)
                except EvaluationError:
                    assert not math.isfinite(entry)
                    continue
                # bitwise: equal, and with the sign of a zero
                assert (entry, math.copysign(1.0, entry)) \
                    == (want, math.copysign(1.0, want))


def reference_or_nan(node):
    """The reference evaluator without its finiteness check: NaN where a
    step raises in Python, the value (possibly infinite or NaN) otherwise."""
    fn = eval(f"lambda xi: {_py_source(node)}",
              {"math": math, "_sec": _sec, "_W": _w, "inf": math.inf,
               "nan": math.nan})

    def call(xi):
        try:
            return fn(xi)
        except (ValueError, OverflowError, ZeroDivisionError,
                BranchDomainError):
            return math.nan

    return call


def same_float(a, b):
    """Bitwise equal up to the payload of a NaN: both NaN, or equal with
    the same sign (which tells 0.0 from -0.0)."""
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return a == b and math.copysign(1.0, a) == math.copysign(1.0, b)


class TestCompiledJet:
    @given(_any_tree, st.lists(_xis, min_size=1, max_size=4))
    @settings(max_examples=300, deadline=None)
    def test_jet_is_the_reference_at_every_point(self, node, xis):
        """One generated function for a tree and its two derivatives: each
        entry is the math-based evaluator's, NaN exactly where a step of
        that entry's own tree raises."""
        d1 = differentiate(node)
        trees = (node, d1, differentiate(d1))
        xs = np.array(xis, dtype=float)
        with np.errstate(all="ignore"):
            got = compile_jet(trees)(xs)
        for tree, entry in zip(trees, got):
            assert entry.dtype == np.float64 and entry.shape == xs.shape
            want = reference_or_nan(tree)
            for xi, value in zip(xis, entry.tolist()):
                assert same_float(value, want(xi)), (to_text(tree), xi)

    def test_only_the_entries_asked_for(self):
        value, d1 = parse_expression("exp(0.5*xi)"), None
        d2 = differentiate(differentiate(value))
        with np.errstate(all="ignore"):
            got = compile_jet((value, d1, d2))(np.array([0.0, 2.0]))
        assert got[1] is None
        assert got[0].tolist() == [1.0, math.exp(1.0)]
        assert got[2].tolist() == [0.25, math.exp(1.0) * 0.5 * 0.5]

    def test_a_failure_masks_only_the_trees_it_is_in(self):
        # 1/xi raises at 0 in the first two trees; the third evaluates in
        # the same function and has no step that raises
        trees = [parse_expression(text)
                 for text in ("1/xi + 1", "2*(1/xi)", "xi + 1")]
        with np.errstate(all="ignore"):
            got = compile_jet(trees)(np.array([0.0, 1.0]))
        assert [np.isnan(g).tolist() for g in got] == [
            [True, False], [True, False], [False, False]]
        assert got[2].tolist() == [1.0, 2.0]


# random ASTs for the print -> parse round trip; literals stay non-negative
# so textual round-tripping is exact by construction
_leaf = st.one_of(
    st.builds(Num, st.floats(min_value=0.0, max_value=100.0,
                             allow_nan=False, allow_infinity=False)),
    st.just(Var()),
    st.builds(Const, st.sampled_from(["pi", "e"])),
)


def _node_strategy(children):
    return st.one_of(
        st.builds(Neg, children),
        st.builds(BinOp, st.sampled_from("+-*/^"), children, children),
        st.builds(Call, st.sampled_from(["sin", "cos", "exp", "sqrt", "abs"]),
                  children),
    )


_ast = st.recursive(_leaf, _node_strategy, max_leaves=25)


class TestRoundTrip:
    @given(_ast)
    @settings(max_examples=300, deadline=None)
    def test_print_parse_is_identity(self, node):
        assert parse_expression(to_text(node)) == node

    def test_readable_rendering(self):
        node = parse_expression("-(xi + 1)*2^xi")
        assert parse_expression(to_text(node)) == node


class TestDifferentiation:
    CASES = [
        ("xi^3 - 2*xi", lambda x: 3 * x * x - 2),
        ("sin(2*xi)", lambda x: 2 * math.cos(2 * x)),
        ("exp(xi^2/4)", lambda x: 0.5 * x * math.exp(x * x / 4)),
        ("ln(xi + 3)", lambda x: 1.0 / (x + 3)),
        ("sec(xi)", lambda x: math.tan(x) / math.cos(x)),
        ("sqrt(xi + 2)", lambda x: 0.5 / math.sqrt(x + 2)),
        ("1/xi", lambda x: -1.0 / x ** 2),
        ("xi^xi", lambda x: x ** x * (math.log(x) + 1.0)),
    ]

    @pytest.mark.parametrize("text,expected", CASES)
    def test_symbolic_matches_closed_form(self, text, expected):
        dfn = compile_callable(differentiate(parse_expression(text)))
        for xi in (0.3, 0.9, 1.7):
            assert abs(dfn(xi) - expected(xi)) <= 1e-12 * max(1, abs(expected(xi)))

    def test_lambert_derivative(self):
        # dW/dx = exp(-W)/(1+W), checked against the finite difference of
        # the evaluator itself
        ast = parse_expression("W(xi)")
        dfn = compile_callable(differentiate(ast))
        fn = compile_callable(ast)
        for xi in (0.2, 1.0, 4.0):
            fd = central_d1(fn, xi)
            assert abs(dfn(xi) - fd) < 1e-9

    def test_abs_derivative_away_from_zero(self):
        dfn = compile_callable(differentiate(parse_expression("abs(xi)")))
        assert dfn(2.0) == 1.0
        assert dfn(-2.0) == -1.0

    @given(st.sampled_from([c[0] for c in CASES]),
           st.floats(min_value=0.25, max_value=2.0))
    @settings(max_examples=120, deadline=None)
    def test_derivative_matches_fd_property(self, text, xi):
        ast = parse_expression(text)
        dfn = compile_callable(differentiate(ast))
        fd = central_d1(compile_callable(ast), xi)
        assert abs(dfn(xi) - fd) <= 1e-6 * max(1.0, abs(fd))

    def test_second_derivative_chains(self):
        d2 = compile_callable(
            differentiate(differentiate(parse_expression("sin(xi)*exp(xi)"))))
        # (sin e^x)'' = 2 cos(x) e^x
        for xi in (0.1, 1.1):
            assert abs(d2(xi) - 2 * math.cos(xi) * math.exp(xi)) < 1e-11
