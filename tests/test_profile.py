import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from metricbundle.errors import EvalError, ProfileSyntaxError
from metricbundle.profile import (
    BinOp,
    Call,
    Const,
    Neg,
    Pow,
    TimeVar,
    differentiate,
    eval_profile,
    parse_profile,
)

# exp(-1) * cos(3), frozen from a 50-digit mpmath evaluation:
# -0.36419788641329288715138462775214343005839573222367
EXP_COS_ORACLE = -0.36419788641329288715138462775214343


class TestParse:
    def test_literal(self):
        assert parse_profile("1") == Const(1.0)

    def test_product_of_sine(self):
        assert parse_profile("0.5*sin(2*t)") == BinOp(
            "*", Const(0.5), Call("sin", BinOp("*", Const(2.0), TimeVar()))
        )

    def test_power_right_associative(self):
        # 2^3^2 = 2^(3^2) = 512; a sub-expression without t folds to its value
        assert parse_profile("2^3^2") == Const(512.0)
        assert parse_profile("t^3^2") == Pow(TimeVar(), 9)

    def test_sub_expression_without_t_folds_to_its_value(self):
        node = parse_profile("t * (-2 + exp(1))")
        assert node == BinOp("*", TimeVar(), Const(-2.0 + math.exp(1.0)))
        assert node.right.offset == 8  # the + it folds
        assert differentiate(node.right) == Const(0.0)

    @pytest.mark.parametrize("text, offset", [("1e400", 0), ("t + 2e308", 4)])
    def test_literal_beyond_the_float_range_is_an_eval_error(self, text, offset):
        with pytest.raises(EvalError, match=f"^non-finite value \\(at offset {offset}\\)$"):
            parse_profile(text)

    def test_at_most_100_operators_and_parentheses(self):
        assert eval_profile(parse_profile("-(" * 50 + "t" + ")" * 50), 3.0) == 3.0
        with pytest.raises(ProfileSyntaxError) as err:
            parse_profile("-(" * 50 + "t" + ")" * 49 + "+ t)")
        assert str(err.value) == "more than 100 operators and parentheses (at offset 150)"

    def test_unary_minus_binds_looser_than_power(self):
        assert eval_profile(parse_profile("-2^2"), 0.0) == -4.0

    def test_precedence(self):
        assert eval_profile(parse_profile("1 + 2 * 3^2"), 0.0) == 19.0

    def test_left_associativity(self):
        assert eval_profile(parse_profile("8 - 4 - 2"), 0.0) == 2.0
        assert eval_profile(parse_profile("8 / 4 / 2"), 0.0) == 1.0

    def test_syntax_error_carries_offset(self):
        with pytest.raises(ProfileSyntaxError) as err:
            parse_profile("1 + * 2")
        assert err.value.offset == 4

    @pytest.mark.parametrize("text, message, offset", [
        ("2 $ t", "unexpected character '$'", 2),
        ("sin(t", "expected ')'", 5),
        ("t t", "unexpected trailing 't'", 2),
    ])
    def test_syntax_error_message_and_offset(self, text, message, offset):
        with pytest.raises(ProfileSyntaxError) as err:
            parse_profile(text)
        assert (str(err.value), err.value.offset) == (f"{message} (at offset {offset})", offset)

    def test_unknown_function(self):
        with pytest.raises(ProfileSyntaxError, match="unknown function"):
            parse_profile("sinh(t)")

    def test_unknown_variable(self):
        with pytest.raises(ProfileSyntaxError, match="unknown variable"):
            parse_profile("2 * x")

    def test_time_dependent_exponent_rejected(self):
        with pytest.raises(ProfileSyntaxError):
            parse_profile("2^t")

    def test_fractional_exponent_rejected(self):
        with pytest.raises(ProfileSyntaxError):
            parse_profile("t^(1/2)")


class TestEval:
    def test_variable(self):
        assert eval_profile(parse_profile("t"), 3.5) == 3.5

    def test_pythagorean_identity(self):
        value = eval_profile(parse_profile("sin(t)^2 + cos(t)^2"), 0.7)
        assert abs(value - 1.0) <= 1e-15

    def test_against_high_precision_oracle(self):
        value = eval_profile(parse_profile("exp(-t)*cos(3*t)"), 1.0)
        assert abs(value - EXP_COS_ORACLE) <= 1e-16

    def test_division_by_zero(self):
        with pytest.raises(EvalError):
            eval_profile(parse_profile("1 / t"), 0.0)

    def test_overflow_is_eval_error(self):
        with pytest.raises(EvalError):
            eval_profile(parse_profile("exp(t)"), 1e6)

    def test_nonfinite_t_rejected(self):
        with pytest.raises(EvalError):
            eval_profile(parse_profile("t"), math.inf)

    def test_float_in_float_out_array_in_array_out(self):
        node = parse_profile("2*t")
        assert type(eval_profile(node, 1.5)) is float
        assert type(eval_profile(node, np.float64(1.5))) is float
        values = eval_profile(node, np.array([0.0, 1.5]))
        assert isinstance(values, np.ndarray) and values.tolist() == [0.0, 3.0]

    def test_constant_over_times_has_their_shape(self):
        assert eval_profile(parse_profile("2"), np.zeros(3)).tolist() == [2.0, 2.0, 2.0]

    def test_array_error_is_that_of_first_failing_time(self):
        # exp overflows from t=1 on; the division (earlier in evaluation
        # order) fails only at t=2. The first failing time decides.
        node = parse_profile("1/(t - 2) + exp(1000*t)")
        with pytest.raises(EvalError) as err:
            eval_profile(node, np.array([0.0, 1.0, 2.0]))
        assert str(err.value) == "non-finite value (at offset 12)"
        with pytest.raises(EvalError) as err:
            eval_profile(node, np.array([0.0, 2.0, 1.0]))
        assert str(err.value) == "division by zero (at offset 1)"


# (text, tree) pairs built together: every operand is parenthesized, so the
# text's tree is known without a precedence rule, and the parser has an oracle
# that shares no code with it. As the parser does, the oracle folds a node whose
# operands are all Consts to the Const of its value; where that evaluation
# fails, the tree is its EvalError, and so is every tree built on it.
def _folded(node, *operands):
    errors = [x for x in operands if isinstance(x, EvalError)]
    if errors:
        return errors[0]
    if all(isinstance(x, Const) for x in operands):
        try:
            return Const(eval_profile(node, 0.0))
        except EvalError as exc:
            return exc
    return node


def _neg(arg):
    return f"-({arg[0]})", _folded(Neg(arg[1]), arg[1])


def _binop(op, left, right):
    node = BinOp(op, left[1], right[1])
    return f"({left[0]}) {op} ({right[0]})", _folded(node, left[1], right[1])


def _pow(base, exponent):
    return f"({base[0]})^({exponent})", _folded(Pow(base[1], exponent), base[1])


def _call(func, arg):
    return f"{func}({arg[0]})", _folded(Call(func, arg[1]), arg[1])


def _message(exc: EvalError) -> str:
    """An EvalError's message without its offset, which the oracle's trees do not carry."""
    return str(exc).removesuffix(f" (at offset {exc.offset})")


def _texts_and_trees():
    leaves = st.one_of(
        st.floats(0.0, 100.0, allow_nan=False).map(lambda v: (repr(v), Const(v))),
        st.just(("t", TimeVar())),
    )

    def extend(children):
        return st.one_of(
            st.builds(_neg, children),
            st.builds(_binop, st.sampled_from("+-*/"), children, children),
            st.builds(_pow, children, st.integers(-3, 3)),
            st.builds(_call, st.sampled_from(["sin", "cos", "exp", "tanh"]), children),
        )

    return st.recursive(leaves, extend, max_leaves=12)


@settings(max_examples=200, deadline=None)
@given(case=_texts_and_trees())
def test_parse_of_parenthesized_text_is_its_tree(case):
    text, tree = case
    if isinstance(tree, EvalError):
        with pytest.raises(EvalError) as err:
            parse_profile(text)
        assert _message(err.value) == _message(tree)
    else:
        assert parse_profile(text) == tree


_times = st.lists(
    st.one_of(
        st.floats(-20.0, 20.0, allow_nan=False),
        st.sampled_from([0.0, 1.0, -1.0]),
        st.sampled_from([math.nan, math.inf, -math.inf]),
    ),
    min_size=1,
    max_size=6,
)


def _eval_or_error(node, t):
    try:
        return eval_profile(node, t)
    except EvalError as exc:
        return exc


@settings(max_examples=300, deadline=None)
@given(case=_texts_and_trees(), times=_times)
def test_array_evaluation_matches_each_time(case, times):
    # Parsed from text, every node has its source offset. A text whose parse
    # raises holds a sub-expression without t that cannot be evaluated.
    try:
        node = parse_profile(case[0])
    except EvalError:
        assert isinstance(case[1], EvalError)
        return
    each = [_eval_or_error(node, t) for t in times]
    whole = _eval_or_error(node, np.array(times))
    errors = [v for v in each if isinstance(v, EvalError)]
    if errors:
        assert isinstance(whole, EvalError)
        assert (whole.offset, str(whole)) == (errors[0].offset, str(errors[0]))
    else:
        assert whole.tolist() == each


# One derivative tree per rule, node for node: the operands taken from the
# source keep their parse offsets, and every new node takes the offset of the
# node it differentiates.
@pytest.mark.parametrize("text, want", [
    ("t + 2", BinOp("+", Const(1.0, 0), Const(0.0, 4), 2)),
    ("t - 2", BinOp("-", Const(1.0, 0), Const(0.0, 4), 2)),
    ("2 * t", BinOp("+", BinOp("*", Const(0.0, 0), TimeVar(4), 2),
                    BinOp("*", Const(2.0, 0), Const(1.0, 4), 2), 2)),
    ("1 / t", BinOp("/", BinOp("-", BinOp("*", Const(0.0, 0), TimeVar(4), 2),
                               BinOp("*", Const(1.0, 0), Const(1.0, 4), 2), 2),
                    Pow(TimeVar(4), 2, 2), 2)),
    ("t^3", BinOp("*", BinOp("*", Const(3.0, 1), Pow(TimeVar(0), 2, 1), 1), Const(1.0, 0), 1)),
    ("t^0", Const(0.0, 1)),
    ("-t", Neg(Const(1.0, 1), 0)),
    ("sin(t)", BinOp("*", Call("cos", TimeVar(4), 0), Const(1.0, 4), 0)),
    ("cos(t)", BinOp("*", Neg(Call("sin", TimeVar(4), 0), 0), Const(1.0, 4), 0)),
    ("exp(t)", BinOp("*", Call("exp", TimeVar(4), 0), Const(1.0, 4), 0)),
    ("tanh(t)", BinOp("*", BinOp("-", Const(1.0, 0), Pow(Call("tanh", TimeVar(5), 0), 2, 0), 0),
                      Const(1.0, 5), 0)),
    ("1 + sin(2*t)", BinOp(
        "+",
        Const(0.0, 0),
        BinOp("*",
              Call("cos", BinOp("*", Const(2.0, 8), TimeVar(10), 9), 4),
              BinOp("+", BinOp("*", Const(0.0, 8), TimeVar(10), 9),
                    BinOp("*", Const(2.0, 8), Const(1.0, 10), 9), 9),
              4),
        2)),
], ids=["+", "-", "*", "/", "^", "^0", "neg", "sin", "cos", "exp", "tanh", "chain"])
def test_derivative_tree_per_rule(text, want):
    # repr shows the offsets, which == ignores.
    assert repr(differentiate(parse_profile(text))) == repr(want)


@settings(max_examples=100, deadline=None)
@given(
    text=st.sampled_from(
        [
            "sin(2*t)",
            "exp(-t)*cos(3*t)",
            "t^3 - 2*t",
            "tanh(t/2)",
            "1 / (1 + t^2)",
            "cos(t)^2",
            "-t + t^2 / 4",
        ]
    ),
    t=st.floats(-3.0, 3.0, allow_nan=False),
)
def test_derivative_matches_finite_difference(text, t):
    node = parse_profile(text)
    deriv = differentiate(node)
    h = 1e-6
    fd = (eval_profile(node, t + h) - eval_profile(node, t - h)) / (2 * h)
    exact = eval_profile(deriv, t)
    assert abs(fd - exact) <= 1e-6 * max(1.0, abs(exact))
