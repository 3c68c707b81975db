import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from metricbundle.errors import (
    EvalError,
    ProfileSyntaxError,
    UnknownFunctionError,
    UnknownVariableError,
)
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
    print_profile,
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
        # 2^3^2 = 2^(3^2) = 512; exponents fold to integers at parse time
        node = parse_profile("2^3^2")
        assert node == Pow(Const(2.0), 9)
        assert eval_profile(node, 0.0) == 512.0

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

    def test_unknown_function(self):
        with pytest.raises(UnknownFunctionError):
            parse_profile("sinh(t)")

    def test_unknown_variable(self):
        with pytest.raises(UnknownVariableError):
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


# AST strategy for the round-trip property
def _exprs():
    leaves = st.one_of(
        st.builds(Const, st.floats(0.0, 100.0, allow_nan=False)),
        st.builds(TimeVar),
    )

    def extend(children):
        return st.one_of(
            st.builds(Neg, children),
            st.builds(
                BinOp, st.sampled_from("+-*/"), children, children
            ),
            st.builds(Pow, children, st.integers(-3, 3)),
            st.builds(Call, st.sampled_from(["sin", "cos", "exp", "tanh"]), children),
        )

    return st.recursive(leaves, extend, max_leaves=12)


@settings(max_examples=200, deadline=None)
@given(node=_exprs())
def test_print_parse_round_trip(node):
    assert parse_profile(print_profile(node)) == node


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
@given(node=_exprs(), times=_times)
def test_array_evaluation_matches_each_time(node, times):
    # Printing and parsing back gives every node its source offset.
    node = parse_profile(print_profile(node))
    each = [_eval_or_error(node, t) for t in times]
    whole = _eval_or_error(node, np.array(times))
    errors = [v for v in each if isinstance(v, EvalError)]
    if errors:
        assert isinstance(whole, EvalError)
        assert (whole.offset, str(whole)) == (errors[0].offset, str(errors[0]))
    else:
        assert whole.tolist() == each


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


def test_derivative_round_trips_through_printer():
    node = parse_profile("0.5*sin(2*t)")
    deriv = differentiate(node)
    assert parse_profile(print_profile(deriv)) == deriv
