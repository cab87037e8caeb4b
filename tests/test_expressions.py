import numpy as np
import pytest
from hypothesis import given, strategies as st

from switchctl.errors import ExpressionError, NumericError
from switchctl.expressions import CoefficientExpression, emit, parse


def ev(text, **bindings):
    return CoefficientExpression(text)(**bindings)


def test_tanh_offset():
    assert ev("0.2 + 0.1*tanh(x)", x=0.0) == pytest.approx(0.2)


def test_power_right_associative():
    assert ev("2^3^2") == 512


def test_min_exp():
    assert ev("min(1, exp(0))") == 1.0


def test_unary_minus_binds_below_power():
    assert ev("-2^2") == -4.0
    assert ev("(-2)^2") == 4.0
    assert ev("2^-1") == 0.5


def test_precedence_mul_over_add():
    assert ev("1 + 2*3 - 4/2") == 5.0


def test_all_functions():
    assert ev("exp(1)") == pytest.approx(np.e)
    assert ev("log(exp(2))") == pytest.approx(2.0)
    assert ev("sin(0) + cos(0)") == pytest.approx(1.0)
    assert ev("abs(-3)") == 3.0
    assert ev("max(2, 3)") == 3.0
    assert ev("pow(2, 10)") == 1024.0


def test_vectorized_eval():
    x = np.linspace(-1, 1, 5)
    out = ev("x^2 + 1", x=x)
    assert np.allclose(out, x**2 + 1)


def test_unbound_variable_named():
    with pytest.raises(NumericError, match="unbound variable 'x'"):
        ev("x + 1")


def test_division_by_zero_names_subexpression():
    with pytest.raises(NumericError, match=r"division by zero in '1/x'"):
        ev("2 + 1/x", x=0.0)


def test_log_nonpositive():
    with pytest.raises(NumericError, match="log of non-positive"):
        ev("log(x)", x=-1.0)


def test_power_is_real_and_finite_on_scalars_and_arrays():
    # '^' and pow share one path: no complex result, no bare OverflowError
    for text in ("x^0.5", "pow(x, 0.5)"):
        for x in (-4.0, np.array([1.0, -4.0])):
            with pytest.raises(NumericError, match="non-finite result"):
                ev(text, x=x)
    for text in ("x^400", "pow(x, 400)"):
        with pytest.raises(NumericError, match="non-finite result"):
            ev(text, x=10.0)
    assert ev("x^0.5", x=4.0) == 2.0
    assert ev("x^-1", x=2) == 0.5


def test_syntax_error_offset_and_caret():
    with pytest.raises(ExpressionError) as err:
        parse("1 + * 2")
    assert "byte 4" in str(err.value)
    assert "^" in str(err.value)


def test_unknown_variable_rejected_at_parse():
    with pytest.raises(ExpressionError, match="unknown variable 'y'"):
        parse("y + 1")


def test_unknown_function():
    with pytest.raises(ExpressionError, match="unknown function 'sinh'"):
        parse("sinh(x)")


def test_wrong_arity():
    with pytest.raises(ExpressionError, match="takes 2 argument"):
        parse("min(1)")


def test_trailing_garbage():
    with pytest.raises(ExpressionError, match="unexpected character"):
        parse("1 + 2 )")


def test_emit_round_trip_simple():
    for text in ["1 + 2*x", "-x^2", "min(x, tau) * exp(-s)", "2^3^2",
                 "abs(-x)/max(1, u)", "pow(x, 2) - t"]:
        node = parse(text)
        again = parse(emit(node))
        assert again == node


# ---- property tests -------------------------------------------------------

_leaf = st.one_of(
    st.floats(min_value=0.0, max_value=10.0, allow_nan=False).map(
        lambda v: parse(repr(v))),
    st.sampled_from(["t", "s", "tau", "x", "u"]).map(parse),
)


_ast = st.recursive(
    _leaf,
    lambda inner: st.one_of(
        st.tuples(st.sampled_from("+-*/"), inner, inner).map(
            lambda t: __import__("switchctl.expressions", fromlist=["Node"]).Node(
                "binop", t[0], (t[1], t[2]))),
        st.tuples(st.sampled_from(["exp", "tanh", "sin", "cos", "abs"]), inner).map(
            lambda t: __import__("switchctl.expressions", fromlist=["Node"]).Node(
                "call", t[0], (t[1],))),
        inner.map(lambda c: __import__("switchctl.expressions", fromlist=["Node"]).Node(
            "unop", "-", (c,))),
    ),
    max_leaves=12,
)


@given(_ast)
def test_emit_parse_is_identity_on_asts(node):
    assert parse(emit(node)) == node


@given(st.floats(-3, 3), st.floats(-3, 3), st.floats(-3, 3))
def test_eval_matches_python_semantics(x, s, t):
    expr = CoefficientExpression("x*s - max(t, x) + tanh(s)*2")
    got = expr(x=x, s=s, t=t)
    want = x * s - max(t, x) + np.tanh(s) * 2
    assert got == pytest.approx(want, nan_ok=False)
