import math
import struct
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dtstab.expr import (
    Bin, Call, Dims, Env, ExprDomainError, ExprNameError, ExprSyntaxError,
    Neg, Num, Var, eval_expression, parse_expression, row_norms, vecnorm,
)

D21 = Dims(n=2, m=1, k=1, aux=frozenset({"y0", "y1", "u0"}))


def ev(text, dims=D21, **env):
    return eval_expression(parse_expression(text, dims), Env(**env))


class TestParse:
    def test_add_of_vars(self):
        expr = parse_expression("x1 + u1", Dims(n=1, k=1))
        assert expr == Bin("+", Var("x1"), Var("u1"))

    def test_output_update_expression(self):
        # the x2-update of the first worked example: 2^{-t} d |x1|^{1/2}
        expr = parse_expression("2^(-t)*d1*abs(x1)^0.5", Dims(n=2, m=1))
        assert expr == Bin(
            "*",
            Bin("*", Bin("^", Num(2.0), Neg(Var("t"))), Var("d1")),
            Bin("^", Call("abs", (Var("x1"),)), Num(0.5)),
        )

    def test_incomplete_input_position(self):
        with pytest.raises(ExprSyntaxError) as exc:
            parse_expression("x1 +", Dims(n=1))
        assert exc.value.pos == 5

    def test_precedence_pow_over_neg(self):
        # -x1^2 == -(x1^2)
        assert ev("-x1^2", x=[3.0]) == -9.0
        assert ev("(-x1)^2", x=[3.0]) == 9.0

    def test_pow_right_associative(self):
        assert ev("2^3^2") == 512.0

    def test_pow_negative_exponent_without_parens(self):
        assert ev("2^-t", t=3.0) == 0.125

    def test_left_associativity(self):
        assert ev("8 - 3 - 2") == 3.0
        assert ev("8/4/2") == 1.0

    def test_named_constants_fold(self):
        assert ev("(2+e)/(2*e)") == (2.0 + math.e) / (2.0 * math.e)
        assert ev("pi") == math.pi

    def test_aux_names(self):
        assert ev("y1 + u0", aux={"y1": 2.0, "u0": 3.0}) == 5.0

    def test_index_out_of_range(self):
        with pytest.raises(ExprNameError, match="out of declared range"):
            parse_expression("x3", Dims(n=2))
        with pytest.raises(ExprNameError, match="out of declared range"):
            parse_expression("u1", Dims(n=2, k=0))
        with pytest.raises(ExprNameError, match="out of declared range"):
            parse_expression("x0", Dims(n=2))

    def test_unknown_identifier(self):
        with pytest.raises(ExprNameError, match="unknown identifier"):
            parse_expression("foo + 1", Dims(n=1))

    def test_unknown_function(self):
        with pytest.raises(ExprNameError, match="unknown function"):
            parse_expression("sin(x1)", Dims(n=1))

    def test_arity_error(self):
        with pytest.raises(ExprSyntaxError, match="argument"):
            parse_expression("min(x1)", Dims(n=1))

    def test_empty(self):
        with pytest.raises(ExprSyntaxError):
            parse_expression("   ", Dims())

    def test_overflowing_literal_rejected(self):
        with pytest.raises(ExprSyntaxError, match="out of range"):
            parse_expression("1e999", Dims())


class TestEval:
    def test_exp_identity(self):
        assert ev("exp(0)") == 1.0

    def test_reconstruction_map_value(self):
        # -(y1^2 + u0)^2 at y1 = 2, u0 = -4 is 0
        assert ev("-(y1^2+u0)^2", aux={"y1": 2.0, "u0": -4.0}) == 0.0

    def test_division_by_zero(self):
        with pytest.raises(ExprDomainError, match="division by zero"):
            ev("1/x1", x=[0.0, 0.0])

    def test_domain_error_names_subexpression(self):
        with pytest.raises(ExprDomainError, match=r"sqrt\(x1 - 2.0\)"):
            ev("1 + sqrt(x1 - 2)", x=[0.0, 0.0])

    def test_zero_pow_zero_is_one(self):
        assert ev("0^0") == 1.0
        assert ev("pow(0, 0)") == 1.0

    def test_zero_pow_negative(self):
        with pytest.raises(ExprDomainError):
            ev("0^(-1)")

    def test_negative_base_fractional_exponent(self):
        with pytest.raises(ExprDomainError):
            ev("(-2)^0.5")

    def test_log_of_negative(self):
        with pytest.raises(ExprDomainError):
            ev("log(-1)")

    def test_sign(self):
        assert ev("sign(-3)") == -1.0
        assert ev("sign(0)") == 0.0
        assert ev("sign(2)") == 1.0

    def test_min_max(self):
        assert ev("min(2, -1)") == -1.0
        assert ev("max(2, -1)") == 2.0

    def test_env_not_mutated(self):
        env = Env(t=1.0, x=[1.0, 2.0], d=[0.5], u=[0.0], aux={"y0": 1.0})
        expr = parse_expression("x1*d1 + u1 + y0", D21)
        before = env.x.copy()
        eval_expression(expr, env)
        assert np.array_equal(env.x, before)
        with pytest.raises(ValueError):
            env.x[0] = 9.0
        with pytest.raises(TypeError):
            env.aux["y0"] = 2.0

    def test_hand_coded_dynamics_agree_to_zero_ulp(self):
        # x2-update of the disturbance example vs a directly coded formula
        fn = parse_expression("2^(-t)*d1*abs(x1)^0.5", Dims(n=2, m=1)).compiled()
        rng = np.random.default_rng(7)
        for _ in range(2000):
            t = float(rng.integers(0, 40))
            x1 = rng.uniform(-100.0, 100.0)
            d = rng.uniform(-2.0, 2.0)
            got = fn(t, np.array([x1, 0.0]), np.array([d]), np.zeros(0), {})
            want = 2.0 ** (-t) * d * abs(x1) ** 0.5
            assert got == want


# --- round-trip property: parse(print(parse(s))) is a fixed point ---

_leaf = st.one_of(
    st.floats(min_value=0.0, max_value=1e9, allow_nan=False,
              allow_infinity=False).map(Num),
    st.sampled_from(["t", "x1", "x2", "d1", "u1", "y0", "y1", "u0"]).map(Var),
)


def _extend(children):
    unary_fns = st.sampled_from(["exp", "log", "abs", "sqrt", "sign"])
    binary_fns = st.sampled_from(["min", "max", "pow"])
    return st.one_of(
        children.map(Neg),
        st.tuples(st.sampled_from("+-*/^"), children, children).map(
            lambda ops: Bin(ops[0], ops[1], ops[2])),
        st.tuples(unary_fns, children).map(lambda fc: Call(fc[0], (fc[1],))),
        st.tuples(binary_fns, children, children).map(
            lambda fab: Call(fab[0], (fab[1], fab[2]))),
        st.lists(children, min_size=1, max_size=4).map(
            lambda args: Call("norm", tuple(args))),
    )


ast_strategy = st.recursive(_leaf, _extend, max_leaves=25)


@settings(max_examples=300, deadline=None)
@given(ast_strategy)
def test_round_trip_is_fixed_point(expr):
    once = parse_expression(expr.to_string(), D21)
    twice = parse_expression(once.to_string(), D21)
    assert once == twice


@settings(max_examples=300, deadline=None)
@given(ast_strategy)
def test_round_trip_preserves_constructed_ast(expr):
    assert parse_expression(expr.to_string(), D21) == expr


@settings(max_examples=200, deadline=None)
@given(
    ast_strategy,
    st.floats(0, 20), st.floats(-10, 10), st.floats(-10, 10),
    st.floats(-2, 2), st.floats(-5, 5),
)
def test_compiled_matches_walker_bitwise(expr, t, x1, x2, d1, u1):
    env = Env(t=t, x=[x1, x2], d=[d1], u=[u1],
              aux={"y0": x1, "y1": x2, "u0": u1})
    try:
        want = eval_expression(expr, env)
    except ExprDomainError:
        with pytest.raises(ExprDomainError):
            expr.compiled()(env.t, env.x, env.d, env.u, dict(env.aux))
        return
    got = expr.compiled()(env.t, env.x, env.d, env.u, dict(env.aux))
    assert struct.pack("<d", got) == struct.pack("<d", want)


def test_norm_past_float_range_is_inf_without_warning():
    # the dot under norm overflows; np.errstate keeps the RuntimeWarning
    # (an error under this suite's filterwarnings) from escaping
    x1 = 4.761481736093476e-245  # 1/x1 = 2.1e244, its square is past 1e308
    expr = parse_expression("norm(0, 1/x1)", D21)
    env = Env(t=0.0, x=[x1, 0.0], d=[0.0], u=[0.0],
              aux={"y0": x1, "y1": 0.0, "u0": 0.0})
    X = np.array([[x1, 0.0], [0.5, 0.0]])
    inf_bits = struct.pack("<d", math.inf)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert struct.pack("<d", eval_expression(expr, env)) == inf_bits
        got = expr.compiled()(env.t, env.x, env.d, env.u, dict(env.aux))
        assert struct.pack("<d", got) == inf_bits
        col = expr.batched()(0.0, X.T, np.zeros((1, 2)), np.zeros((1, 2)),
                             dict(env.aux))
        assert col.tolist() == [math.inf, 2.0]
        assert struct.pack("<d", vecnorm([0.0, 2.1e244])) == inf_bits
        assert row_norms(np.array([[0.0, 2.1e244], [3.0, 4.0]])).tolist() == [
            math.inf, 5.0]
        # under np.errstate a finite dot keeps its bits
        big = np.array([3e151, 4e151])
        assert vecnorm(big) == math.sqrt(big.dot(big))
        assert math.isnan(vecnorm([math.nan, 1e200]))  # a leading NaN, no warning
        assert vecnorm([]) == 0.0


def test_inf_times_zero_component_is_nan_without_warning():
    # x1 * pow(14, 269) at x1 = 0: the pow overflows to inf and 0 * inf is
    # NaN; a numpy scalar component would warn (an error under this suite's
    # filterwarnings), a Python float does not
    expr = parse_expression("x1 * pow(14, 269)", D21)
    env = Env(t=0.0, x=[0.0, 0.0], d=[0.0], u=[0.0],
              aux={"y0": 0.0, "y1": 0.0, "u0": 0.0})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        want = eval_expression(expr, env)
        got = expr.compiled()(env.t, env.x, env.d, env.u, dict(env.aux))
        assert math.isnan(want) and struct.pack("<d", got) == struct.pack("<d", want)
        col = expr.batched()(0.0, np.array([[0.0, 2.0], [0.0, 0.0]]),
                             np.zeros((1, 2)), np.zeros((1, 2)), {})
        assert math.isnan(col[0]) and col[1] == math.inf


def test_round_trip_on_registry_style_strings():
    corpus = [
        "d1*x1",
        "2^-t*d1*abs(x1)^0.5",
        "2^(-t)*d1*abs(x1)^0.5 + u1",
        "x2",
        "x2^2 + u1",
        "d1*x2 + exp(t)*x1",
        "exp(-t)*abs(x1) + abs(x2)",
        "abs(x1) + 3*exp(t)*abs(x2) + abs(x1)",
        "-(y1^2+u0)^2",
    ]
    for text in corpus:
        once = parse_expression(text, D21)
        assert parse_expression(once.to_string(), D21) == once
