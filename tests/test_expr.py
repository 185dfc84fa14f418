import json
import math
import struct
import textwrap
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import reference as ref
from dtstab import expr as expr_mod
from dtstab.expr import (
    Bin, Call, Dims, Env, ExprDomainError, ExprNameError, ExprSyntaxError,
    Neg, Num, Var, eval_expression, parse_expression, row_norms, vecnorm,
)
from dtstab.registry import load_example
from dtstab.system import VectorMap

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
            want = 2.0 ** (-t) * d * math.sqrt(abs(x1))
            assert got == want


# --- round-trip property: parse(print(parse(s))) is a fixed point ---

ast_strategy = ref.expressions(("t", "x1", "x2", "d1", "u1", "y0", "y1", "u0"),
                               max_leaves=25)


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
        col = expr.compiled()(0.0, X.T, np.zeros((1, 2)), np.zeros((1, 2)),
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
        with np.errstate(all="ignore"):  # a slab leaves errstate to its caller
            col = expr.compiled()(0.0, np.array([[0.0, 2.0], [0.0, 0.0]]),
                                 np.zeros((1, 2)), np.zeros((1, 2)), {})
        assert math.isnan(col[0]) and col[1] == math.inf
        # VectorMap.rows enters np.errstate itself
        got = VectorMap([expr], "f").rows(0.0, np.array([[0.0, 0.0], [2.0, 0.0]]))
        assert math.isnan(got[0, 0]) and got[1, 0] == math.inf


def test_point_call_on_numpy_rows_is_a_python_float_without_warning():
    # the one code object reads a point's component as a Python float: a
    # numpy scalar would warn at the overflow of x1*x2 and at 0 * inf
    rows = np.array([[1e200, 1e200], [0.0, math.inf], [3.0, 0.5]])
    cases = [("x1*x2", [math.inf, math.nan, 1.5]),
             ("x1*x2 + exp(x1)", [math.inf, math.nan, 1.5 + math.exp(3.0)]),
             ("x1^2 * x2", [math.inf, math.nan, 4.5])]
    for text, wants in cases:
        fn = parse_expression(text, D21).compiled()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for x, want in zip(rows, wants):
                got = fn(0.0, x, np.zeros(1), np.zeros(1), {})
                assert type(got) is float, text
                assert ref.same_bits(got, want), (text, x)


def test_vector_map_eval_raises_the_first_failing_components_error():
    vm = VectorMap(["x1", "log(x1)", "1/x2", "sqrt(x2 - 1)"], "f", n=2)
    for x, message in (([-1.0, 0.0], "log of a non-positive number"),
                       ([1.0, 0.0], "division by zero"),
                       ([1.0, 0.5], "sqrt of a negative number")):
        with pytest.raises(ExprDomainError) as err:
            vm.eval(0.0, np.array(x))
        assert str(err.value) == message, x
    assert vm.eval(0.0, np.array([1.0, 2.0])).tolist() == [1.0, 0.0, 0.5, 1.0]


# --- literal exponents 2 and 0.5: a*a and sqrt(abs(a)) in every evaluator ---

SQUARES = ["x1^2", "pow(x1, 2)"]
EXACT_FORMS = SQUARES + ["x1^0.5", "pow(x1, 0.5)"]
# the last two: glibc's pow(x, 2) and pow(x, 0.5) are an ulp off x*x and
# sqrt(x) there
EDGE_POINTS = [-0.0, 0.0, 5e-324, -5e-324, 1e-200, 1e200, 1e308, -1.0,
               -math.inf, math.inf, math.nan, -1.523386358242358, 10.299824237515514]
NEGATIVE_BASE = "negative base with non-integer exponent"


def exact_power_spec(form, a):
    """``a*a``, or ``sqrt(abs(a))``, or ``_pow``'s message for a negative
    base: -0.0 and -inf take ``math.pow``'s 0.0 and inf."""
    if form in SQUARES:
        return a * a
    if a < 0.0 and a != -math.inf:
        return NEGATIVE_BASE
    return math.sqrt(abs(a))


def value_or_message(run):
    try:
        return run()
    except ExprDomainError as exc:
        return str(exc)


def assert_spec_bits(got, want):
    if isinstance(want, str):
        assert got == want
    else:
        assert struct.pack("<d", got) == struct.pack("<d", want)


@pytest.mark.parametrize("form", EXACT_FORMS)
def test_exact_powers_give_the_spec_bits_in_every_evaluator(form):
    node = parse_expression(form, D21)
    bare = node.compiled()

    def column(*args):
        with np.errstate(all="ignore"):  # a slab leaves errstate to its caller
            return bare(*args)

    for a in EDGE_POINTS:
        want = exact_power_spec(form, a)
        env = Env(x=[a, 0.0], d=[0.0], u=[0.0])
        walked = value_or_message(lambda: eval_expression(node, env))
        if isinstance(want, str):  # the tree walker names the subexpression
            assert walked == f"{want} in subexpression '{node.to_string()}'"
        else:
            assert_spec_bits(walked, want)
        assert_spec_bits(value_or_message(
            lambda: node.compiled()(0.0, env.x, env.d, env.u, {})), want)
        alone = value_or_message(lambda: column(0.0, np.array([[a]]), None, None, {}))
        assert_spec_bits(alone if isinstance(alone, str) else float(alone[0]), want)
    wants = [exact_power_spec(form, a) for a in EDGE_POINTS]
    mixed = value_or_message(lambda: column(0.0, np.array([EDGE_POINTS]), None, None, {}))
    if form in SQUARES:
        assert ref.same_bits(mixed, np.array(wants))
    else:
        assert mixed == NEGATIVE_BASE


@pytest.mark.parametrize("form", EXACT_FORMS)
def test_rows_raise_the_first_failing_points_error_past_an_exact_power(form):
    # 1/(x1 - 1e308) fails at 1e308, which comes after the first negative
    # base: the root's error is raised although its component comes second
    vm = VectorMap(["1/(x1 - 1e308)", form], "f", n=1)
    X = np.array(EDGE_POINTS)[:, None]
    got = ref.outcome(lambda: vm.rows(0.0, X))
    assert got == ref.outcome(lambda: ref.map_rows(vm, 0.0, X))
    first = "division by zero" if form in SQUARES else NEGATIVE_BASE
    assert got[1] == ("ExprDomainError", first)


@pytest.mark.parametrize("text", ["x1^3", "x1^2.5", "x1^(1/2)", "x1^-2",
                                  "x1^x2", "pow(x1, 1.5)", "2^x1", "0.5^x1"])
def test_other_exponents_keep_the_pow_kernel(text):
    source = parse_expression(text, D21)._codegen()
    assert "_pow(" in source
    assert "_square" not in source and "_root" not in source


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


# --- one code object per distinct source ---

def test_self_test_compiles_each_distinct_source_once():
    # without the cache one pass compiled 168 sources, 34 of them distinct;
    # with one namespace a source serves its point and its slab calls
    out = ref.run_fresh(textwrap.dedent("""
        import contextlib, io, json
        from dtstab import cli, expr
        calls, compile_ = [], expr._compile
        def spy(source):
            calls.append(source)
            return compile_(source)
        expr._compile = spy
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["examples", "--self-test"]) == 0
        print(json.dumps(calls))
    """))
    calls = json.loads(out)
    assert calls and len(calls) == len(set(calls))


def test_rebuilt_bundle_and_loop_compile_nothing(monkeypatch):
    first = load_example("example_4_7", r=0.5)
    first.controller.closed_loop(first.sys)
    calls = []
    compile_ = expr_mod._compile
    monkeypatch.setattr(expr_mod, "_compile",
                        lambda *args: calls.append(args) or compile_(*args))
    again = load_example("example_4_7", r=0.5)
    again.controller.closed_loop(again.sys)
    assert calls == []


def test_code_is_keyed_by_source_not_by_ast():
    # Num(-0.0) == Num(0.0) with equal hashes, yet the two sources differ
    neg, pos = Bin("*", Num(-0.0), Var("x1")), Bin("*", Num(0.0), Var("x1"))
    assert neg == pos and hash(neg) == hash(pos)
    one = np.array([[1.0]])
    for node, sign in ((neg, -1.0), (pos, 1.0)):
        got = node.compiled()(0.0, [1.0], None, None, {})
        assert got == 0.0 and math.copysign(1.0, got) == sign
        col = node.compiled()(0.0, one, None, None, {})
        assert col.shape == (1,) and math.copysign(1.0, col[0]) == sign
