"""One margin rule: every check decides through ``system.WorstMargin``.

The rule's boundaries, ties and NaNs are tested on the accumulator itself;
the checks built on it must report the worst margin, witness, count and
verdict of their one-row or one-point loops in ``reference.py``, NaN
included.  Zero samples never pass.
"""

import math

import numpy as np
import pytest

import reference as ref
from dtstab.certify import check_rofs_inf_sup
from dtstab.comparison import (KLEnvelope, check_domination, constant,
                               identity, kfn_from_expr, linear)
from dtstab.registry import (example_2_3, example_3_4, example_4_7,
                             recursion_step_check)
from dtstab.stability import (FalsifyBudget, adversarial_batch,
                              check_ios_estimate, check_kl_estimate,
                              search_trajectories)
from dtstab.stability import test_output_attractivity as search_attractivity
from dtstab.stability import test_output_stability as search_stability
from dtstab.system import FAIL, PASS, PASS_TOL, WorstMargin

B23, B34, B47 = example_2_3(), example_3_4(), example_4_7(0.5)


# --- the accumulator and the rule ---

def margin_verdict(margin, rhs, tol):
    acc = WorstMargin("points")
    acc.add([margin], [rhs], lambda i: i)
    return acc.verdict(tol)


def test_rule_boundaries():
    assert margin_verdict(0.0, 5.0, 0.0) == PASS
    assert margin_verdict(-math.inf, math.nan, 1e-9) == PASS
    assert margin_verdict(1e-9 * 6.0, 5.0, 1e-9) == PASS_TOL
    assert margin_verdict(1e-9 * 6.5, 5.0, 1e-9) == FAIL
    assert margin_verdict(math.nan, 0.0, 1.0) == FAIL
    assert margin_verdict(math.inf, 5.0, 1e-9) == FAIL


def test_infinite_margin_fails():
    # LHS - RHS = +inf against RHS = -inf: the tolerance tol * (1 + |RHS|)
    # is infinite too, and must not let the margin pass
    assert margin_verdict(math.inf, -math.inf, 1e-9) == FAIL
    assert margin_verdict(math.inf, -math.inf, 0.0) == FAIL
    acc = WorstMargin("points")
    acc.add([-1.0, math.inf, 2.0], [0.0, -math.inf, 0.0], lambda i: ("a", i))
    assert (acc.margin, acc.rhs, acc.witness) == (math.inf, -math.inf, ("a", 1))
    assert acc.verdict(1e-9) == FAIL


def test_check_domination_fails_an_infinite_margin():
    rep = check_domination(lambda T, s: 1.0, kfn_from_expr("-1e300*1e300"),
                           constant(1.0), Ts=(0,), ss=[1.0])
    assert not rep.passed
    assert rep.worst_margin == math.inf
    assert rep.witness == {"T": 0, "s": 1.0, "lhs": 1.0, "rhs": -math.inf}


def test_first_maximum_across_calls_and_samples():
    acc = WorstMargin("points")
    acc.add([-3.0, -1.0, -1.0], [1.0, 2.0, 3.0], lambda i: ("a", i))
    acc.add([-2.0, -1.0], 9.0, lambda i: ("b", i))   # a tie keeps the first
    assert (acc.margin, acc.rhs, acc.witness, acc.samples) == (-1.0, 2.0, ("a", 1), 5)
    acc.add([[0.5, 2.0], [2.0, 1.0]], [[0.0, 7.0], [8.0, 0.0]], lambda i: ("c", i))
    assert (acc.margin, acc.rhs, acc.witness) == (2.0, 7.0, ("c", 1))
    assert acc.verdict(1e-9) == FAIL


def test_nan_wins_at_its_first_occurrence():
    acc = WorstMargin("points")
    acc.add([1.0, math.nan, 5.0, math.nan], [0.0, 1.0, 2.0, 3.0], lambda i: i)
    acc.add([math.nan, 1e300], 4.0, lambda i: ("later", i))
    assert math.isnan(acc.margin) and acc.witness == 1 and acc.rhs == 1.0
    assert acc.verdict(1.0) == FAIL


def test_floor_keeps_the_witness_for_margins_above_it():
    acc = WorstMargin("rows", floor=0.0)
    acc.add([0.0, 0.0], 1.0, lambda i: i)
    assert acc.witness is None and acc.margin == 0.0 and acc.verdict(0.0) == PASS
    acc.add([0.0, math.nan], 1.0, lambda i: i)
    assert acc.witness == 1 and acc.verdict(0.0) == FAIL


def test_no_samples_raise():
    acc = WorstMargin("widgets")
    acc.add([], [], lambda i: i)
    with pytest.raises(ValueError, match="empty sample set: no widgets"):
        acc.verdict(1e-9)


# --- zero samples never pass ---

def test_zero_trajectory_budget_raises_in_the_searches():
    budget = FalsifyBudget(max_trajectories=0)
    assert list(search_trajectories(B23.sys, (0,), 1.0, budget)) == []
    with pytest.raises(ValueError, match="empty sample set"):
        search_stability(B23.sys, 1e-9, 0, budget=budget)
    with pytest.raises(ValueError, match="empty sample set"):
        search_attractivity(B23.sys, 0.1, 0, 1.0, budget=budget)


def test_empty_batches_and_grids_raise():
    sigma = B34.sigma
    with pytest.raises(ValueError, match="empty sample set"):
        check_kl_estimate([], sigma)
    with pytest.raises(ValueError, match="empty sample set"):
        check_ios_estimate([], sigma, rho=B34.rho, gamma=B34.gamma)
    with pytest.raises(ValueError, match="empty sample set"):
        check_domination(lambda T, s: s, identity(), constant(1.0), Ts=())
    with pytest.raises(ValueError, match="empty sample set"):
        recursion_step_check(B34, [])


def test_rofs_with_every_fiber_empty_raises():
    with pytest.raises(ValueError, match="empty sample set"):
        check_rofs_inf_sup(B47.sys, B47.cand, lambda t, y: np.zeros((0, 3)),
                           [[0.0]], ts=range(2), ys=[[1.0]], d_values=[[0.1]])


# --- the rewritten scans against the scans they replaced ---

def envelope_batch():
    """Searched trajectories plus one all-zero and one NaN output trajectory."""
    budget = FalsifyBudget(max_trajectories=24, horizon=15, seed=5)
    batch = adversarial_batch(B34.sys, (0, 2), 3.0, budget,
                              u_modes=("zero", "constant", "random"))
    nans = batch[0].Y.copy()
    nans[[4, 9]] = math.nan
    return batch + [ref.cut(batch[0], Y=np.zeros_like(nans)),
                    ref.cut(batch[0], Y=nans)]


@pytest.mark.parametrize("C", [6.0 * 3.8, 0.5, 0.0])
@pytest.mark.parametrize("form", ["kl", "ios"])
@pytest.mark.parametrize("nan_row", [False, True])
def test_envelope_checks_equal_the_row_loop(C, form, nan_row):
    # C = 0: every nonzero output has the ratio inf
    sigma = KLEnvelope(C, 0.2, beta=constant(1.0))
    batch = envelope_batch()[:None if nan_row else -1]
    if form == "kl":
        rep, gains = check_kl_estimate(batch, sigma), {}
    else:
        gains = dict(rho=linear(1 / 3), gamma=constant(1.0))
        rep = check_ios_estimate(batch, sigma, **gains)
    assert ref.dumps(rep) == ref.dumps(ref.check_estimate(
        batch, sigma, form="kl" if form == "kl" else "max", **gains))
    if nan_row:
        assert not rep.passed and math.isnan(rep.worst_margin)


@pytest.mark.parametrize("sampler", [
    lambda T, s: 2.0 * s * (1 + T) ** 0.5,
    lambda T, s: math.nan if T == 2 and s > 1.0 else s,
    lambda T, s: s * (1.0 + 1e-12),
])
def test_domination_equals_the_point_loop(sampler):
    Ts, ss = (0, 1, 2, 5), np.logspace(-3, 3, 13)
    rep = check_domination(sampler, identity(), constant(1.0), Ts=Ts, ss=ss)
    assert ref.dumps(rep) == ref.dumps(ref.check_domination(
        sampler, identity(), constant(1.0), Ts, ss))


def test_recursion_check_equals_the_step_loop():
    budget = FalsifyBudget(max_trajectories=30, horizon=20, seed=9)
    batch = adversarial_batch(B34.sys, (0, 1), 5.0, budget,
                              u_modes=("zero", "constant", "random"))
    for tol in (1e-9, 0.0):
        assert ref.dumps(recursion_step_check(B34, batch, tol)) == ref.dumps(
            ref.recursion_step_check(B34, batch, tol))


def test_recursion_check_skips_trajectories_without_rows():
    # a zero-row trajectory once raised IndexError from Trajectory.x0
    batch = adversarial_batch(B34.sys, (0,), 1.0,
                              FalsifyBudget(max_trajectories=5, horizon=10),
                              u_modes=("zero", "constant", "random"))
    empty = ref.cut(batch[0], 0)
    rep = recursion_step_check(B34, [empty, *batch[1:]])
    assert ref.dumps(rep) == ref.dumps(recursion_step_check(B34, batch[1:]))
    assert rep.samples == 4 * 10
    with pytest.raises(ValueError, match="empty sample set: no trajectory steps"):
        recursion_step_check(B34, [empty, ref.cut(batch[1], 1)])


def test_zero_output_under_a_zero_bound_has_ratio_zero():
    zero = ref.cut(envelope_batch()[0], Y=np.zeros((16, 1)))
    rep = check_kl_estimate([zero], KLEnvelope(0.0, 0.2, beta=constant(1.0)))
    assert (rep.worst_ratio, rep.worst_margin, rep.passed) == (0.0, 0.0, True)
