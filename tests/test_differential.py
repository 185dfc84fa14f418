"""Each fast path against its plain-loop reference in ``reference.py``, on
generated expression systems and trajectory batches.

One strategy draws systems with n, m and k in 0..3 and f, H and h built
on the shared expression strategy, so values run through NaN, inf,
overflow and domain errors; another draws ragged trajectory batches whose
outputs and inputs take every special value.  Each pair compares bits (a
NaN's sign aside) and, where the reference raises, the exception's type
and message.  A raising array call is evaluated again point by point
(``VectorMap.rows`` and ``grid``, a gain's ``values``), a search rolls a
raising block again through ``simulate``, and an envelope check bounds a
raising batch again one trajectory at a time, so their messages match.
Four pairs compare the type alone.  The tree walker's messages name the
failing subexpression.  The sandwich check evaluates V, H and the gains
one map at a time over all points, and ``_ios_bounds`` (so
``check_ios_estimate``) each gain over all rows at a time, so where two
maps fail at different points, the reference raises the first point's
error and the fast path the first map's.
Hypothesis runs derandomized (``conftest.py``), ``max_examples`` fixed.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import dtstab.stability as stability
import dtstab.system as system_mod
import reference as ref
from dtstab.certify import (LyapunovCandidate, StateGrid, check_contraction,
                            check_ios_decrease, check_relaxed_decrease,
                            check_sandwich)
from dtstab.comparison import (KLEnvelope, constant, geometric, identity,
                               kfn_from_expr, linear, power_fn,
                               timegain_from_expr)
from dtstab.expr import Bin, Var
from dtstab.registry import C_IOS, K_IOS
from dtstab.stability import (FalsifyBudget, check_ios_estimate,
                              check_kl_estimate, search_trajectories)
from dtstab.system import SystemDef, Trajectory, row_norms


def assert_same_outcome(fast, slow, message=True):
    assert ref.outcome(fast, message) == ref.outcome(slow, message)


# --- generated systems ---

@st.composite
def systems(draw):
    """An expression system: n, m and k in 0..3, a box of positive widths,
    f_i = a + d_j * b and one or two outputs c + x_j (H, and h or not), a, b
    and c drawn, so that a greedy disturbance has scores to choose from."""
    n, m, k = (draw(st.integers(0, 3)) for _ in range(3))
    box = [[lo, lo + draw(st.floats(0.5, 4.0))] for lo in
           (draw(st.floats(-4.0, 4.0)) for _ in range(m))]
    xs = [f"x{i + 1}" for i in range(n)]
    full = ref.expressions(("t", *xs, *(f"d{i + 1}" for i in range(m)),
                            *(f"u{i + 1}" for i in range(k))), max_leaves=6)
    states = ref.expressions(("t", *xs), max_leaves=6)

    def plus(part, term):
        return Bin("+", draw(part), term) if term else draw(part)

    def outputs():
        return [plus(states, n and Var(xs[j % n])) for j in range(draw(st.integers(1, 2)))]

    f = [plus(full, m and Bin("*", Var(f"d{i % m + 1}"), draw(full))) for i in range(n)]
    return SystemDef(n=n, m=m, k=k, d_box=np.array(box).reshape(m, 2), f=f,
                     H=outputs(), h=outputs() if draw(st.booleans()) else None)


def rows(draw, count, width, elements=ref.values):
    """A (count, width) array of drawn floats."""
    return np.array([[draw(elements) for _ in range(width)]
                     for _ in range(count)]).reshape(count, width)


# --- VectorMap.rows and grid against eval ---

@st.composite
def map_cases(draw):
    """(system, map, t, X, D, U): f, H or h at points with every special
    value, t one time or a column of per-row times."""
    sys = draw(systems())
    name = draw(st.sampled_from(["f", "H", "h"]))
    N = draw(st.integers(1, 6))
    t = draw(ref.values) if draw(st.booleans()) else rows(draw, N, 1)[:, 0]
    D, U = (rows(draw, N, sys.m), rows(draw, N, sys.k)) if name == "f" else (None, None)
    return sys, name, t, rows(draw, N, sys.n), D, U


@settings(max_examples=100, deadline=None)
@given(map_cases())
def test_vector_maps_equal_point_evaluation(case):
    sys, name, t, X, D, U = case
    vm = {"f": sys._fmap, "H": sys._Hmap, "h": sys._hmap}[name]
    want = ref.outcome(lambda: ref.map_rows(vm, t, X, D, U))
    assert ref.outcome(lambda: vm.rows(t, X, D, U)) == want
    assert ref.outcome(lambda: ref.map_rows(vm, t, X, D, U, walk=True),
                       message=False) == ref.outcome(lambda: ref.map_rows(vm, t, X, D, U),
                                                     message=False)
    # one time over a product: X outer, D inner
    t0 = float(np.ravel(t)[0])
    sets = (X[:, None], None if D is None else D[None], None if U is None else U[:, None])
    assert_same_outcome(lambda: vm.grid(t0, *sets), lambda: ref.map_grid(vm, t0, *sets))


# --- sampled_sup against the f_eval point loop ---

SCORES = {
    "norm": lambda sets: lambda F, idx: row_norms(F),
    "first column, weighted": lambda sets: lambda F, idx: (
        F[:, :1].sum(axis=1) * (1.0 + idx[sets[0][0]])),
    "norm less the inner index": lambda sets: lambda F, idx: (
        row_norms(F) - idx[sets[-1][0]]),
}


@st.composite
def sup_cases(draw):
    """(system, t, sets, keep, SLAB_ROWS, score): the sets in any order, of
    one to four rows each; an unforced system may leave out "u"."""
    sys = draw(systems())
    names = ["x", "d"] + (["u"] if sys.k or draw(st.booleans()) else [])
    dims = {"x": sys.n, "d": sys.m, "u": sys.k}
    sets = tuple((name, rows(draw, draw(st.integers(1, 4)), dims[name]))
                 for name in draw(st.permutations(names)))
    return (sys, draw(st.integers(0, 5)), sets, draw(st.integers(0, len(sets))),
            draw(st.sampled_from([1, 2, 3, 5, 4096])), draw(st.sampled_from(sorted(SCORES))))


@settings(max_examples=150, deadline=None)
@given(sup_cases())
def test_sampled_sup_equals_the_point_loop(case):
    sys, t, sets, keep, slab, score = case
    score = SCORES[score](sets)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(system_mod, "SLAB_ROWS", slab)
        assert_same_outcome(lambda: system_mod.sampled_sup(sys, t, sets, score, keep),
                            lambda: ref.sampled_sup(sys, t, sets, score, keep))


# --- search_trajectories against simulate ---

@st.composite
def search_cases(draw):
    """(system, t0s, radius, budget, u_modes, ROLLOUT_BLOCK)."""
    def entries(options):
        return tuple(draw(st.lists(st.sampled_from(options), min_size=1, max_size=4)))

    budget = FalsifyBudget(max_trajectories=draw(st.integers(1, 8)),
                           horizon=draw(st.integers(0, 5)),
                           mix=entries(["corner", "greedy", "random"]),
                           seed=draw(st.integers(0, 2 ** 40)),
                           u_cap=draw(st.sampled_from([0.0, 2.0])))
    t0s = tuple(draw(st.lists(st.integers(-3, 260), min_size=1, max_size=3)))
    return (draw(systems()), t0s, draw(st.sampled_from([2.0, 0.5, 0.0])),
            budget, entries(["zero", "constant", "random"]),
            draw(st.sampled_from([2, 3, 256])))


def refuse(*args, **kwargs):
    raise AssertionError("search fell back to simulate")


@settings(max_examples=100, deadline=None)
@given(search_cases())
def test_search_equals_simulate(case):
    sys, t0s, radius, budget, u_modes, block = case
    want = ref.outcome(lambda: ref.search_trajectories(sys, t0s, radius, budget, u_modes))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(stability, "ROLLOUT_BLOCK", block)
        if want[1] is None:  # no row raises: every block rolls in lock-step
            mp.setattr(stability, "simulate", refuse)
        assert ref.outcome(lambda: search_trajectories(
            sys, t0s, radius, budget, u_modes)) == want


# --- the decrease and sandwich checks against their point loops ---

def candidate_V(n, kind):
    """A V that is 0 at the origin and never raises; "nan far" is NaN
    (inf * 0) where |x1| > 100."""
    if n == 0:
        return "0"
    norm = f"norm({', '.join(f'x{i + 1}' for i in range(n))})"
    return {"norm": norm, "decaying": f"exp(-t)*abs(x1) + {norm}",
            "nan far": f"{norm} + max(abs(x1) - 100, 0)*1e300*1e300*0"}[kind]


@st.composite
def certificate_cases(draw):
    """(system, candidate with every gain, grid, d values, u values): a3
    exceeds s only for a forced system, which the relaxed form skips."""
    sys = draw(systems())
    pick = lambda *options: draw(st.sampled_from(options))  # noqa: E731
    K = (identity(), linear(1.5), power_fn(2.0))
    cand = LyapunovCandidate(
        V=candidate_V(sys.n, pick("norm", "decaying", "nan far")), n=sys.n,
        a1=pick(*K), a2=pick(*K), beta=pick(constant(2.0), timegain_from_expr("1 + t")),
        mu=pick(None, geometric(0.5, 0.5)), lam=pick(0.5, 0.9),
        a3=pick(linear(0.1), *(K if sys.k else K[:1])),
        q=pick(geometric(0.5, 0.5), constant(0.0)),
        phi=pick(constant(2.0), timegain_from_expr("1 + 2^(-t)")))
    grid = StateGrid(ts=sorted(draw(st.sets(st.integers(0, 4), min_size=1, max_size=3))),
                     xs=rows(draw, draw(st.integers(1, 5)), sys.n))
    return (sys, cand, grid, rows(draw, draw(st.integers(1, 4)), sys.m),
            rows(draw, draw(st.integers(1, 3)), sys.k))


@settings(max_examples=100, deadline=None)
@given(certificate_cases())
def test_certificate_checks_equal_their_loops(case):
    sys, cand, grid, dvals, us = case
    assert_same_outcome(lambda: check_sandwich(sys, cand, grid),
                        lambda: ref.check_sandwich(sys, cand, grid), message=False)
    if sys.k:
        assert_same_outcome(lambda: check_ios_decrease(sys, cand, grid, us, d_values=dvals),
                            lambda: ref.check_ios_decrease(sys, cand, grid, us, dvals))
        return
    assert_same_outcome(lambda: check_contraction(sys, cand, grid, d_values=dvals),
                        lambda: ref.check_contraction(sys, cand, grid, dvals))
    assert_same_outcome(lambda: check_relaxed_decrease(sys, cand, grid, d_values=dvals),
                        lambda: ref.check_relaxed_decrease(sys, cand, grid, dvals))


# --- the envelope bounds and checks against their row loops ---

TIME_GAINS = (constant(1.0), timegain_from_expr("1"), geometric(1.5, 0.9),
              timegain_from_expr("1.5*0.9^t"), timegain_from_expr("1 + 2^(-t)"),
              timegain_from_expr("sqrt(2 - t)"))  # the last raises past t = 2
K_GAINS = (identity(), kfn_from_expr("s"), linear(1.0 / 3.0), kfn_from_expr("s/3"),
           power_fn(1.2, 4.0), kfn_from_expr("4*s^1.2"),
           kfn_from_expr("sqrt(s - 1)"))  # the last raises below s = 1


def trajectory(t0, x0, u, Y):
    """A trajectory of the rows of ``u`` and ``Y`` from time t0: only x0
    of its states is read."""
    N = Y.shape[0]
    x = np.zeros((N, len(x0)))
    x[:1] = x0
    return Trajectory(t0=t0, t=np.arange(t0, t0 + N), x=x, d=np.zeros((N, 0)),
                      u=u, Y=Y, y=Y)


@st.composite
def envelope_cases(draw):
    """(batch, sigma, beta, gains): 1 to 4 trajectories of 1 to 6 rows with
    t0 in 0..3, x0, u and Y of every special value, and up to two zero-row
    trajectories among them; sigma's (C, c), beta and the max and sup
    forms' gains drawn from a few spellings, some of which raise."""
    n, k, p = draw(st.integers(0, 2)), draw(st.integers(0, 2)), draw(st.integers(1, 2))

    def traj(N):
        return trajectory(draw(st.integers(0, 3)), rows(draw, 1, n)[0],
                          rows(draw, N, k), rows(draw, N, p))

    batch = [traj(draw(st.integers(1, 6))) for _ in range(draw(st.integers(1, 4)))]
    for _ in range(draw(st.integers(0, 2))):
        batch.insert(draw(st.integers(0, len(batch))), traj(0))
    for j, item in enumerate(batch):
        item.meta = {"index": j}
    sigma = KLEnvelope(draw(st.sampled_from([0.0, 0.5, 2.0, 6.0 * K_IOS])),
                       draw(st.sampled_from([-0.2, 0.0, 0.4, C_IOS, 30.0])))
    pick = lambda options: draw(st.sampled_from(options))  # noqa: E731
    gains = dict(rho=pick(K_GAINS), gamma=pick(TIME_GAINS),
                 zeta=pick(K_GAINS), delta=pick(TIME_GAINS))
    return batch, sigma, pick(TIME_GAINS), gains


def case_of(sigma, x0, u, Y):
    """A hand-picked one-trajectory envelope case from time 0, every gain
    the identity or 1."""
    batch = [trajectory(0, np.array(x0), np.array(u).reshape(len(Y), -1),
                        np.array(Y).reshape(len(Y), -1))]
    one = constant(1.0)
    return batch, sigma, one, dict(rho=identity(), gamma=one, zeta=identity(), delta=one)


@settings(max_examples=100, deadline=None)
@given(envelope_cases())
# test_stability's NaN input, whose fresh term wins the running term
@example(case_of(KLEnvelope(2, 0.5), [1.0], [0.0, math.nan, 0.0, 0.0],
                 [1.0, 0.5, 0.25, 0.1]))
# test_rollout's NaN outputs after an overflow
@example(case_of(KLEnvelope(2.0, 0.1), [1.0], np.zeros((4, 0)),
                 [1.0, math.nan, math.nan, math.nan]))
# test_stability's trajectory at rest under a small envelope
@example(case_of(KLEnvelope(0.01, 1.0), [0.0, 0.0], np.zeros((11, 0)), [0.0] * 11))
def test_envelopes_equal_their_row_loops(case):
    batch, sigma, beta, gains = case
    rowed = [traj for traj in batch if len(traj)]  # row_bounds takes no empty one

    def flat(bounds):
        return lambda: np.array([b for traj in rowed for b in bounds(traj)], dtype=float)

    assert_same_outcome(lambda: sigma.row_bounds(rowed, beta),
                        flat(lambda traj: ref.kl_bounds(traj, sigma, beta)))
    assert_same_outcome(lambda: check_kl_estimate(batch, sigma, beta),
                        lambda: ref.check_estimate(batch, sigma, beta))
    for form in ("max", "sup"):
        assert_same_outcome(
            lambda: stability._ios_bounds(rowed, sigma, beta, form=form, **gains),
            flat(lambda traj: ref.ios_bounds(traj, sigma, beta, form=form, **gains)),
            message=False)
        assert_same_outcome(
            lambda: check_ios_estimate(batch, sigma, beta, form=form, **gains),
            lambda: ref.check_estimate(batch, sigma, beta, form, **gains),
            message=False)
