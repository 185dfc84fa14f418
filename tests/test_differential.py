"""Each fast path against its plain-loop reference in ``reference.py``, on
generated expression systems.

One strategy draws systems with n, m and k in 0..3 and f, H and h built
on the shared expression strategy, so values run through NaN, inf,
overflow and domain errors.  Each pair compares bits (a NaN's sign aside);
where the reference raises, the exception's type and message.
``VectorMap.rows`` and ``grid``, and the sandwich check through them, take
one subexpression over all points at a time, so they raise the error of the
first failing subexpression, not point: those pairs compare the type alone.
``sampled_sup`` evaluates a raising slab again point by point, and a search
rolls a raising block again through ``simulate``, so their messages match.
Hypothesis runs derandomized (``conftest.py``), ``max_examples`` fixed.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import dtstab.stability as stability
import dtstab.system as system_mod
import reference as ref
from dtstab.certify import (LyapunovCandidate, StateGrid, check_contraction,
                            check_ios_decrease, check_relaxed_decrease,
                            check_sandwich)
from dtstab.comparison import (constant, geometric, identity, linear,
                               power_fn, timegain_from_expr)
from dtstab.expr import Bin, Var
from dtstab.stability import FalsifyBudget, search_trajectories
from dtstab.system import SystemDef, row_norms


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
    want = ref.outcome(lambda: ref.map_rows(vm, t, X, D, U), message=False)
    assert ref.outcome(lambda: vm.rows(t, X, D, U), message=False) == want
    assert ref.outcome(lambda: ref.map_rows(vm, t, X, D, U, walk=True),
                       message=False) == want
    # one time over a product: X outer, D inner
    t0 = float(np.ravel(t)[0])
    sets = (X[:, None], None if D is None else D[None], None if U is None else U[:, None])
    assert_same_outcome(lambda: vm.grid(t0, *sets), lambda: ref.map_grid(vm, t0, *sets),
                        message=False)


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
