"""Each fast path against its plain-loop reference in ``reference.py``, on
generated expression systems and trajectory batches.

One strategy draws systems with n, m and k in 0..3 (k >= 1 for the
inf-sup over a measured-output fiber) and f, H and h built on the shared
expression strategy, so values run through NaN, inf, overflow and domain
errors; another draws ragged trajectory batches whose outputs and inputs
take every special value.  ``sampled_sup`` cases draw a set of times as
one more axis of the product.  Each pair compares bits (a NaN's sign
aside) and, where the reference raises, the exception's type and
message.  A raising array call is evaluated again point by point
(``VectorMap.rows``, a gain's ``values``, a ``sampled_sup`` slab's f and
score, ``_ios_bounds``'s gains row by row), the certificate checks' one
driver runs its whole (t, x, u) product again in nested-loop order, and
a search rolls a raising block again through ``simulate``, so their
messages match.  One pair compares the type alone: the tree walker's
messages name the failing subexpression.
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
                            check_rofs_inf_sup, check_sandwich)
from dtstab.comparison import (KLEnvelope, constant, geometric, identity,
                               kfn_from_expr, linear, power_fn,
                               timegain_from_expr)
from dtstab.expr import Bin, Var
from dtstab.registry import C_IOS, K_IOS
from dtstab.stability import (FalsifyBudget, check_ios_estimate,
                              check_kl_estimate, search_trajectories)
from dtstab.synth import ReconstructionMap
from dtstab.system import SystemDef, Trajectory, row_norms


def assert_same_outcome(fast, slow, message=True):
    assert ref.outcome(fast, message) == ref.outcome(slow, message)


# --- generated systems ---

@st.composite
def systems(draw, min_k=0):
    """An expression system: n and m in 0..3 and k in min_k..3, a box of
    positive widths, f_i = a + d_j * b and one or two outputs c + x_j (H,
    and h or not), a, b and c drawn, so that a greedy disturbance has scores
    to choose from."""
    n, m, k = draw(st.integers(0, 3)), draw(st.integers(0, 3)), draw(st.integers(min_k, 3))
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


# --- VectorMap.rows against eval ---

@st.composite
def map_cases(draw):
    """(system, map, t, X, D, U): f, H or h at N points with every special
    value; t a float, a one-element array, a 1-D column of N per-row times
    or an (N, 1) column, which broadcasts against the rows."""
    sys = draw(systems())
    name = draw(st.sampled_from(["f", "H", "h"]))
    N = draw(st.integers(1, 6))
    kind = draw(st.sampled_from(["float", "one element", "per row", "column"]))
    if kind == "float":
        t = draw(ref.values)
    elif kind == "one element":
        t = np.array([draw(ref.values)])
    else:
        t = rows(draw, N, 1)
        t = t[:, 0] if kind == "per row" else t
    D, U = (rows(draw, N, sys.m), rows(draw, N, sys.k)) if name == "f" else (None, None)
    return sys, name, t, rows(draw, N, sys.n), D, U


# the fused tuple holds floats: a component of t alone (a float at one time,
# a column at per-row times), constants, and f of n = 0 with no component
T_ONLY = SystemDef(n=2, m=1, k=0, d_box=[[-1.0, 1.0]], f=["2^(-t)", "x1*d1 + x2"],
                   H=["x2", "0.5"], h=["t"])
NO_STATE = SystemDef(n=0, m=1, k=0, d_box=[[-1.0, 1.0]], f=[], H=["1.5"])
# both components raise, at different points: the first failing point in C
# order is row 1's 1/x2, though log(x1) comes first and fails at row 2
TWO_RAISE = SystemDef(n=2, m=0, k=0, d_box=np.zeros((0, 2)), f=["log(x1)", "1/x2"],
                      H=["x1"])
X3 = np.array([[2.0, 1.0], [0.5, 0.0], [-1.0, 3.0]])
D3 = np.array([[-1.0], [0.25], [1.0]])
PER_ROW = np.array([0.0, 1.0, 6.0])


@settings(max_examples=100, deadline=None)
@given(map_cases())
@example((T_ONLY, "f", 2.0, X3, D3, np.zeros((3, 0))))
@example((T_ONLY, "f", PER_ROW, X3, D3, np.zeros((3, 0))))
@example((T_ONLY, "H", 1.0, X3, None, None))
@example((T_ONLY, "h", PER_ROW, X3, None, None))
@example((NO_STATE, "f", 3.0, np.zeros((3, 0)), D3, np.zeros((3, 0))))
@example((NO_STATE, "H", PER_ROW, np.zeros((3, 0)), None, None))
@example((TWO_RAISE, "f", 0.0, X3, np.zeros((3, 0)), np.zeros((3, 0))))
def test_vector_maps_equal_point_evaluation(case):
    sys, name, t, X, D, U = case
    vm = {"f": sys._fmap, "H": sys._Hmap, "h": sys._hmap}[name]
    assert_same_outcome(lambda: vm.rows(t, X, D, U), lambda: ref.map_grid(vm, t, X, D, U))
    if np.ndim(t) < 2:  # one time per row: the compiled code against the tree walker
        assert ref.outcome(lambda: ref.map_rows(vm, t, X, D, U, walk=True),
                           message=False) == ref.outcome(lambda: ref.map_rows(vm, t, X, D, U),
                                                         message=False)
    # a product: X outer, D inner; a 1-D t runs along D, an (N, 1) one along X
    sets = (X[:, None], None if D is None else D[None], None if U is None else U[:, None])
    assert_same_outcome(lambda: vm.rows(t, *sets), lambda: ref.map_grid(vm, t, *sets))


# --- Psi's rows against its tree-walker closure ---

@st.composite
def psi_cases(draw):
    """(Psi, t, Y, U): a Psi over t, y0..y<p> and u0..u<p-1>, p in 1..3, at
    N windows whose entries take every special value; each output has a
    second entry, which Psi never reads."""
    p = draw(st.integers(1, 3))
    names = ("t", *(f"y{i}" for i in range(p + 1)), *(f"u{i}" for i in range(p)))
    psi = ReconstructionMap(draw(ref.expressions(names, max_leaves=8)).to_string(), p)
    N = draw(st.integers(1, 5))
    return (psi, rows(draw, N, 1)[:, 0], rows(draw, N * (p + 1), 2).reshape(N, p + 1, 2),
            rows(draw, N * p, 1).reshape(N, p, 1))


def window_case(psi, U):
    """Psi at p = 2 on the windows of ``U`` (N, 2), at t = 1..N, with y_i =
    i + 0.5 in every window."""
    U = np.array(U, dtype=float)[:, :, None]
    Y = np.broadcast_to(np.arange(3.0)[:, None] + 0.5, (len(U), 3, 1))
    return ReconstructionMap(psi, 2), np.arange(1.0, len(U) + 1), Y, U


@settings(max_examples=100, deadline=None)
@given(psi_cases())
# u1 is Psi's input window, which shadows the input index u1 (u[0])
@example(window_case("u1 - 4*u0 + y2*t", [[1.0, 3.0], [-2.0, 0.5]]))
@example(window_case("log(u1) + y0", [[1.0, 2.0], [3.0, 0.0], [-1.0, -1.0]]))
def test_psi_rows_equal_the_closure(case):
    psi, t, Y, U = case
    assert_same_outcome(lambda: psi.rows(t, Y, U), lambda: ref.psi_rows(psi, t, Y, U))


# --- sampled_sup against the f_eval point loop ---

SCORES = {
    "norm": lambda sets: lambda F, idx: row_norms(F),
    "first column, weighted": lambda sets: lambda F, idx: (
        F[..., :1].sum(axis=-1) * (1.0 + idx[sets[0][0]])),
    "norm less the inner index": lambda sets: lambda F, idx: (
        row_norms(F) - idx[sets[-1][0]]),
    # raises where ||f|| <= 1
    "log of the norm less one": lambda sets: lambda F, idx: (
        kfn_from_expr("log(s - 1)").values(row_norms(F))),
}
# times with repeats, so that equal maxima fall in different t slices
TIMES = st.one_of(st.sampled_from([0.0, 1.0, 3.0]), ref.values)


@st.composite
def sup_cases(draw):
    """(system, sets, keep, SLAB_ROWS, score): a "t" set of one to four
    times and the other sets of one to four rows each, in any order; an
    unforced system may leave out "u"."""
    sys = draw(systems())
    names = ["t", "x", "d"] + (["u"] if sys.k or draw(st.booleans()) else [])
    dims = {"x": sys.n, "d": sys.m, "u": sys.k}
    sets = tuple((name, np.array(draw(st.lists(TIMES, min_size=1, max_size=4)))
                  if name == "t" else rows(draw, draw(st.integers(1, 4)), dims[name]))
                 for name in draw(st.permutations(names)))
    return (sys, sets, draw(st.integers(0, len(sets))),
            draw(st.sampled_from([1, 2, 3, 5, 4096])), draw(st.sampled_from(sorted(SCORES))))


def sup_case(f, times, keep, slab=4096, score="norm"):
    """A hand-picked case: f over (t, x1, d1) at the times ``times``
    (outermost), two states and two disturbances."""
    sys = SystemDef(n=1, m=1, k=0, d_box=[[-1.0, 1.0]], f=f, H=["x1"])
    sets = (("t", np.array(times)), ("x", np.array([[1.0], [-2.0]])),
            ("d", np.array([[-1.0], [1.0]])))
    return sys, sets, keep, slab, score


@settings(max_examples=150, deadline=None)
@given(sup_cases())
# equal maxima in different t slices: the first slice's is kept
@example(sup_case(["x1*d1"], [0.0, 1.0, 2.0], 0, slab=2))
@example(sup_case(["x1*d1 + 0*t"], [2.0, 0.0, 2.0], 1, slab=1))
# a NaN in a later slice wins over the earlier maxima
@example(sup_case(["x1*d1 + t"], [5.0, 0.0, math.nan], 0, slab=3))
@example(sup_case(["x1*d1*(1 + t)"], [1.0, math.nan, math.nan, 2.0], 2, slab=1,
                  score="norm less the inner index"))
# the score fails at the first state and f at the second, in one slab: the
# score's error is raised
@example(sup_case(["x1 + 0*sqrt(x1 + 1)"], [0.0], 0, score="log of the norm less one"))
def test_sampled_sup_equals_the_point_loop(case):
    sys, sets, keep, slab, score = case
    score = SCORES[score](sets)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(system_mod, "SLAB_ROWS", slab)
        assert_same_outcome(lambda: system_mod.sampled_sup(sys, sets, score, keep),
                            lambda: ref.sampled_sup(sys, sets, score, keep))


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
@example((T_ONLY, (0,), 2.0, FalsifyBudget(9, 5, seed=2), ("zero",), 256))
@example((T_ONLY, (0, 3), 2.0, FalsifyBudget(9, 5, seed=2), ("zero",), 3))
@example((NO_STATE, (1,), 0.0, FalsifyBudget(6, 4, seed=3), ("zero",), 256))
@example((NO_STATE, (1, 2), 0.0, FalsifyBudget(6, 4, seed=3), ("zero",), 256))
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
    """A V that is 0 at the origin: "nan far" is NaN (inf * 0) where |x1| >
    100, and "raises" raises on log where x1 >= 2 and on sqrt where x1 < -1;
    the others never raise."""
    if n == 0:
        return "0"
    norm = f"norm({', '.join(f'x{i + 1}' for i in range(n))})"
    return {"norm": norm, "decaying": f"exp(-t)*abs(x1) + {norm}",
            "nan far": f"{norm} + max(abs(x1) - 100, 0)*1e300*1e300*0",
            "raises": f"{norm} + log(2 - x1) - log(2) + sqrt(1 + x1) - 1"}[kind]


@st.composite
def certificate_cases(draw):
    """(system, candidate with every gain, grid, d values, u values): a3
    exceeds s only for a forced system, which the relaxed form skips; V may
    raise, a1 below s = 1 and beta past t = 2."""
    sys = draw(systems())
    pick = lambda *options: draw(st.sampled_from(options))  # noqa: E731
    K = (identity(), linear(1.5), power_fn(2.0))
    cand = LyapunovCandidate(
        V=candidate_V(sys.n, pick("norm", "decaying", "nan far", "raises")), n=sys.n,
        a1=pick(*K, K_GAINS[-1]), a2=pick(*K),
        beta=pick(constant(2.0), timegain_from_expr("1 + t"), TIME_GAINS[-1]),
        mu=pick(None, geometric(0.5, 0.5)), lam=pick(0.5, 0.9),
        a3=pick(linear(0.1), *(K if sys.k else K[:1])),
        q=pick(geometric(0.5, 0.5), constant(0.0)),
        phi=pick(constant(2.0), timegain_from_expr("1 + 2^(-t)")))
    grid = StateGrid(ts=sorted(draw(st.sets(st.integers(0, 4), min_size=1, max_size=3))),
                     xs=rows(draw, draw(st.integers(1, 5)), sys.n))
    return (sys, cand, grid, rows(draw, draw(st.integers(1, 4)), sys.m),
            rows(draw, draw(st.integers(1, 3)), sys.k))


def sandwich_case(H, V, xs):
    """A hand-picked case at t = 0: f the identity on two states, the
    output H, the candidate V and every gain the identity or 1."""
    sys = SystemDef(n=2, m=0, k=0, d_box=np.zeros((0, 2)), f=["x1", "x2"], H=[H])
    one = constant(1.0)
    cand = LyapunovCandidate(V=V, n=2, a1=identity(), a2=identity(), beta=one,
                             lam=0.5, a3=linear(0.1), q=constant(0.0), phi=one)
    return sys, cand, StateGrid(ts=[0], xs=xs), np.zeros((1, 0)), np.zeros((1, 0))


def decrease_case(f, V, a3, xs):
    """A hand-picked case at t = 0: the one-state system f without
    disturbance, the candidate V with lam 0.5, a3 and q = 0, and the states
    ``xs``."""
    sys = SystemDef(n=1, m=0, k=0, d_box=np.zeros((0, 2)), f=[f], H=["x1"])
    one = constant(1.0)
    cand = LyapunovCandidate(V=V, n=1, a1=identity(), a2=identity(), beta=one,
                             lam=0.5, a3=kfn_from_expr(a3), q=constant(0.0), phi=one)
    return (sys, cand, StateGrid(ts=[0], xs=np.array(xs).reshape(-1, 1)),
            np.zeros((1, 0)), np.zeros((1, 0)))


@settings(max_examples=100, deadline=None)
@given(certificate_cases())
# H fails at the first state and V at the second: H's error is raised
@example(sandwich_case("sqrt(x1)", "log(1 + x2)", [[-1.0, 1.0], [1.0, -1.0]]))
# V(t+1, f) fails at the first state and f at the second: V's error
@example(decrease_case("3*sqrt(x1 + 1) - 3", "log(2 - x1) - log(2)", "s", [1.9, -2.0]))
# a3 fails at the first state's right-hand side and f at the second: a3's
@example(decrease_case("log(x1 + 3)", "x1", "s*sqrt(s)/(1+s)", [-1.0, -4.0]))
# V(t+1, f) fails at the first state (sqrt) and V(t, x) at the second (log):
# the first state's successor is raised, in one nested-loop order
@example(decrease_case("x1 - 3", "log(2 - x1) - log(2) + sqrt(1 + x1) - 1", "s",
                       [0.0, 5.0]))
def test_certificate_checks_equal_their_loops(case):
    sys, cand, grid, dvals, us = case
    assert_same_outcome(lambda: check_sandwich(sys, cand, grid),
                        lambda: ref.check_sandwich(sys, cand, grid))
    if sys.k:
        assert_same_outcome(lambda: check_ios_decrease(sys, cand, grid, us, d_values=dvals),
                            lambda: ref.check_ios_decrease(sys, cand, grid, us, dvals))
        return
    assert_same_outcome(lambda: check_contraction(sys, cand, grid, d_values=dvals),
                        lambda: ref.check_contraction(sys, cand, grid, dvals))
    assert_same_outcome(lambda: check_relaxed_decrease(sys, cand, grid, d_values=dvals),
                        lambda: ref.check_relaxed_decrease(sys, cand, grid, dvals))


# --- the static output-feedback inf-sup check against its loops ---

@st.composite
def rofs_cases(draw):
    """(system with k >= 1, candidate, fiber rows, u candidates, times,
    outputs, d values, mode): the fiber sampler returns the drawn rows,
    none or some, at every (t, y)."""
    sys = draw(systems(min_k=1))
    kind = draw(st.sampled_from(["norm", "decaying", "nan far", "raises"]))
    cand = LyapunovCandidate(V=candidate_V(sys.n, kind), n=sys.n,
                             lam=draw(st.sampled_from([0.5, 0.9])))
    return (sys, cand, rows(draw, draw(st.integers(0, 4)), sys.n),
            rows(draw, draw(st.integers(1, 3)), sys.k),
            sorted(draw(st.sets(st.integers(0, 4), min_size=1, max_size=2))),
            list(rows(draw, draw(st.integers(1, 2)), sys.p_y)),
            rows(draw, draw(st.integers(1, 3)), sys.m),
            draw(st.sampled_from(["plain", "strong", "zero"])))


def rofs_case(mode):
    """A hand-picked case: x1 steered by d1*u1 from a fiber with two
    zero-output states, so that the strong mode keeps the input 0 only."""
    sys = SystemDef(n=2, m=1, k=1, d_box=[[-1.0, 1.0]], f=["x1 + d1*u1", "0.5*x2"],
                    H=["x1"])
    cand = LyapunovCandidate(V="norm(x1, x2)", n=2, lam=0.9)
    return (sys, cand, np.array([[0.0, 1.0], [0.0, -1.0], [1.0, 0.0]]),
            np.array([[0.0], [1.0], [-2.0]]), [0, 3], [np.zeros(1), np.ones(1)],
            np.array([[-1.0], [0.5], [1.0]]), mode)


@settings(max_examples=100, deadline=None)
@given(rofs_cases())
@example(rofs_case("plain"))
@example(rofs_case("strong"))
@example(rofs_case("zero"))
def test_rofs_equals_its_loops(case):
    sys, cand, fiber, us, ts, ys, dvals, mode = case
    sampler = lambda t, y: fiber  # noqa: E731
    assert_same_outcome(
        lambda: check_rofs_inf_sup(sys, cand, sampler, us, ts, ys, mode=mode,
                                   d_values=dvals),
        lambda: ref.check_rofs_inf_sup(sys, cand, sampler, us, ts, ys, dvals, mode=mode))


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


def case_of(sigma, x0, u, Y, **gains):
    """A hand-picked one-trajectory envelope case from time 0, every gain
    not in ``gains`` the identity or 1."""
    batch = [trajectory(0, np.array(x0), np.array(u).reshape(len(Y), -1),
                        np.array(Y).reshape(len(Y), -1))]
    one = constant(1.0)
    return batch, sigma, one, dict(dict(rho=identity(), gamma=one, zeta=identity(),
                                        delta=one), **gains)


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
# rho fails at t = 0 (log of 0) and gamma at t = 3: rho's error is raised
@example(case_of(KLEnvelope(2.0, 0.5), [1.0], np.zeros((4, 1)), [1.0, 0.5, 0.25, 0.1],
                 rho=kfn_from_expr("log(s)"), gamma=TIME_GAINS[-1]))
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
            flat(lambda traj: ref.ios_bounds(traj, sigma, beta, form=form, **gains)))
        assert_same_outcome(
            lambda: check_ios_estimate(batch, sigma, beta, form=form, **gains),
            lambda: ref.check_estimate(batch, sigma, beta, form, **gains))
