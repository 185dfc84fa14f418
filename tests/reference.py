"""Plain-loop references for dtstab's fast paths, and the helpers every test
file shares.

Each fast path (an array kernel, a check over sample arrays, the lock-step
rollout, an expression composite) has one reference here: the loop it
replaced, one point, row or trajectory at a time through the scalar
evaluators (``f_eval``, ``V_eval``, a gain's scalar call, :func:`simulate`,
the tree walker).  Tests compare the two bit for bit, a NaN's sign aside
(IEEE 754 leaves it unspecified); ``test_differential.py`` drives the main
pairs on generated systems.  The references take first maxima and verdicts
one value at a time (:class:`Worst`), apart from ``system.first_max`` and
``WorstMargin``.

Shared helpers: :func:`same_bits`, the one bit comparison; :func:`dumps`,
the exact text of a report, trajectory or value, and :func:`outcome`, that
text or the error raised; the Hypothesis strategies :data:`values` and
:func:`expressions`; :func:`cut` and :func:`run_fresh`.
"""

import dataclasses
import functools
import itertools
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
from hypothesis import strategies as st
from mpmath import mp, mpf
from mpmath import e as mp_e
from mpmath import floor as mp_floor

from dtstab import comparison, stability
from dtstab.certify import ROFS_FILTER_TOL, ROFSEntry, ROFSReport
from dtstab.comparison import (ClassCheck, KLEnvelope, KLFit, constant,
                               decay_checks, identity, kfn_from_expr,
                               validate_class)
from dtstab.expr import (Bin, Call, Dims, Env, ExprDomainError, Neg, Num, Var,
                         eval_expression, parse_expression)
from dtstab.registry import C_IOS, K_IOS
from dtstab.stability import EnvelopeReport, FalsifyBudget, FalsifyReport
from dtstab.synth import SAMPLE_RADIUS, iterate_maps
from dtstab.system import (FAIL, PASS, PASS_TOL, CertificateReport,
                           ConstantDisturbance, ConstantInput,
                           GreedyDisturbance, InputPolicy, RandomDisturbance,
                           SequenceInput, ZeroInput, d_candidates,
                           require_samples, simulate, sphere_points, vecnorm)

# --- shared helpers ---

def same_bits(a, b) -> bool:
    """Equal bit for bit, signed zeros included, in shape and dtype too; a
    NaN equals a NaN of either sign."""
    a, b = np.asarray(a), np.asarray(b)
    if a.shape != b.shape or a.dtype != b.dtype:
        return False
    if a.dtype.kind != "f":
        return bool(np.array_equal(a, b))
    nan = np.isnan(a)
    return bool(np.array_equal(nan, np.isnan(b)) and np.array_equal(
        a[~nan].view(np.int64), b[~nan].view(np.int64)))


def _plain(obj):
    if hasattr(obj, "to_json"):
        return obj.to_json()
    if hasattr(obj, "tolist"):  # numpy arrays and scalars
        return obj.tolist()
    return vars(obj)  # a Trajectory, field by field


def dumps(obj) -> str:
    """Exact text of a report (its ``to_json``), a trajectory or a value:
    float reprs keep every bit but a NaN's sign."""
    return json.dumps(obj, sort_keys=True, default=_plain)


def outcome(run, message=True):
    """What ``run()`` gives, for comparing a fast path with its reference:
    :func:`dumps` of its result (of a generator: the items it yields before
    it raises, if it does), and the type and, if asked, the message of what
    it raises.  Warnings are ignored: both sides take the same values."""
    got, error = [], None
    with warnings.catch_warnings(), np.errstate(all="ignore"):
        warnings.simplefilter("ignore")
        try:
            result = run()
            for item in result if hasattr(result, "__next__") else [result]:
                got.append(item)
        except Exception as exc:  # compared with the other side's
            error = (type(exc).__name__, str(exc) if message else None)
    return dumps(got), error


# floats for points: the specials every kernel must handle, then any float
values = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.0, 0.5, 1e-310, 1e308, -1e308,
                     math.inf, -math.inf, math.nan]),
    st.floats(allow_nan=True, allow_infinity=True))

_NUMBERS = st.one_of(st.sampled_from([0.0, 0.5, 1.0, 2.0, 3.0, 1e300, 1e-300]),
                     st.floats(0.0, 1e9))


# parser-built subexpressions whose values are -0.0, -1, inf, -inf and NaN
_INF = Bin("*", Num(1e300), Num(1e300))
_SPECIALS = st.sampled_from([Neg(Num(0.0)), Neg(Num(1.0)), _INF, Neg(_INF),
                             Bin("-", _INF, _INF)])


def _literal_power(base, exponent, call):
    return Call("pow", (base, exponent)) if call else Bin("^", base, exponent)


def _extend(children):
    unary = st.sampled_from(["exp", "log", "abs", "sqrt", "sign"])
    binary = st.sampled_from(["min", "max", "pow"])
    return st.one_of(
        children.map(Neg),
        st.tuples(st.sampled_from("+-*/^"), children, children).map(
            lambda ops: Bin(*ops)),
        # a literal 2 or 0.5 exponent (the exact kernels), often of a special
        st.builds(_literal_power, st.one_of(children, _SPECIALS),
                  st.sampled_from([Num(2.0), Num(0.5)]), st.booleans()),
        st.tuples(unary, children).map(lambda fa: Call(fa[0], (fa[1],))),
        st.tuples(binary, children, children).map(
            lambda fab: Call(fab[0], (fab[1], fab[2]))),
        st.lists(children, min_size=1, max_size=4).map(
            lambda args: Call("norm", tuple(args))),
    )


@functools.lru_cache(maxsize=None)  # a strategy is built and validated once
def expressions(names: tuple, max_leaves=20):
    """ASTs over the variables ``names`` (a parser literal is never
    negative: a negative number is a negated literal), with every operator
    and function of the language; the literal exponents 2 and 0.5 are
    drawn often, on bases that include -0.0, -1, inf, -inf and NaN."""
    leaf = st.one_of(st.sampled_from(names).map(Var), _NUMBERS.map(Num))
    return st.recursive(leaf, _extend, max_leaves=max_leaves)


def cut(traj, rows=None, Y=None, u=None):
    """The first ``rows`` rows of a trajectory (all by default), its outputs
    (Y and y) or inputs replaced."""
    rows = slice(rows)
    Y = traj.Y[rows] if Y is None else Y
    return dataclasses.replace(traj, t=traj.t[rows], x=traj.x[rows], d=traj.d[rows],
                               u=traj.u[rows] if u is None else u, Y=Y, y=Y)


SRC = Path(__file__).resolve().parent.parent / "src"


def run_fresh(script):
    """Run ``script`` in a fresh interpreter that imports this checkout;
    returns its stdout."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(SRC), *filter(None, [os.environ.get("PYTHONPATH")])])}
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


# --- the margin rule, one value at a time ---

def beats(value, best) -> bool:
    """Whether ``value`` replaces ``best`` in a first-maximum scan (NaN wins)."""
    return value > best or (value != value and best == best)


def verdict(margin, rhs, tol) -> str:
    """``WorstMargin.verdict``'s rule (NaN and +inf fail)."""
    if margin <= 0.0:
        return PASS
    if margin < math.inf and margin <= tol * (1.0 + abs(rhs)):
        return PASS_TOL
    return FAIL


class Worst:
    """``WorstMargin`` fed one margin at a time (a ``floor``: only a margin
    above it takes the witness)."""

    def __init__(self, floor=None):
        self.margin, self.rhs, self.witness, self.samples = floor, None, None, 0

    def add(self, margin, rhs, witness):
        """``witness()`` builds the witness when ``margin`` becomes the worst."""
        self.samples += 1
        if self.margin is None or beats(margin, self.margin):
            self.margin, self.rhs, self.witness = float(margin), float(rhs), witness()

    def verdict(self, tol, what):
        require_samples(self.samples, what)
        return verdict(self.margin, self.rhs, tol)


# --- composites as closures ---

class ClosureSystem:
    """A system of closures ``f(t, d, x, u)``, ``H(t, x)`` and ``h(t, x)``
    (None: H), with a :class:`SystemDef`'s dimensions, box and point
    evaluators and nothing the array kernels need."""

    def __init__(self, n, m, k, d_box, f, H, h=None):
        self.n, self.m, self.k = n, m, k
        self.d_box = np.asarray(d_box, dtype=float).reshape(m, 2)
        self._f, self._H, self._h = f, H, H if h is None else h

    def f_eval(self, t, d, x, u=None):
        u = np.zeros(0) if u is None else u
        return np.asarray(self._f(float(t), *(np.asarray(a, dtype=float)
                                              for a in (d, x, u))), dtype=float).reshape(-1)

    def H_eval(self, t, x):
        return np.asarray(self._H(float(t), np.asarray(x, dtype=float)), dtype=float).reshape(-1)

    def h_eval(self, t, x):
        return np.asarray(self._h(float(t), np.asarray(x, dtype=float)), dtype=float).reshape(-1)


def tree_feedback(k, n):
    """A state feedback's expression list (text or ASTs) as a closure of (t,
    x) over the tree walker ``eval_expression``."""
    exprs = [parse_expression(e, Dims(n=n)) if isinstance(e, str) else e
             for e in k]

    def call(t, x):
        env = Env(t=float(t), x=x)
        return np.array([eval_expression(e, env) for e in exprs])
    return call


class TreeFeedback(InputPolicy):
    """The same feedback as an input policy, for :func:`simulate`."""

    def __init__(self, k, n):
        self.k = tree_feedback(k, n)

    def __call__(self, sys, t, x):
        return self.k(t, x)


def small_input_system(sys, p, theta):
    """``build_small_input_system``: u = p(t) theta(||x||) d' over the
    plant's point evaluator, d' appended to the box as [-1, 1]^k."""
    m, k = sys.m, sys.k
    box = np.vstack([sys.d_box, np.tile([-1.0, 1.0], (k, 1))])

    def f_small(t, dd, x, u):
        d, dprime = dd[:m], dd[m:]
        amp = p(t) * theta(vecnorm(x))
        return sys.f_eval(t, d, x, amp * dprime)

    return ClosureSystem(sys.n, m + k, 0, box, f_small, sys.H_eval, sys.h_eval)


def transformed_system(sys, mu):
    """``build_transformed_system`` as a closure over f, H and mu."""
    n = sys.n
    einv = math.exp(-1.0)

    def f_tr(t, d, s, u):
        z, w = s[:n], s[n:]
        scale = math.exp(t) * mu(t)
        X = scale * z
        fx = sys.f_eval(t, d, X, None)
        z_next = (math.exp(-t - 1.0) / mu(t + 1.0)) * fx
        w_next = einv * w - einv * sys.H_eval(t, X) + sys.H_eval(t + 1, fx)
        return np.concatenate([z_next, w_next])

    def H_tr(t, s):
        return np.array([vecnorm(s)])

    return ClosureSystem(n + sys.p_Y, sys.m, 0, sys.d_box, f_tr, H_tr)


def composed_V(U_text, mu, sys):
    """``compose_V_from_U``: V(t, x) = U(t, (exp(-t)/mu(t)) x, H(t, x)) as a
    closure that calls U (compiled, with z and w as auxiliaries) with the
    float arguments of ``V_eval``."""
    names = ([f"z{i + 1}" for i in range(sys.n)]
             + [f"w{j + 1}" for j in range(sys.p_Y)])
    U = parse_expression(U_text, Dims(aux=frozenset(names))).compiled()

    def V(t, x):
        t, x = float(t), np.asarray(x, dtype=float)
        z = (math.exp(-t) / mu(t)) * x
        zw = np.concatenate([z, sys.H_eval(t, x)])
        return float(U(t, None, None, None, dict(zip(names, zw.tolist()))))

    return V


def extended_system(sys, w_dim):
    """``build_extended_system`` as closures over the plant's maps."""
    n, k = sys.n, sys.k

    def f_ext(t, d, s, uv):
        x, u, v = s[:n], uv[:k], uv[k:]
        return np.concatenate([sys.f_eval(t, d, x, u), v])

    def H_ext(t, s):
        return sys.H_eval(t, s[:n])

    def h_ext(t, s):
        return np.concatenate([sys.h_eval(t, s[:n]), s[n:]])

    return ClosureSystem(n + w_dim, sys.m, k + w_dim, sys.d_box, f_ext, H_ext, h_ext)


def psi_closure(psi):
    """Psi as a closure of (t, y_p, y-window, u-window), windows oldest
    first, over the tree walker: the first entry of each output and input."""
    def call(t, y_p, y_hist, u_hist):
        p = psi.p
        aux = {f"y{p}": float(np.asarray(y_p).reshape(-1)[0])}
        for i in range(p):
            aux[f"y{i}"] = float(np.asarray(y_hist[i]).reshape(-1)[0])
            aux[f"u{i}"] = float(np.asarray(u_hist[i]).reshape(-1)[0])
        return np.array([eval_expression(psi.expr, Env(t=float(t), aux=aux))])
    return call


def psi_rows(psi, t, Y, U):
    """``ReconstructionMap.rows``: :func:`psi_closure` at each window in
    order, (N, 1); the first failing window raises, its message without the
    subexpression that the tree walker names."""
    call = psi_closure(psi)
    out = []
    for i in range(len(t)):
        try:
            out.append(call(t[i], Y[i, -1], Y[i, :-1], U[i]))
        except ExprDomainError as ex:
            raise ExprDomainError(str(ex).split(" in subexpression")[0]) from None
    return np.array(out).reshape(len(t), 1)


# --- maps and array kernels ---

def map_rows(vm, t, X, D=None, U=None, walk=False):
    """``VectorMap.rows``: ``eval`` (with ``walk``: the tree walker, the
    reference of eval's compiled code) at each row in order, ``t`` one time
    or one per row; the first failing row raises."""
    X = np.asarray(X, dtype=float)
    N = X.shape[0]
    ts = np.broadcast_to(np.asarray(t, dtype=float), (N,))
    D = np.zeros((N, 0)) if D is None else D
    U = np.zeros((N, 0)) if U is None else U

    def walked(t, x, d, u):
        env = Env(t=t, x=x, d=d, u=u)
        return np.array([eval_expression(e, env) for e in vm.exprs], dtype=float)

    point = walked if walk else vm.eval
    return np.array([point(float(ts[i]), X[i], D[i], U[i])
                     for i in range(N)]).reshape(N, vm.dim)


def map_grid(vm, t, X, D=None, U=None):
    """``VectorMap.rows`` over row sets that broadcast: :func:`map_rows`
    over the entries of the broadcast product of the times ``t`` and the
    (..., dim) row sets, row-major; (S, dim) for the broadcast shape S."""
    t = np.asarray(t, dtype=float)
    shape = np.broadcast_shapes(t.shape, *(A.shape[:-1] for A in (X, D, U) if A is not None))
    N = math.prod(shape)
    flat = [None if A is None else
            np.broadcast_to(A, shape + A.shape[-1:]).reshape(N, A.shape[-1])
            for A in (X, D, U)]
    return map_rows(vm, np.broadcast_to(t, shape).reshape(N), *flat).reshape(
        shape + (vm.dim,))


def kernel_points(kernel, args):
    """A scalar kernel at every point of the broadcast operands, in row
    order; the first point that raises raises."""
    cols = np.broadcast_arrays(*args)
    values = [kernel(*point) for point in zip(*(c.ravel().tolist() for c in cols))]
    return np.array(values, dtype=float).reshape(cols[0].shape)


# --- sampled suprema and the certificate checks ---

def sampled_sup(sys, sets, score, keep=0):
    """``sampled_sup`` as a point loop: ``f_eval`` and ``score`` at each
    point of the product (a time of the "t" set and rows of the others) in
    nested-loop order (the first failing point raises), and the first
    maximum (a NaN wins) past the ``keep`` sets."""
    names = [name for name, _ in sets]
    dims = {"t": 1, "d": sys.m, "x": sys.n, "u": sys.k}
    rows = [np.asarray(r, dtype=float).reshape(len(r), dims[name]) for name, r in sets]
    for name, r in zip(names, rows):
        require_samples(len(r), f"{name} values")
    shape = tuple(len(r) for r in rows)
    scores = []
    for index in itertools.product(*map(range, shape)):
        point = {name: r[i] for name, r, i in zip(names, rows, index)}
        F = sys.f_eval(point["t"][0], point["d"], point["x"], point.get("u"))
        idx = {name: np.array([i]) for name, i in zip(names, index)}
        scores.append(float(np.broadcast_to(score(F[None, :], idx), (1,))[0]))
    size = math.prod(shape[keep:])
    sups, args = [], []
    for start in range(0, len(scores), size):
        best = 0
        for i in range(1, size):
            if beats(scores[start + i], scores[start + best]):
                best = i
        sups.append(scores[start + best])
        args.append(best)
    if keep == 0:
        return sups[0], args[0]
    return (np.array(sups).reshape(shape[:keep]),
            np.array(args, dtype=np.intp).reshape(shape[:keep]))


def reachable_bound(sys, r, T, cfg):
    """``reachable_bound`` as the nested loop over t, d, x and u: (rho,
    witnesses)."""
    rng = np.random.default_rng(cfg.seed)
    ts = np.arange(0, 2 * T + 1)
    dcands = d_candidates(sys.d_box, grid=cfg.d_grid, random=cfg.d_random, rng=rng)
    ucands = (np.vstack([np.zeros((1, sys.k)),
                         sphere_points(sys.k, r, cfg.u_directions,
                                       scales=(1.0, 0.5), rng=rng)])
              if sys.k > 0 else np.zeros((1, 0)))
    rho, witnesses = [r], [None]
    for _ in range(T):
        xs = sphere_points(sys.n, rho[-1], cfg.x_directions,
                           scales=cfg.x_scales, rng=rng)
        best, wit = 0.0, None
        for t in ts:
            for dc in dcands:
                for xc in xs:
                    for uc in ucands:
                        val = vecnorm(sys.f_eval(t, dc, xc, uc))
                        if val > best:
                            best, wit = val, {"t": int(t), "d": dc.tolist(),
                                              "x": xc.tolist(), "u": uc.tolist(),
                                              "norm": val}
        rho.append(best)
        witnesses.append(wit)
    return rho, witnesses


def sup_f_sampler(sys, cfg, seed):
    """``sup_f_sampler`` as the nested loop over t, d, x and u at every call."""
    dcands = d_candidates(sys.d_box, grid=cfg.d_grid, random=cfg.d_random,
                          rng=np.random.default_rng(seed))

    def sampler(T, s):
        xs = sphere_points(sys.n, s, cfg.x_directions, cfg.x_scales, rng=0)
        us = (np.vstack([np.zeros((1, sys.k)),
                         sphere_points(sys.k, s, cfg.u_directions, rng=1)])
              if sys.k > 0 else np.zeros((1, 0)))
        best = 0.0
        for t in range(int(T) + 1):
            for dc in dcands:
                for xc in xs:
                    for uc in us:
                        best = max(best, vecnorm(sys.f_eval(t, dc, xc, uc)))
        return best

    return sampler


def sup_decrease(sys, cand, grid, rhs_fn, dvals, check_name, tol=1e-9,
                 u_values=None):
    """The decrease checks as nested point loops: at each (t, x, u) the
    first maximum over d of V(t+1, f(t, d, x, u)) through ``f_eval`` and
    ``V_eval`` (a NaN wins) against one ``rhs_fn(t, x, V(t, x), u)`` call."""
    us = np.zeros((1, 0)) if u_values is None else u_values
    worst = Worst()
    for t in grid.ts:
        for x in grid.xs:
            for u in us:
                lhs, arg = None, None
                for j, d in enumerate(dvals):
                    v = cand.V_eval(t + 1, sys.f_eval(t, d, x, u))
                    if lhs is None or beats(v, lhs):
                        lhs, arg = v, j
                rhs = rhs_fn(t, x, cand.V_eval(t, x), u)
                worst.add(lhs - rhs, rhs, lambda: {
                    "t": int(t), "x": x.tolist(), "d": dvals[arg].tolist(),
                    "u": u.tolist() if u_values is not None else None,
                    "lhs": float(lhs), "rhs": float(rhs)})
    return CertificateReport(check_name, worst.verdict(tol, "states"),
                             worst.margin, worst.witness, worst.samples, tol)


def check_contraction(sys, cand, grid, dvals, tol=1e-9):
    lam = cand.lam
    return sup_decrease(sys, cand, grid, lambda t, x, V0, u: lam * V0, dvals,
                        "contraction", tol)


def check_relaxed_decrease(sys, cand, grid, dvals, tol=1e-9):
    a3, q = cand.a3, cand.q
    return sup_decrease(sys, cand, grid, lambda t, x, V0, u: V0 - a3(V0) + q(t),
                        dvals, "relaxed-decrease", tol)


def check_ios_decrease(sys, cand, grid, u_values, dvals, tol=1e-9):
    lam, a3, phi = cand.lam, cand.a3, cand.phi
    return sup_decrease(sys, cand, grid,
                        lambda t, x, V0, u: lam * V0 + a3(phi(t) * vecnorm(u)),
                        dvals, "ios-decrease", tol, u_values=u_values)


def check_sandwich(sys, cand, grid, tol=1e-9):
    """``check_sandwich`` one state at a time: V, ||x|| and ||H|| and the
    gains a1 and a2 by their scalar calls."""
    lo, hi = Worst(), Worst()
    for t in grid.ts:
        for x in grid.xs:
            nx, nY = vecnorm(x), vecnorm(sys.H_eval(t, x))
            lhs = cand.a1(nY + cand.mu(t) * nx if cand.mu is not None else nY)
            V = cand.V_eval(t, x)
            rhs = cand.a2(cand.beta(t) * nx)
            for side, margin, a, b in ((lo, lhs - V, lhs, V), (hi, V - rhs, V, rhs)):
                side.add(margin, b, lambda a=a, b=b: {
                    "t": int(t), "x": x.tolist(), "d": None, "u": None,
                    "lhs": float(a), "rhs": float(b)})
    lo_v, hi_v = lo.verdict(tol, "states"), hi.verdict(tol, "states")
    side, worst = ("upper", hi) if beats(hi.margin, lo.margin) else ("lower", lo)
    order = [PASS, PASS_TOL, FAIL]
    return CertificateReport(
        "sandwich", max(lo_v, hi_v, key=order.index), worst.margin,
        dict(worst.witness, side=side), len(grid), tol,
        details={name: {"verdict": v, "worst_margin": m.margin, "witness": m.witness}
                 for name, v, m in (("lower", lo_v, lo), ("upper", hi_v, hi))})


def check_rofs_inf_sup(sys, cand, fiber_sampler, u_candidates, ts, ys, dvals,
                       mode="plain", tol=1e-9):
    """``check_rofs_inf_sup`` as loops over t, y, u, x and d: for each (t,
    y) the first minimum over u (a NaN wins) of the first maximum over the
    fiber's (x, d) (a NaN wins) of V(t+1, f) - lam V(t, x)."""
    lam = cand.lam
    if mode == "zero":
        ys, u_candidates = [np.zeros(sys.p_y)], np.zeros((1, sys.k))
    us = np.asarray(u_candidates, dtype=float).reshape(-1, sys.k)

    def sup_over(t, u, fiber, value):
        best = None
        for xi, x in enumerate(fiber):
            for di, d in enumerate(dvals):
                v = value(xi, sys.f_eval(t, d, x, u))
                if best is None or beats(v, best[0]):
                    best = (v, xi, di)
        return best

    entries = []

    def skip(t, y, inf_sup, note):
        entries.append(ROFSEntry(int(t), y.tolist(), inf_sup, None, {}, 0, note))

    for t in ts:
        for y in ys:
            y = np.asarray(y, dtype=float).reshape(-1)
            fiber = np.asarray(fiber_sampler(t, y), dtype=float).reshape(-1, sys.n)
            cands, note = us, ""
            if mode == "strong":
                zero = np.array([x for x in fiber if vecnorm(sys.H_eval(t, x))
                                 <= ROFS_FILTER_TOL]).reshape(-1, sys.n)
                if not len(zero):
                    skip(t, y, -math.inf, "zero-output fiber empty; skipped")
                    continue
                out = [sup_over(t, u, zero,
                                lambda xi, F: vecnorm(sys.H_eval(t + 1, F)))[0]
                       for u in us]
                cands = us[[v <= ROFS_FILTER_TOL for v in out]]
                if not len(cands):
                    skip(t, y, math.inf, "no admissible input found at tolerance")
                    continue
            if not len(fiber):
                skip(t, y, -math.inf, "fiber empty; skipped")
                continue
            lam_V0 = [lam * cand.V_eval(t, x) for x in fiber]
            best = None
            for j, u in enumerate(cands):
                sup = sup_over(t, u, fiber,
                               lambda xi, F: cand.V_eval(t + 1, F) - lam_V0[xi])
                if best is None or beats(-sup[0], -best[0][0]):  # first min, NaN wins
                    best = (sup, j)
            (inf_sup, xi, di), j = best
            entries.append(ROFSEntry(int(t), y.tolist(), float(inf_sup),
                                     cands[j].tolist(),
                                     {"x": fiber[xi].tolist(), "d": dvals[di].tolist()},
                                     len(cands), note))
    worst = Worst()
    for e in entries:
        if e.inf_sup != -math.inf:
            worst.add(e.inf_sup, 0.0, lambda: None)
    return ROFSReport(mode, entries, worst.margin,
                      worst.verdict(tol, "informative fiber entries"), tol,
                      notes=["fiber-restricted estimate: finite u grid "
                             "over-estimates the inf, finite fiber "
                             "under-estimates the sup"])


def check_domination(sampler, zeta, beta, Ts, ss, tol=1e-9):
    """``check_domination`` one (T, s) at a time."""
    worst = Worst()
    for T in Ts:
        bT = beta(T)
        for s in map(float, ss):
            lhs, rhs = float(sampler(T, s)), zeta(bT * s)
            worst.add(lhs - rhs, rhs, lambda: {"T": int(T), "s": s, "lhs": lhs, "rhs": rhs})
    return CertificateReport("domination", worst.verdict(tol, "(T, s) samples"),
                             worst.margin, worst.witness, worst.samples, tol)


# --- searches ---

def trajectory_specs(sys, t0s, radius, budget, u_modes, indices):
    """``stability._trajectory_specs`` seeded one index at a time: one
    ``SeedSequence`` and up to three ``default_rng`` calls per index."""
    axis = [radius * e * sgn for e in np.eye(sys.n) for sgn in (1.0, -1.0)]
    ladder = (1.0, 0.75, 0.5, 0.25)
    for i in indices:
        seq = np.random.SeedSequence(budget.seed, spawn_key=(i,))
        child = int(seq.generate_state(1)[0])
        if radius == 0.0 or sys.n == 0:
            x0 = np.zeros(sys.n)
        elif i < len(axis):
            x0 = axis[i]
        else:
            rng = np.random.default_rng(seq.generate_state(2))
            direction = rng.standard_normal(sys.n)
            nrm = math.sqrt(direction.dot(direction))
            direction = direction / nrm if nrm > 0 else np.eye(sys.n)[0]
            x0 = direction * (radius * ladder[i % len(ladder)])
        strategy = budget.mix[i % len(budget.mix)]
        if strategy == "corner":
            dpol = ConstantDisturbance(sys.d_corners[i % sys.d_corners.shape[0]])
        elif strategy == "greedy":
            dpol = GreedyDisturbance(grid=stability._GREEDY_GRID, seed=child)
        else:
            dpol = RandomDisturbance(seed=child, mode="mixed")
        mode = u_modes[i % len(u_modes)]
        if sys.k == 0 or mode == "zero":
            upol = ZeroInput()
        elif mode == "constant":
            level = budget.u_cap * ladder[(i // 2) % len(ladder)]
            sign = 1.0 if i % 2 == 0 else -1.0
            upol = ConstantInput(np.full(sys.k, sign * level / math.sqrt(sys.k)))
        else:
            rng = np.random.default_rng(child + 1)
            upol = SequenceInput(rng.uniform(-budget.u_cap, budget.u_cap,
                                             size=(256, sys.k)))
        yield (t0s[i % len(t0s)], x0, dpol, upol,
               {"index": i, "strategy": strategy})


def search_trajectories(sys, t0s, radius, budget, u_modes=("zero",),
                        specs=trajectory_specs):
    """``search_trajectories`` as one :func:`simulate` per index of the spec
    stream ``specs`` (by default seeded one index at a time)."""
    for t0, x0, dpol, upol, meta in specs(
            sys, list(t0s), radius, budget, u_modes, range(budget.max_trajectories)):
        yield simulate(sys, t0, x0, dpol, upol, budget.horizon, meta=meta)


# --- envelopes over trajectory rows ---

def kl_bounds(traj, sigma, beta):
    """sigma(beta(t0)||x0||, t - t0) at each row, one envelope call a row."""
    scale = beta(traj.t0) * vecnorm(traj.x0)
    return [sigma(scale, int(t - traj.t0)) for t in traj.t]


def ios_bounds(traj, sigma, beta, rho=None, gamma=None, form="max", zeta=None,
               delta=None):
    """The input-to-output bound at each row: the running sup of the fresh
    input terms, stepped by the envelope's decay in the max form (a NaN
    fresh term wins), and the larger of it and the KL term (a NaN running
    term wins)."""
    decay = kl_bounds(traj, sigma, beta)
    out, run = [], None
    for i, t in enumerate(traj.t):
        tau, nu = float(t), vecnorm(traj.u[i])
        if form == "max":
            fresh, g = sigma(beta(tau) * rho(gamma(tau) * nu), 0), sigma.g
        else:
            fresh, g = zeta(delta(tau) * nu), 1.0
        held = fresh if run is None else run * g
        run = fresh if fresh > held or fresh != fresh else held
        out.append(run if run > decay[i] or run != run else decay[i])
    return out


def row_check(form, bounds, batch, tol):
    """``stability._row_check`` row by row (``bounds[j]``: trajectory j's):
    the worst ||Y|| - bound and ||Y|| / bound (0 at a zero norm, inf at a
    bound that is not positive)."""
    worst, ratio_max = Worst(), 0.0
    for traj, traj_bounds in zip(batch, bounds):
        for i, bound in enumerate(traj_bounds):
            norm, bound = vecnorm(traj.Y[i]), float(bound)
            ratio = 0.0 if norm == 0.0 else (norm / bound if bound > 0.0 else math.inf)
            if beats(ratio, ratio_max):
                ratio_max = ratio
            worst.add(norm - bound, bound, lambda: {
                "t": int(traj.t[i]), "t0": int(traj.t0), "x0": traj.x0.tolist(),
                "norm": norm, "bound": bound, "meta": traj.meta})
    return EnvelopeReport(form, worst.verdict(tol, "trajectory rows") != FAIL,
                          ratio_max, worst.margin, worst.witness, worst.samples, tol)


def check_estimate(batch, sigma, beta=None, form="kl", tol=1e-9, **gains):
    """``check_kl_estimate`` (form "kl") or ``check_ios_estimate``; a
    trajectory without rows is skipped."""
    batch = [traj for traj in batch if len(traj)]
    beta = beta or sigma.beta
    bounds = [kl_bounds(traj, sigma, beta) if form == "kl"
              else ios_bounds(traj, sigma, beta, form=form, **gains) for traj in batch]
    return row_check(form, bounds, batch, tol)


def falsify(sys, sigma, beta=None, rho=None, gamma=None, budget=None,
            radius=1.0):
    """``falsify`` checking each trajectory of the search stream on its own
    as it is yielded, by :func:`row_check` over its row bounds."""
    budget = budget or FalsifyBudget()
    beta = beta or sigma.beta
    ios = rho is not None and sys.k > 0
    u_modes = ("zero", "constant", "random") if ios else ("zero",)
    best, wit, count = 0.0, None, 0
    for traj in stability.search_trajectories(sys, (0,), radius, budget, u_modes):
        count += 1
        if ios:
            if gamma is None:
                raise ValueError("max form needs rho and gamma")
            bounds = ios_bounds(traj, sigma, beta, rho, gamma)
        else:
            bounds = kl_bounds(traj, sigma, beta)
        rep = row_check("ios" if ios else "kl", [bounds], [traj], 0.0)
        if beats(rep.worst_ratio, best):
            best, wit = rep.worst_ratio, rep.witness
    return FalsifyReport(best, wit, count, "ios" if ios else "kl", budget.seed,
                         notes=["ratio <= 1: no violation found within budget"])


def fit_kl_envelope(batch, beta=None):
    """``fit_kl_envelope`` row by row: every bound a scalar ``KLEnvelope``
    call, re-running the recursion from t0."""
    beta = beta or constant(1.0)
    notes = []
    rows = []  # (traj_index, dt, norm, scale)
    for idx, traj in enumerate(batch):
        scale = beta(traj.t0) * vecnorm(traj.x0)
        for i in range(len(traj)):
            rows.append((idx, int(traj.t[i] - traj.t0), vecnorm(traj.Y[i]), scale))
    nan_row = next(((idx, dt) for idx, dt, norm, _ in rows if norm != norm), None)
    failed = nan_row is not None
    if failed:
        notes.append(f"NaN output norm at trajectory {nan_row[0]}, "
                     f"t - t0 = {nan_row[1]}")

    fit_pts = [(dt, math.log(norm / scale))
               for _, dt, norm, scale in rows if norm > 0.0 and scale > 0.0]
    if not fit_pts:
        notes.append("all-zero batch: degenerate zero envelope")
        env = KLEnvelope(0.0, 1.0, beta=beta)
        return KLFit(env, 0.0, None, True, failed, 0, notes)

    dts = np.array([p[0] for p in fit_pts], dtype=float)
    logs = np.array([p[1] for p in fit_pts])
    if np.ptp(dts) == 0.0:
        slope, intercept = 0.0, float(np.max(logs))
        notes.append("single time offset: no decay rate identifiable")
    else:
        slope, intercept = np.polyfit(dts, logs, 1)
    c = -float(slope)
    if not c > 0.0:
        failed = True
        notes.append(f"non-decaying data: fitted c = {c!r} <= 0")

    base = KLEnvelope(1.0, c, beta=beta)
    ratio_max, n_pts = 0.0, 0
    for _, dt, norm, scale in rows:
        if norm <= 0.0:
            continue
        n_pts += 1
        if scale <= 0.0:
            failed = True
            notes.append("row with zero initial scale but nonzero output")
            continue
        b = base(scale, dt)
        if b > 0.0:
            ratio_max = max(ratio_max, norm / b)
    C = max(math.exp(intercept), ratio_max) * (1.0 + 1e-12)
    env = KLEnvelope(C, c, beta=beta)

    max_slack, min_slack, witness = 0.0, math.inf, None
    for idx, dt, norm, scale in rows:
        bound = env(scale, dt)
        slack = bound - norm
        max_slack = max(max_slack, slack)
        if norm > 0.0 and slack < min_slack:
            min_slack = slack
            witness = {"trajectory": idx, "dt": dt, "norm": norm,
                       "bound": bound, "slack": slack}
    return KLFit(env, max_slack, witness, False, failed, n_pts, notes)


def recursion_step_check(bundle, batch, tol=1e-9):
    """``registry.recursion_step_check`` one step at a time."""
    cand, worst = bundle.cand, Worst()
    for traj in batch:
        if not len(traj):
            continue
        root = math.sqrt(vecnorm(traj.x0))
        for i in range(len(traj) - 1):
            t = float(traj.t[i])
            v1 = cand.V_eval(t + 1.0, traj.x[i + 1])
            rhs = (2.0 / math.e) * cand.V_eval(t, traj.x[i]) \
                + math.pow(2.0, 1.0 - t / 2.0) * root + vecnorm(traj.u[i])
            worst.add(v1 - rhs, rhs, lambda: {"t": int(t), "lhs": v1, "rhs": rhs,
                                              "meta": traj.meta})
    return CertificateReport("per-step-recursion", worst.verdict(tol, "trajectory steps"),
                             worst.margin, worst.witness, worst.samples, tol)


# --- gains ---

def sup_tail(gain, tau, horizon):
    """sup over t = tau..tau + horizon by one scalar call a time."""
    ts = np.arange(tau, tau + horizon + 1)
    return float(np.max([gain(t) for t in ts]))


def check_decay(gain):
    """``comparison._check_decay``'s grid rule by one scalar call a time."""
    horizon = comparison.TAIL_HORIZON
    vals = np.array([gain(t) for t in np.arange(0, horizon + 1)])
    suffix = np.maximum.accumulate(vals[::-1])[::-1]
    for eps in comparison.DECAY_EPS:
        if not np.any(suffix <= eps):
            return ClassCheck("decays_to_zero", False, {
                "eps": eps, "tail_min": float(suffix.min()),
                "horizon": horizon, "note": "grid estimate"})
    return ClassCheck("decays_to_zero", True)


def sign_check(gain, axiom, bad):
    """A t-grid sign rule by two scalar calls a t: it fails at the first t
    whose value ``bad`` marks."""
    hits = [(int(t), gain(t)) for t in comparison.T_GRID if bad(gain(t))]
    return ClassCheck(axiom, not hits, {"t": hits[0][0], "value": hits[0][1]}
                      if hits else None)


def class_fixtures():
    """The six canonical class-validation fixtures: (name, report, passes)."""
    bounded = kfn_from_expr("s/(1+s)", tag="Kinf")
    return [
        ("identity-Kinf", validate_class(identity()), True),
        ("bounded-Kinf", validate_class(bounded), False),
        ("bounded-K", validate_class(kfn_from_expr("s/(1+s)", tag="K")), True),
        ("envelope-KL", validate_class(KLEnvelope(6.0 * K_IOS, C_IOS)), True),
        ("shifted-K", validate_class(kfn_from_expr("s + 1", tag="K")), False),
        ("flat-decaying-q", decay_checks(constant(1.0)), False),
    ]


def tau_oracle(eps, T, R, dps=60):
    """The attainment-time formula of example_2_3's bundle in
    high-precision arithmetic: (tau, tau~)."""
    mp.dps = dps
    lam = (2 + mp_e) / (2 * mp_e)
    alpha = 1 - lam
    qC = 2 * mp_e / (mp_e - 2)
    ratio = mp_e / 4
    q = lambda t: qC * ratio ** t  # noqa: E731
    eps = mpf(eps)
    tt = 0
    while 2 * q(tt) / alpha + q(tt) > eps:
        tt += 1
    num = 2 * mpf(R) + q(0) / alpha + q(0)
    den = q(T + tt)
    return T + tt + int(mp_floor(num / den)) + 1, tt


# --- synthesis ---

def delay_chain_loop(sys, ctrl, t0, x0, w0, dpol, horizon):
    """The closed loop rolled by hand: Psi evaluated on the current output
    and the register window, and the register shifted by list code."""
    p, py = ctrl.p, sys.p_y
    psi = psi_closure(ctrl.psi)
    N = horizon + 1
    x = np.asarray(x0, dtype=float).reshape(sys.n)
    w = ctrl.initial_state(w0)
    T = np.arange(t0, t0 + N)
    X = np.empty((N, sys.n))
    D = np.empty((N, sys.m))
    U = np.empty((N, sys.k))
    Yv = np.empty((N, sys.p_Y))
    yv = np.empty((N, sys.p_y))
    W = np.empty((N, ctrl.state_dim))
    for i, t in enumerate(T):
        X[i], W[i] = x, w
        Yv[i] = sys.H_eval(t, x)
        yv[i] = sys.h_eval(t, x)
        ys = [w[j * py:(j + 1) * py] for j in range(p)]  # ys[j] = y(t-1-j)
        us = [w[p * py + j:p * py + j + 1] for j in range(p)]
        u = psi(t, yv[i], ys[::-1], us[::-1])
        U[i] = u
        D[i] = dpol(sys, t, x, u)
        if i + 1 < N:
            x = sys.f_eval(t, D[i], x, u)
            w = np.concatenate([yv[i], *ys[:-1], u, *us[:-1]])
    return {"t": T, "x": X, "d": D, "u": U, "Y": Yv, "y": yv, "w": W}


def coincidence_report(want, p, t0, reference_k, tol=1e-12):
    """The coincidence report of a :func:`delay_chain_loop` run, row by row."""
    T, U, yv, W = want["t"], want["u"], want["y"], want["w"]
    py = yv.shape[1]
    hist_wit = None
    for i in range(p, len(T)):
        for j in range(1, p + 1):
            yslot, uslot = W[i, (j - 1) * py:j * py], W[i, p * py + j - 1:p * py + j]
            if not (np.array_equal(yslot, yv[i - j]) and np.array_equal(uslot, U[i - j])):
                hist_wit = {"t": int(T[i]), "slot": j,
                            "w_y": yslot.tolist(), "y": yv[i - j].tolist(),
                            "w_u": uslot.tolist(), "u": U[i - j].tolist()}
                break
        if hist_wit:
            break
    result, err = PASS, Worst(floor=0.0)
    if reference_k is not None:
        k_ref = tree_feedback(reference_k, want["x"].shape[1])
        for i in range(p, len(T)):
            u, k = U[i], k_ref(T[i], want["x"][i])
            e = float(np.max(np.abs(u - k)))
            err.add(e, float(np.max(np.abs(k))), lambda: {
                "t": int(T[i]), "u": u.tolist(), "k_ref": k.tolist(), "err": e})
        result = err.verdict(tol, "rows")
    return {"check": "output-feedback-coincidence",
            "verdict": result if hist_wit is None else FAIL, "p": p,
            "coincident_from": t0 + p, "history_exact": hist_wit is None,
            "history_witness": hist_wit, "max_err": err.margin,
            "witness": err.witness, "tol": tol,
            "notes": [f"rows [{t0}, {t0 + p}) are the register-filling transient"]}


def random_spots(sys, p, ts, count, rng):
    """``synth._random_spots`` as three ``rng.uniform`` calls a sample."""
    spots = []
    for _ in range(count):
        t = int(ts[rng.integers(0, len(ts))])
        x = rng.uniform(-SAMPLE_RADIUS, SAMPLE_RADIUS, size=sys.n)
        d_seq = rng.uniform(sys.d_box[:, 0], sys.d_box[:, 1], size=(p, sys.m))
        u_seq = rng.uniform(-SAMPLE_RADIUS, SAMPLE_RADIUS, size=(p, sys.k))
        spots.append((t, x, d_seq, u_seq))
    return spots


def check_reconstruction(sys, target, psi, p, n_samples=1000, ts=range(0, 11),
                         seed=0, tol=0.0):
    """``check_reconstruction`` one sample at a time: ``iterate_maps`` and
    the closures ``target(t, x)`` and ``psi(t, y_p, y_hist, u_hist)``."""
    rng = np.random.default_rng(seed)
    ts = list(ts)
    d_mid = (sys.d_box[:, 0] + sys.d_box[:, 1]) / 2.0
    spots = [(int(t), np.zeros(sys.n), np.tile(d_mid, (p, 1)),
              np.zeros((p, sys.k))) for t in ts]
    spots += random_spots(sys, p, ts, max(n_samples - len(spots), 0), rng)

    max_abs = lambda v: float(np.max(np.abs(v))) if v.size else 0.0  # noqa: E731
    worst = Worst()
    for t, x, d_seq, u_seq in spots:
        res = iterate_maps(sys, p, t, x, d_seq, u_seq)
        lhs = np.asarray(target(t + p, res.F_p), dtype=float)
        rhs = psi(t + p, res.y_p, res.y_hist, list(u_seq))
        worst.add(max_abs(lhs - rhs), max_abs(rhs), lambda: {
            "t": t, "x": x.tolist(), "d_seq": d_seq.tolist(),
            "u_seq": u_seq.tolist(), "lhs": lhs.tolist(), "rhs": rhs.tolist()})
    return CertificateReport("reconstruction",
                             worst.verdict(tol, "reconstruction samples"),
                             worst.margin, worst.witness, worst.samples, tol)
