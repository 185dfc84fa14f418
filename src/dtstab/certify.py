"""Lyapunov certificate checks on sampled domains.

Every check verifies an inequality ``LHS <= RHS`` pointwise over explicit
samples and reports the worst margin ``LHS - RHS`` with a witness that
reproduces it on re-evaluation.  Tolerance policy: a point passes when
``margin <= tol * (1 + |RHS|)``; a strictly positive margin within tolerance
is reported as "pass (tolerance)".  Suprema over the disturbance set are
sampled (corners + grid + random), so failed checks are conclusive while
passes are evidence at the sampled points only.  A NaN margin fails (the
witness is its first occurrence), and an empty sample set is a ValueError.
The attainment-time formula :func:`tau_bound` reports an unbounded result
when no tau~ up to TAU_SCAN_CAP qualifies or a tail supremum of q is NaN.

The decrease checks and both sandwich sides are (lhs, rhs) pairs run by
one driver, :func:`_worst_margins`; each side but the decrease's sampled
sup is one expression that :func:`substitute` builds from V and the gains.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .comparison import S_GRID, KFn, TimeGain, _num, decay_checks, validate_class
from .expr import (Bin, Call, Dims, Expr, ExprDomainError, Neg, Num, Var,
                   parse_expression, substitute)
from .system import (_EMPTY, _NO_AUX, FAIL, PASS, PASS_TOL, CertificateReport,
                     SystemDef, VectorMap, WorstMargin, _beats, _FieldsJSON,
                     d_candidates, require_samples, row_norms, sampled_sup)

__all__ = [
    "LyapunovCandidate", "CertificateReport", "StateGrid",
    "check_sandwich", "check_contraction", "check_relaxed_decrease",
    "check_ios_decrease", "tau_bound", "TauBoundResult",
    "build_transformed_system", "compose_V_from_U",
    "check_rofs_inf_sup", "ROFSReport", "projection_fiber",
]

TAU_SCAN_CAP = 10 ** 6  # last tau~ candidate tau_bound tries
Q_FLOOR = 1e-300  # tau_bound's floor on tails of q that reach exact zero
ROFS_FILTER_TOL = 1e-8  # output norm counted as zero by the "strong" ROFS filter
ZERO_TIMES = range(0, 31, 5)  # t at which validate_zero evaluates V(t, 0)


@dataclass
class LyapunovCandidate:
    """A scalar function V(t, x) with its certificate bundle.

    ``V`` is an expression (text or AST) over ``(t, x1..xn)``; ``n`` is
    required.  Which bundle pieces are needed depends
    on the check: sandwich needs (a1, a2, beta[, mu]); contraction needs a
    factor ``lam`` in (0, 1); the relaxed decrease needs (a3, q) with
    ``a3(s) <= s``; the input-driven decrease needs (lam, a3, phi).
    """

    V: object
    n: int = None
    a1: KFn = None
    a2: KFn = None
    beta: TimeGain = None
    mu: TimeGain = None
    lam: float = None
    a3: KFn = None
    q: TimeGain = None
    phi: TimeGain = None
    name: str = "V"

    def __post_init__(self):
        if self.n is None:
            raise ValueError("state dimension n required for an expression V")
        self._map = VectorMap([self.V], "V", 1, n=self.n)
        self._V = self._map.scalar  # the scalar path (V_eval): no vector built
        if self.lam is not None and not 0.0 < self.lam < 1.0:
            raise ValueError(f"lam must lie in (0,1), got {self.lam!r}")

    def V_eval(self, t, x) -> float:
        return float(self._V(float(t), np.asarray(x, dtype=float)))

    def V_rows(self, t, X) -> np.ndarray:
        """V(t, x) over the rows x of X (..., n) at ``t``, a time or times
        that broadcast with them (see :meth:`VectorMap.rows`): shaped like X
        without its last axis, or broadcast with t; bit-identical to
        :meth:`V_eval`."""
        return self._map.rows(t, X)[..., 0]

    def require(self, *names):
        missing = [nm for nm in names if getattr(self, nm) is None]
        if missing:
            raise ValueError(f"candidate '{self.name}' lacks: {', '.join(missing)}")

    def validate_zero(self) -> list:
        """V(t, 0) = 0 at t in ZERO_TIMES: the times where it is not."""
        zero = np.zeros(self.n)
        return [{"t": int(t), "V": self.V_eval(t, zero)}
                for t in ZERO_TIMES if self.V_eval(t, zero) != 0.0]

    def validate_a3_bound(self) -> list:
        """a3(s) <= s on S_GRID (requirement of the relaxed decrease form)."""
        self.require("a3")
        return [{"s": float(s), "a3": float(v)}
                for s, v in zip(S_GRID, self.a3.values(S_GRID)) if v > s]


@dataclass
class StateGrid:
    """Explicit (t, x) sample set for certificate checks."""

    ts: np.ndarray
    xs: np.ndarray

    def __post_init__(self):
        self.ts = np.asarray(self.ts)
        self.xs = np.asarray(self.xs, dtype=float)
        if self.xs.ndim == 1:
            self.xs = self.xs.reshape(-1, 1)

    def __len__(self):
        return self.ts.shape[0] * self.xs.shape[0]

    @classmethod
    def from_axes(cls, ts, *axes):
        """Cartesian product of per-component value lists."""
        mesh = np.meshgrid(*[np.asarray(a, dtype=float) for a in axes],
                           indexing="ij")
        xs = np.stack([g.reshape(-1) for g in mesh], axis=1)
        return cls(ts=ts, xs=xs)


def _worst_verdict(*verdicts):
    order = {PASS: 0, PASS_TOL: 1, FAIL: 2}
    return max(verdicts, key=order.__getitem__)


def _d_values(sys, d_values):
    """``d_values`` as rows, by default the corners of D, a 9-point grid and
    256 random points (seed 0)."""
    if d_values is None:
        return d_candidates(sys.d_box, grid=9, random=256, rng=0)
    arr = np.asarray(d_values, dtype=float)
    if sys.m:
        return arr.reshape(-1, sys.m)
    return arr.reshape(len(arr) if arr.ndim > 1 else 1, 0)  # -1 cannot infer rows of 0


def _require_zero_at_origin(sys, cand):
    if cand.n != sys.n:
        raise ValueError(f"candidate '{cand.name}' is over n={cand.n} states, "
                         f"the system over n={sys.n}")
    bad = cand.validate_zero()
    if bad:
        raise ValueError(f"candidate '{cand.name}' is nonzero at the origin: "
                         f"{bad[0]}")


def check_sandwich(sys: SystemDef, cand: LyapunovCandidate, grid: StateGrid,
                   tol: float = 1e-9) -> CertificateReport:
    """Two-sided bound a1(||H|| + mu(t)||x||) <= V(t,x) <= a2(beta(t)||x||).

    ``mu=None`` checks the plain form a1(||H||) <= V.  Both sides are pairs
    of :func:`_worst_margins`.
    """
    cand.require("a1", "a2", "beta")
    _require_zero_at_origin(sys, cand)
    V, nx = cand._map.exprs[0], _norm([Var(f"x{i + 1}") for i in range(sys.n)])
    lo_arg = _norm(sys.H_exprs)
    if cand.mu is not None:
        lo_arg = Bin("+", lo_arg, Bin("*", cand.mu.expr, nx))
    lo, hi = _worst_margins(sys, cand, grid, [
        (_at(cand.a1, lo_arg), V), (V, _at(cand.a2, Bin("*", cand.beta.expr, nx)))])
    lo_v, hi_v = lo.verdict(tol), hi.verdict(tol)
    side, worst = ("upper", hi) if _beats(hi.margin, lo.margin) else ("lower", lo)
    return CertificateReport(
        "sandwich", _worst_verdict(lo_v, hi_v), worst.margin,
        dict(worst.witness, side=side), len(grid), tol,
        details={name: {"verdict": v, "worst_margin": m.margin, "witness": m.witness}
                 for name, v, m in (("lower", lo_v, lo), ("upper", hi_v, hi))})


def _norm(args):
    """The AST norm(args), or 0.0 over no arguments."""
    return Call("norm", tuple(args)) if args else Num(0.0)


def _at(gain: KFn, arg):
    """The AST of ``gain(arg)`` (:meth:`KFn.at`).  A gain that does not read
    s is constant, so not class K, and would never evaluate ``arg``: it is
    refused with ValueError."""
    if "s" not in gain.expr.variables():
        raise ValueError(f"K function {gain.name!r} does not read s: a "
                         f"constant gain is not class K")
    return gain.at(arg)


def _worst_margins(sys, cand, grid, pairs, dvals=None, u_values=None):
    """One :class:`WorstMargin` per pair (lhs, rhs) of ``lhs <= rhs``, over
    the product of the grid's times and states and the input rows
    ``u_values`` (None: one empty input, whose witness reads u None).

    A side is an expression over (t, x, u), except an lhs of None: V(t+1,
    f(t, d, x, u)) at its first maximum over the rows ``dvals``, one
    :func:`sampled_sup` call per time, whose witness carries that d.  The
    other sides are one :meth:`VectorMap.rows` call over the product.  When
    an evaluation raises :class:`ExprDomainError`, the product runs again
    point by point in nested-loop order, at each (t, x, u) each pair in
    turn, its lhs (at each d) and then its rhs, so the first failing
    point's error is raised.
    """
    ts, xs = grid.ts, grid.xs
    require_samples(len(ts), "times")
    require_samples(len(xs), "states")  # sampled_sup checks d, u
    us = np.zeros((1, 0)) if u_values is None else u_values
    sides = {id(e): e for pair in pairs for e in pair if e is not None}
    try:
        if dvals is not None:
            succ, arg_d = map(np.concatenate, zip(*(
                sampled_sup(sys, (("t", [t]), ("x", xs), ("u", us), ("d", dvals)),
                            lambda F, idx: cand.V_rows(t + 1, F), keep=3) for t in ts)))
        rows = VectorMap(list(sides.values()), "sides").rows(
            np.asarray(ts, dtype=float)[:, None, None], xs[None, :, None], None,
            us[None, None])
    except ExprDomainError:
        for t, x, u in itertools.product(ts, xs, us):
            for side in (e for pair in pairs for e in pair):
                if side is None:
                    for d in dvals:
                        cand.V_eval(t + 1, sys.f_eval(t, d, x, u))
                else:
                    side.compiled()(float(t), x, _EMPTY, u, _NO_AUX)
        raise
    values = dict(zip(sides, np.moveaxis(rows, -1, 0)))
    margins = []
    for lhs, rhs in pairs:
        L, R = succ if lhs is None else values[id(lhs)], values[id(rhs)]

        def witness(i):
            at = np.unravel_index(i, R.shape)
            return {"t": int(ts[at[0]]), "x": xs[at[1]].tolist(),
                    "d": None if lhs is not None else dvals[arg_d[at]].tolist(),
                    "u": None if u_values is None else us[at[2]].tolist(),
                    "lhs": float(L[at]), "rhs": float(R[at])}

        margins.append(WorstMargin("states"))
        margins[-1].add(L - R, R, witness)
    return margins


def check_contraction(sys: SystemDef, cand: LyapunovCandidate, grid: StateGrid,
                      d_values=None, tol: float = 1e-9) -> CertificateReport:
    """sup_d V(t+1, f(t,d,x)) <= lam * V(t,x) on an unforced system."""
    if sys.k != 0:
        raise ValueError("contraction check needs an unforced system (k=0)")
    cand.require("lam")
    _require_zero_at_origin(sys, cand)
    dvals = _d_values(sys, d_values)
    rhs = Bin("*", _num(cand.lam), cand._map.exprs[0])
    worst, = _worst_margins(sys, cand, grid, [(None, rhs)], dvals)
    return worst.report("contraction", tol)


def _require_decaying(q: TimeGain):
    """ValueError naming the first :func:`decay_checks` axiom ``q`` fails."""
    for chk in decay_checks(q).checks:
        if not chk.passed:
            raise ValueError(f"q {chk.axiom} violated, witness {chk.witness}")


def check_relaxed_decrease(sys: SystemDef, cand: LyapunovCandidate,
                           grid: StateGrid, d_values=None,
                           tol: float = 1e-9) -> CertificateReport:
    """sup_d V(t+1, f(t,d,x)) <= V(t,x) - a3(V(t,x)) + q(t), unforced system.

    A candidate whose a3 exceeds s, or whose q is negative or does not decay
    to zero (:func:`decay_checks`), is refused with ValueError."""
    if sys.k != 0:
        raise ValueError("relaxed decrease check needs an unforced system (k=0)")
    cand.require("a3", "q")
    _require_zero_at_origin(sys, cand)
    bad = cand.validate_a3_bound()
    if bad:
        raise ValueError(f"a3(s) <= s violated, witness {bad[0]}")
    _require_decaying(cand.q)
    dvals = _d_values(sys, d_values)
    V = cand._map.exprs[0]
    rhs = Bin("+", Bin("-", V, _at(cand.a3, V)), cand.q.expr)
    worst, = _worst_margins(sys, cand, grid, [(None, rhs)], dvals)
    return worst.report("relaxed-decrease", tol)


def check_ios_decrease(sys: SystemDef, cand: LyapunovCandidate,
                       grid: StateGrid, u_values, d_values=None,
                       tol: float = 1e-9) -> CertificateReport:
    """sup_d V(t+1, f(t,d,x,u)) <= lam V(t,x) + a3(phi(t)||u||), inputs sampled."""
    if sys.k < 1:
        raise ValueError("input-driven decrease needs an input channel (k >= 1)")
    cand.require("lam", "a3", "phi")
    _require_zero_at_origin(sys, cand)
    dvals = _d_values(sys, d_values)
    u_values = np.asarray(u_values, dtype=float).reshape(-1, sys.k)
    nu = _norm([Var(f"u{i + 1}") for i in range(sys.k)])
    rhs = Bin("+", Bin("*", _num(cand.lam), cand._map.exprs[0]),
              _at(cand.a3, Bin("*", cand.phi.expr, nu)))
    worst, = _worst_margins(sys, cand, grid, [(None, rhs)], dvals, u_values)
    return worst.report("ios-decrease", tol)


# --- attainment-time formula ---

@dataclass
class TauBoundResult(_FieldsJSON):
    tau: int
    tau_tilde: int
    numerator: float
    denominator: float
    eps: float
    T: int
    R: float
    unbounded: bool = False
    notes: list = field(default_factory=list)


def tau_bound(cand: LyapunovCandidate, eps: float, T: int,
              R: float) -> TauBoundResult:
    """Output-attainment time from the relaxed-decrease bundle.

    tau = T + tau~ + floor(num / den) + 1 with tau~ the least integer such
    that a3^{-1}(2 sup_{t>=tau~} q) + sup_{t>=tau~} q <= a1(eps),
    num = a2(R max_{t0<=T} beta(t0)) + a3^{-1}(q_max) + q_max and
    den = sup_{t >= T+tau~} q.  "Integer part" is implemented as floor; tails
    of q are exact for a literal or ``C * r^t`` q, however built or spelled,
    and grid estimates otherwise; q is floored at Q_FLOOR to keep the
    formula defined when q reaches exact zero.  The scan tries tau~ up to
    TAU_SCAN_CAP and stops at the first NaN tail of q; either way the result
    is unbounded.  A q that is negative or does not decay to zero
    (:func:`decay_checks`) is refused with ValueError, as
    :func:`check_relaxed_decrease` refuses it, unless its tail from 0 is
    NaN, which is reported unbounded.
    """
    cand.require("a1", "a2", "a3", "beta", "q")
    if not math.isnan(cand.q.sup_tail(0)):  # a NaN tail is reported unbounded
        _require_decaying(cand.q)
    notes = ["integer part implemented as floor",
             f"q floored at {Q_FLOOR:g} where it vanishes"]
    target = cand.a1(eps)
    tau_tilde = None
    for cand_tau in range(TAU_SCAN_CAP + 1):
        S = cand.q.sup_tail(cand_tau)
        if math.isnan(S):
            notes.append(f"sup of q over t >= {cand_tau} is NaN")
            break
        S = max(S, Q_FLOOR)
        if cand.a3.inverse(2.0 * S) + S <= target:
            tau_tilde = cand_tau
            break
    else:
        notes.append(f"no tau~ within scan cap {TAU_SCAN_CAP}")
    if tau_tilde is None:
        return TauBoundResult(None, None, math.nan, math.nan, eps, T, R,
                              unbounded=True, notes=notes)
    q_max = max(cand.q.sup_tail(0), Q_FLOOR)
    beta_max = max(cand.beta(t0) for t0 in range(T + 1))
    num = cand.a2(R * beta_max) + cand.a3.inverse(q_max) + q_max
    den = max(cand.q.sup_tail(T + tau_tilde), Q_FLOOR)
    if not math.isfinite(num / den):
        notes.append("num/den not finite")
        return TauBoundResult(None, tau_tilde, num, den, eps, T, R,
                              unbounded=True, notes=notes)
    tau = T + tau_tilde + math.floor(num / den) + 1
    return TauBoundResult(int(tau), tau_tilde, num, den, eps, T, R, notes=notes)


# --- the graph transform and composed candidates ---

def _scaled(scale, n) -> list:
    """The ASTs scale * x_i for i = 1..n."""
    return [Bin("*", scale, Var(f"x{i + 1}")) for i in range(n)]


def build_transformed_system(sys: SystemDef, mu: TimeGain) -> SystemDef:
    """State (z, w) system whose z-axis carries exp(-t)/mu(t)-scaled states.

    With X = exp(t) mu(t) z, z(t+1) = (exp(-t-1)/mu(t+1)) f(t, d, X) and the
    w-update is exactly its three-term form exp(-1) w - exp(-1) H(t, X) +
    H(t+1, f(t, d, X)) (not the equivalent closed form), so closed-form drift
    checks are genuine numeric checks.  Both are substituted into the ASTs of
    f, H and mu.
    The output is norm(x1, ..., x_{n+p_Y}), the norm of (z, w).
    """
    if sys.k != 0:
        raise ValueError("transform is defined for unforced systems (k=0)")
    rep = validate_class(mu)
    if not rep.passed:
        raise ValueError(f"mu must be a positive time gain: {rep.failures()[0]}")
    f, H, mu_t = sys.f_exprs, sys.H_exprs, mu.expr
    n, t = sys.n, Var("t")
    t1 = Bin("+", t, Num(1.0))
    xs = [f"x{i + 1}" for i in range(n + len(H))]
    X = dict(zip(xs, _scaled(Bin("*", Call("exp", (t,)), mu_t), n)))
    fX = [substitute(e, X) for e in f]
    down = Bin("/", Call("exp", (Bin("-", Neg(t), Num(1.0)),)),
               substitute(mu_t, {"t": t1}))
    einv = Num(math.exp(-1.0))
    H_next = {"t": t1, **dict(zip(xs, fX))}
    w_next = [Bin("+", Bin("-", Bin("*", einv, Var(w)),
                           Bin("*", einv, substitute(e, X))),
                  substitute(e, H_next)) for w, e in zip(xs[n:], H)]
    return SystemDef(n=len(xs), m=sys.m, k=0, d_box=sys.d_box,
                     f=[Bin("*", down, e) for e in fX] + w_next,
                     H=[Call("norm", tuple(map(Var, xs)))],
                     name=f"{sys.name}|transformed")


def compose_V_from_U(U, mu: TimeGain, sys: SystemDef) -> LyapunovCandidate:
    """V(t, x) := U(t, (exp(-t)/mu(t)) x, H(t, x)), H the output of ``sys``.

    ``U`` is an expression (text or AST) over ``t``, ``z1..zn`` and
    ``w1..w<p_Y>``, into which z and w are substituted; a U that is neither
    is refused with ValueError.
    Contraction of U along the transformed system implies contraction of
    the composed V at the matching graph points; verify with
    :func:`check_contraction`.
    """
    zs = [f"z{i + 1}" for i in range(sys.n)]
    ws = [f"w{j + 1}" for j in range(sys.p_Y)]
    if isinstance(U, str):
        U = parse_expression(U, Dims(aux=frozenset(zs + ws)))
    if not isinstance(U, Expr):
        raise ValueError(f"U ({type(U).__name__}) is not an expression; the "
                         f"composed V substitutes into one")
    down = Bin("/", Call("exp", (Neg(Var("t")),)), mu.expr)
    zw = _scaled(down, sys.n) + list(sys.H_exprs)
    V = substitute(U, dict(zip(zs + ws, zw)))
    return LyapunovCandidate(V=V, n=sys.n, name="U-composed")


# --- static output-feedback inf-sup condition ---

@dataclass
class ROFSEntry:
    t: int
    y: list
    inf_sup: float
    u_best: list
    witness: dict
    n_candidates: int
    note: str = ""


@dataclass
class ROFSReport:
    mode: str
    entries: list
    worst: float
    verdict: str
    tol: float
    notes: list = field(default_factory=list)

    @property
    def passed(self):
        return self.verdict != FAIL

    def to_json(self):
        return {"check": f"rofs-inf-sup[{self.mode}]", "verdict": self.verdict,
                "worst_margin": self.worst, "tol": self.tol,
                "entries": [vars(e) for e in self.entries], "notes": self.notes}


def projection_fiber(observed: Sequence[int], free_grids: dict, n: int):
    """Fiber sampler for a coordinate-projection measured output.

    ``observed`` lists the state indices read by h (in output order);
    ``free_grids`` maps each remaining index to its sample values.  Returns a
    callable (t, y) -> array of states with the observed coordinates pinned.
    """
    free_idx = sorted(free_grids)
    axes = [np.asarray(free_grids[i], dtype=float) for i in free_idx]

    def sampler(t, y):
        y = np.asarray(y, dtype=float).reshape(-1)
        mesh = np.meshgrid(*axes, indexing="ij") if axes else []
        count = mesh[0].size if mesh else 1
        out = np.zeros((count, n))
        for j, idx in enumerate(observed):
            out[:, idx] = y[j]
        for j, idx in enumerate(free_idx):
            out[:, idx] = mesh[j].reshape(-1)
        return out

    return sampler


def check_rofs_inf_sup(sys: SystemDef, cand: LyapunovCandidate,
                       fiber_sampler, u_candidates, ts, ys,
                       mode: str = "plain", d_values=None,
                       tol: float = 1e-9) -> ROFSReport:
    """Estimate inf_u sup over the measured-output fiber of V(t+1,f) - lam V.

    modes: "plain" ranges u over all candidates; "strong" first filters the
    candidates to those keeping the stabilized output at zero (norm at most
    ``ROFS_FILTER_TOL``) on the sampled zero-output part of the fiber;
    "zero" pins u = 0 and y = 0.  A finite u grid can only over-estimate the
    inf and a finite fiber sample can only under-estimate the sup, so
    results are labeled fiber-restricted estimates.
    """
    if mode not in ("plain", "strong", "zero"):
        raise ValueError(f"unknown mode {mode!r}")
    if sys.k < 1:
        raise ValueError("static output feedback needs an input channel (k >= 1)")
    cand.require("lam")
    _require_zero_at_origin(sys, cand)
    lam = cand.lam
    dvals = _d_values(sys, d_values)
    if mode == "zero":
        ys = [np.zeros(sys.p_y)]
        u_candidates = np.zeros((1, sys.k))
    u_candidates = np.asarray(u_candidates, dtype=float).reshape(-1, sys.k)

    entries = []
    for t in ts:
        for y in ys:
            y = np.asarray(y, dtype=float).reshape(-1)
            fiber = np.asarray(fiber_sampler(t, y), dtype=float).reshape(-1, sys.n)
            cands, note = u_candidates, ""
            if mode == "strong":
                zero_fiber = fiber[row_norms(sys.H_rows(t, fiber)) <= ROFS_FILTER_TOL]
                if zero_fiber.shape[0] == 0:
                    entries.append(ROFSEntry(int(t), y.tolist(), -math.inf, None,
                                             {}, 0, "zero-output fiber empty; skipped"))
                    continue
                out_sup, _ = sampled_sup(
                    sys, (("t", [t]), ("u", u_candidates), ("x", zero_fiber),
                          ("d", dvals)),
                    lambda F, idx: row_norms(sys.H_rows(t + 1, F)), keep=2)
                cands = u_candidates[out_sup[0] <= ROFS_FILTER_TOL]
                if cands.shape[0] == 0:
                    entries.append(ROFSEntry(
                        int(t), y.tolist(), math.inf, None, {}, 0,
                        "no admissible input found at tolerance"))
                    continue
            if fiber.shape[0] == 0:
                entries.append(ROFSEntry(int(t), y.tolist(), -math.inf, None,
                                         {}, 0, "fiber empty; skipped"))
                continue
            lam_V0 = lam * cand.V_rows(t, fiber)
            sups, args = sampled_sup(
                sys, (("t", [t]), ("u", cands), ("x", fiber), ("d", dvals)),
                lambda F, idx: cand.V_rows(t + 1, F) - lam_V0[idx["x"]], keep=2)
            sups, args = sups[0], args[0]
            j = int(np.argmin(sups))  # the first inf; NaN wins
            xi, di = divmod(int(args[j]), len(dvals))
            entries.append(ROFSEntry(int(t), y.tolist(), float(sups[j]),
                                     cands[j].tolist(),
                                     {"x": fiber[xi].tolist(), "d": dvals[di].tolist()},
                                     cands.shape[0], note))
    worst = WorstMargin("informative fiber entries")
    worst.add([e.inf_sup for e in entries if e.inf_sup != -math.inf], 0.0,
              lambda i: None)
    return ROFSReport(mode, entries, worst.margin, worst.verdict(tol), tol,
                      notes=["fiber-restricted estimate: finite u grid "
                             "over-estimates the inf, finite fiber "
                             "under-estimates the sup"])
