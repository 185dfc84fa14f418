"""Comparison functions: classes K / K-infinity, positive time gains, KL envelopes.

A K function or a time gain is one expression AST, ``expr``: in the
auxiliary ``s`` for a K function, in ``t`` for a time gain.  Composites
bind a K function only through :meth:`KFn.at` (``s := arg``, ``t := 0``).
Each gain evaluates through one one-component
:class:`~dtstab.system.VectorMap`, a K function's ``at(t)``: its scalar call
and its ``values`` (one ``rows`` call) agree bit for bit at every point
(NaN signs aside), errors included.  The constructors below build the AST
of their formula and refuse a parameter that no literal spells (inf, NaN).

Class membership of K functions and time gains is validated numerically on
the fixed grids below (tolerance 0 at grid points, strict inequalities
checked as ``>`` with ties reported), not symbolically.  KL envelopes are
restricted to the parametric family ``C * s * exp(-c*t)`` and validated analytically in
(C, c).  At integer times they are evaluated by the exact geometric
recursion ``sigma(s, t+1) = exp(-c) * sigma(s, t)`` so that this identity
holds bitwise.  NaN is never passed over: a NaN value wins a
sampled tail supremum of a time gain, and a NaN output norm fails an
envelope fit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .expr import Bin, Dims, Expr, Neg, Num, Var, parse_expression, substitute
from .system import (CertificateReport, SampleConfig, VectorMap, WorstMargin,
                     _EMPTY, _sup_norm_f, d_candidates, require_samples,
                     row_norms, sphere_points)

__all__ = [
    "KFn", "TimeGain", "KLEnvelope", "identity", "linear", "power_fn",
    "kfn_from_expr", "constant", "geometric", "timegain_from_expr",
    "ClassReport", "validate_class", "decay_checks",
    "KLFit", "fit_kl_envelope", "check_domination",
    "sup_f_sampler",
]

INVERSE_CAP = 1e300  # KFn.inverse gives up once its bracket passes this
TAIL_HORIZON = 4096  # steps a non-geometric gain is sampled past tau or 0
S_GRID = np.logspace(-9.0, 9.0, 60)  # s of the strictly-increasing check
S_PROBES = np.logspace(9.0, 300.0, 40)  # s of the unboundedness probes
UNBOUNDED_TARGETS = (1.0, 1e3, 1e6, 1e9, 1e12)  # values a K-infinity map must pass
T_GRID = np.arange(101)  # t of the sign checks of a time gain
DECAY_EPS = (1e-1, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6)  # levels a decaying tail must reach
_S, _T = Var("s"), Var("t")


def _num(c) -> Expr:
    """The literal ``c`` as the parser builds it (a negative value is a
    negated literal); ValueError when no literal spells it (inf, NaN)."""
    c = float(c)
    if not math.isfinite(c):
        raise ValueError(f"gain parameter {c!r} is not finite")
    return Neg(Num(-c)) if math.copysign(1.0, c) < 0.0 else Num(c)


def _lit(node):
    """The value of a literal (a ``Num`` or a negated ``Num``), else None."""
    if isinstance(node, Neg) and isinstance(node.operand, Num):
        return -node.operand.value
    return node.value if isinstance(node, Num) else None


def _power(expr):
    """(a, p) when ``expr`` is ``s``, ``a*s`` or ``a*s^p`` with literals
    a, p > 0, the shapes :func:`identity`, :func:`linear` and
    :func:`power_fn` build; else None."""
    a, p = 1.0, 1.0
    if isinstance(expr, Bin) and expr.op == "*":
        a, expr = _lit(expr.left), expr.right
        if isinstance(expr, Bin) and expr.op == "^":
            expr, p = expr.left, _lit(expr.right)
    ok = a is not None and p is not None and a > 0.0 and p > 0.0
    return (a, p) if ok and expr == _S else None


def _geometric(expr):
    """(C, ratio) when ``expr`` is a literal C (ratio 1) or ``C * ratio^t``
    with literals C and ratio, the shapes :func:`constant` and
    :func:`geometric` build and the parser gives for their text; else None."""
    C, ratio = _lit(expr), 1.0
    if isinstance(expr, Bin) and expr.op == "*":
        pw = expr.right
        if isinstance(pw, Bin) and pw.op == "^" and pw.right == _T:
            C, ratio = _lit(expr.left), _lit(pw.left)
    return None if C is None or ratio is None else (C, ratio)


def _require_expr(gain):
    if not isinstance(gain.expr, Expr):
        raise ValueError(f"{type(gain).__name__} {gain.name!r}: "
                         f"{type(gain.expr).__name__} is not an expression")


@dataclass
class KFn:
    """A claimed class-K (or K-infinity) scalar map s -> expr(s), ``expr``
    an AST in the auxiliary ``s`` (``t`` reads 0)."""

    expr: Expr
    name: str = "kfn"
    tag: str = "K"  # "K" or "Kinf"

    def __post_init__(self):
        if self.tag not in ("K", "Kinf"):
            raise ValueError("tag must be 'K' or 'Kinf'")
        _require_expr(self)
        self._map = VectorMap([self.at(_T)], self.name)  # s read as t alone

    def at(self, arg: Expr) -> Expr:
        """The AST of the map at ``arg``: ``s := arg`` and ``t := 0``, the
        one binding of a K function's expression."""
        return substitute(self.expr, {"s": arg, "t": Num(0.0)})

    def __call__(self, s: float) -> float:
        return self._map.scalar(float(s), _EMPTY)

    def inverse(self, v: float) -> float:
        """The map's inverse at v: NaN at NaN and 0 at v <= 0; else the
        closed form ``(v / a)^(1/p)`` when the map is ``s``, ``a*s`` or
        ``a*s^p`` with literals a, p > 0, however spelled; else bisection
        (the map increasing)."""
        v = float(v)
        if math.isnan(v):
            return math.nan
        if v <= 0.0:
            return 0.0
        closed = _power(self.expr)
        if closed is not None:
            a, p = closed
            return v / a if p == 1.0 else math.pow(v / a, 1.0 / p)
        hi = 1.0
        while self(hi) < v:
            hi *= 2.0
            if hi > INVERSE_CAP:
                raise ValueError(f"{self.name}: value {v} outside attainable range")
        lo = 0.0
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if self(mid) < v:
                lo = mid
            else:
                hi = mid
        return hi

    def values(self, s: np.ndarray) -> np.ndarray:
        """The map at every element of the float array ``s``: one
        :meth:`VectorMap.rows` call, equal bit for bit to the scalar calls
        (NaN signs aside); of several failing elements, the first in C order
        raises."""
        return self._map.rows(s, _EMPTY)[..., 0]


def identity() -> KFn:
    return KFn(_S, "s", "Kinf")


def linear(a: float, name: str = None) -> KFn:
    if a <= 0:
        raise ValueError("linear gain must be positive")
    return KFn(Bin("*", _num(a), _S), name or f"{a!r}*s", "Kinf")


def power_fn(p: float, a: float = 1.0) -> KFn:
    if p <= 0 or a <= 0:
        raise ValueError("power and gain must be positive")
    return KFn(Bin("*", _num(a), Bin("^", _S, _num(p))), f"{a!r}*s^{p!r}",
               "Kinf")


def kfn_from_expr(text: str, tag: str = "K") -> KFn:
    """A K function from text in ``s``; ``t`` in the text reads 0."""
    node = substitute(parse_expression(text, Dims(aux=frozenset({"s"}))),
                      {"t": Num(0.0)})
    return KFn(node, text, tag)


@dataclass
class TimeGain:
    """t -> expr(t): a positive gain (class K+, :func:`validate_class`) or a
    decaying offset q (:func:`decay_checks`), ``expr`` an AST in ``t``.

    A literal C or ``C * ratio^t`` with literals C and ratio, however built
    or spelled, has an analytic decay check, and analytic tail suprema when
    ratio >= 0; any other expression is sampled on a long grid.
    """

    expr: Expr
    name: str = "gain"

    def __post_init__(self):
        _require_expr(self)
        self._map = VectorMap([self.expr], self.name)

    def __call__(self, t: float) -> float:
        return self._map.scalar(float(t), _EMPTY)

    def sup_tail(self, tau: int) -> float:
        """sup over t >= tau of the gain: exact for a literal or ``C * r^t``
        with r >= 0, else the max over t = tau..tau + TAIL_HORIZON (a NaN
        value wins).

        Of ``C * r^t``: the zero gain (C = 0) and a negative gain rising
        toward 0 (C < 0, r < 1) have supremum 0; a gain that does not rise
        (C > 0 with r <= 1, or C < 0 with r >= 1) has q(tau); C > 0 with
        r > 1 grows without bound.
        """
        geo = _geometric(self.expr)
        if geo is not None and geo[1] >= 0.0:
            C, ratio = geo
            if C == 0.0 or (C < 0.0 and ratio < 1.0):
                return 0.0
            return self(tau) if ratio <= 1.0 or C < 0.0 else math.inf
        ts = np.arange(tau, tau + TAIL_HORIZON + 1, dtype=float)
        return float(np.max(self.values(ts)))  # max propagates NaN

    def values(self, t: np.ndarray) -> np.ndarray:
        """The gain at every element of the float array ``t``, as
        :meth:`KFn.values` takes it."""
        return self._map.rows(t, _EMPTY)[..., 0]


def constant(c: float, name: str = None) -> TimeGain:
    return TimeGain(_num(c), name or repr(float(c)))


def geometric(C: float, ratio: float, name: str = None) -> TimeGain:
    return TimeGain(Bin("*", _num(C), Bin("^", _num(ratio), Var("t"))),
                    name or f"{C!r}*{ratio!r}^t")


def timegain_from_expr(text: str) -> TimeGain:
    return TimeGain(parse_expression(text, Dims()), text)


@dataclass
class KLEnvelope:
    """sigma(s, t) = C * s * exp(-c t) with an associated time gain beta.

    Integer times are evaluated by the exact per-step recursion (decay factor
    ``exp(-c)``), so ``sigma(s, t+1) == exp(-c) * sigma(s, t)`` bitwise and
    ``sigma(0, t) == 0``.  Every envelope is of this parametric form: the
    batched IOS bound steps its running sup by that decay factor.
    """

    C: float
    c: float
    beta: TimeGain = field(default_factory=lambda: constant(1.0))
    name: str = ""

    def __post_init__(self):
        self.g = math.exp(-self.c)
        if not self.name:
            self.name = f"{self.C!r}*s*exp(-{self.c!r}*t)"

    def __call__(self, s: float, t: float) -> float:
        if t >= 0 and float(t).is_integer():
            v = self.C * float(s)
            for _ in range(int(t)):
                v = v * self.g
            return v
        return self.C * float(s) * math.exp(-self.c * float(t))

    def decay_series(self, s, length: int) -> np.ndarray:
        """[sigma(s,0), sigma(s,1), ...] by the exact recursion, length terms.

        A 1-D array ``s`` gives one row of terms per entry, the recursion
        stepping all rows at once, each equal to its float's series.
        """
        rows = np.ndim(s) == 1
        out = np.empty((len(s), length) if rows else length)
        if length == 0:
            return out
        with np.errstate(over="ignore", invalid="ignore"):  # as Python floats
            v = self.C * (np.asarray(s, dtype=float) if rows else float(s))
            out[..., 0] = v
            for i in range(1, length):
                v = v * self.g
                out[..., i] = v
        return out

    def row_bounds(self, batch, beta: TimeGain = None) -> np.ndarray:
        """sigma(beta(t0)||x0||, t - t0) at every row of a batch of
        trajectories, concatenated in trajectory order; ``beta`` defaults to
        the envelope's.  One :meth:`decay_series` call steps all
        trajectories at once, each row equal to the scalar call."""
        scale = _initial_scales(batch, beta or self.beta)
        lengths = [len(traj) for traj in batch]
        return self.decay_series(scale, max(lengths))[_ragged(lengths)]


def _initial_scales(batch, beta):
    """beta(t0) * ||x0|| of every trajectory of a batch, each equal to the
    scalar product (:meth:`TimeGain.values`, :func:`row_norms`)."""
    t0s = np.array([float(traj.t0) for traj in batch])
    x0s = np.array([traj.x0 for traj in batch])
    with np.errstate(over="ignore", invalid="ignore"):  # as Python floats
        return beta.values(t0s) * row_norms(x0s)


def _ragged(lengths):
    """Mask of the first ``lengths[j]`` entries of row j of a (B, max) table:
    the table's masked entries are the rows of a batch, concatenated."""
    return np.arange(max(lengths)) < np.array(lengths)[:, None]


# --- class validation ---

@dataclass
class ClassCheck:
    axiom: str
    passed: bool
    witness: dict = None


@dataclass
class ClassReport:
    subject: str
    tag: str
    checks: list

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def failures(self):
        return [c for c in self.checks if not c.passed]

    def to_json(self):
        return {
            "subject": self.subject,
            "tag": self.tag,
            "passed": self.passed,
            "checks": [{"axiom": c.axiom, "passed": c.passed,
                        "witness": c.witness} for c in self.checks],
        }


def _check_strictly_increasing(fn) -> ClassCheck:
    prev_s, prev_v = 0.0, fn(0.0)
    for s in S_GRID:
        v = fn(float(s))
        if not v > prev_v:
            return ClassCheck("strictly_increasing", False,
                              {"s1": prev_s, "s2": float(s), "v1": prev_v,
                               "v2": v, "tie": v == prev_v})
        prev_s, prev_v = float(s), v
    return ClassCheck("strictly_increasing", True)


def _check_unbounded(fn) -> ClassCheck:
    for target in UNBOUNDED_TARGETS:
        if not any(fn(float(s)) > target for s in S_PROBES):
            return ClassCheck("unbounded", False,
                              {"target": target, "s_max": float(S_PROBES[-1]),
                               "value": fn(float(S_PROBES[-1]))})
    return ClassCheck("unbounded", True)


def _geometric_decay(C, ratio) -> ClassCheck:
    """C * ratio^t decays to zero, decided analytically in (C, ratio); C = 0
    is the zero gain, which decays whatever the ratio."""
    ok = C == 0.0 or (C > 0.0 and 0.0 <= ratio < 1.0)
    return ClassCheck("decays_to_zero", ok,
                      None if ok else {"C": C, "ratio": ratio,
                                       "note": "analytic (geometric form)"})


def _check_decay(gain: TimeGain) -> ClassCheck:
    geo = _geometric(gain.expr)
    if geo is not None:
        return _geometric_decay(*geo)
    vals = gain.values(np.arange(0, TAIL_HORIZON + 1, dtype=float))
    suffix = np.maximum.accumulate(vals[::-1])[::-1]
    for eps in DECAY_EPS:
        if not np.any(suffix <= eps):
            return ClassCheck("decays_to_zero", False,
                              {"eps": eps, "tail_min": float(suffix.min()),
                               "horizon": TAIL_HORIZON,
                               "note": "grid estimate"})
    return ClassCheck("decays_to_zero", True)


def _check_t_grid(gain: TimeGain, axiom: str, bad) -> ClassCheck:
    """``axiom`` over T_GRID in one :meth:`TimeGain.values` call: it fails
    at the first t whose value ``bad`` marks, the witness ``{"t", "value"}``."""
    vals = gain.values(T_GRID.astype(float))
    hits = np.flatnonzero(bad(vals))
    if not hits.size:
        return ClassCheck(axiom, True)
    i = hits[0]
    return ClassCheck(axiom, False, {"t": int(T_GRID[i]), "value": float(vals[i])})


def decay_checks(gain: TimeGain) -> ClassReport:
    """The rule for a decaying gain q (tag ``decaying``): q(t) >= 0 on
    T_GRID (``non_negative``) and q decays to zero (``decays_to_zero``,
    analytic for a geometric form)."""
    return ClassReport(gain.name, "decaying",
                       [_check_t_grid(gain, "non_negative", lambda v: v < 0.0),
                        _check_decay(gain)])


def validate_class(obj) -> ClassReport:
    """Membership check for KFn / TimeGain / KLEnvelope.

    Pass/fail per axiom with a witness on every failure.  A time gain is
    checked as K+ (``positive``); a decaying q has its own rule,
    :func:`decay_checks`.  K functions and time gains are checked on the
    module's fixed grids.  A KL envelope is checked analytically in its
    parameters, with the witness ``{"C", "c"}``.
    """
    checks = []
    if isinstance(obj, KFn):
        v0 = obj(0.0)
        checks.append(ClassCheck("zero_at_zero", v0 == 0.0,
                                 None if v0 == 0.0 else {"value": v0}))
        checks.append(_check_strictly_increasing(obj))
        if obj.tag == "Kinf":
            checks.append(_check_unbounded(obj))
        return ClassReport(obj.name, obj.tag, checks)
    if isinstance(obj, TimeGain):
        # NaN is not positive
        checks.append(_check_t_grid(obj, "positive", lambda v: ~(v > 0.0)))
        return ClassReport(obj.name, "K+", checks)
    if isinstance(obj, KLEnvelope):
        # C * s * exp(-c t) in (C, c): a grid scan sees ties where the float
        # products underflow
        for axiom, ok in (("class_K_in_s",
                           0.0 < obj.C < math.inf and math.isfinite(obj.c)),
                          ("non_increasing_in_t", obj.c >= 0.0)):
            checks.append(ClassCheck(axiom, ok,
                                     None if ok else {"C": obj.C, "c": obj.c}))
        chk = _geometric_decay(obj.C, obj.g)  # sigma(1, t) = C * exp(-c)^t
        checks.append(ClassCheck("decays_to_zero_in_t", chk.passed, chk.witness))
        return ClassReport(obj.name, "KL", checks)
    raise TypeError(f"cannot validate {type(obj).__name__}")


# --- KL envelope fitting ---

@dataclass
class KLFit:
    envelope: KLEnvelope
    max_slack: float
    witness: dict
    degenerate: bool
    failed: bool
    n_points: int
    notes: list

    C = property(lambda self: self.envelope.C)  # read off the envelope
    c = property(lambda self: self.envelope.c)

    @property
    def ok(self):
        return not (self.degenerate or self.failed)

    def to_json(self):
        return {"C": self.C, "c": self.c, "beta": self.envelope.beta.name,
                "max_slack": self.max_slack, "witness": self.witness,
                "degenerate": self.degenerate, "failed": self.failed,
                "n_points": self.n_points, "notes": self.notes}


def fit_kl_envelope(batch: Sequence, beta: TimeGain = None) -> KLFit:
    """Fit C, c of a decaying envelope to the stabilized-output norms ||Y||.

    Least squares on log(norm / scale) against t - t0 over rows with positive
    norm, with scale = beta(t0) * ||x0||; C is then inflated so the envelope
    dominates every observed point (point-by-point assertable, slack >= 0).
    A NaN norm fails the fit: no envelope dominates it.  Rows are arrays over
    the batch and both envelope passes are :meth:`KLEnvelope.row_bounds`.
    A trajectory with no rows adds none (it has no x0 to scale by); notes
    and the witness name a trajectory by its index in ``batch``, and a batch
    without rows is refused.
    """
    kept = [j for j, traj in enumerate(batch) if len(traj)]
    require_samples(len(kept), "trajectory rows")
    batch = [batch[j] for j in kept]
    beta = beta or constant(1.0)
    lengths = [len(traj) for traj in batch]
    scale = np.repeat(_initial_scales(batch, beta), lengths)
    owner = np.repeat(kept, lengths)
    dt = np.concatenate([traj.t - traj.t0 for traj in batch]).astype(np.int64)
    norms = row_norms(np.concatenate([traj.Y for traj in batch]))
    nan_rows = np.flatnonzero(np.isnan(norms))[:1]
    failed = nan_rows.size > 0
    notes = [f"NaN output norm at trajectory {owner[i]}, t - t0 = {dt[i]}"
             for i in nan_rows]

    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        fit = (norms > 0.0) & (scale > 0.0)
        if not fit.any():
            notes.append("all-zero batch: degenerate zero envelope")
            return KLFit(KLEnvelope(0.0, 1.0, beta=beta), 0.0, None, True,
                         failed, 0, notes)
        dts = dt[fit].astype(float)
        # math.log point by point: np.log differs from it at some points
        logs = np.array([math.log(r) for r in (norms[fit] / scale[fit]).tolist()])
        if np.ptp(dts) == 0.0:
            slope, intercept = 0.0, float(np.max(logs))
            notes.append("single time offset: no decay rate identifiable")
        else:
            slope, intercept = np.polyfit(dts, logs, 1)
        c = -float(slope)
        if not c > 0.0:
            failed = True
            notes.append(f"non-decaying data: fitted c = {c!r} <= 0")

        # inflate C so the envelope's own evaluation dominates each observed
        # row; a NaN norm counts as a point but never wins the ratio
        counted = ~(norms <= 0.0)
        zero_scale = int(np.sum(counted & (scale <= 0.0)))
        notes += ["row with zero initial scale but nonzero output"] * zero_scale
        failed = failed or zero_scale > 0
        base = KLEnvelope(1.0, c, beta=beta).row_bounds(batch)
        ratios = norms / base
        ratio_max = float(np.max(ratios, initial=0.0,
                                 where=(base > 0.0) & (ratios == ratios)))
        C = max(math.exp(intercept), ratio_max) * (1.0 + 1e-12)
        env = KLEnvelope(C, c, beta=beta)

        bound = env.row_bounds(batch)
        slack = bound - norms
        max_slack = float(np.max(slack, initial=0.0, where=slack > 0.0))
        rows = np.flatnonzero((norms > 0.0) & (slack < math.inf))
    witness = None
    if rows.size:  # the first least slack
        i = rows[np.argmin(slack[rows])]
        witness = {"trajectory": int(owner[i]), "dt": int(dt[i]),
                   "norm": float(norms[i]), "bound": float(bound[i]),
                   "slack": float(slack[i])}
    return KLFit(env, max_slack, witness, False, failed, int(counted.sum()), notes)


# --- domination checks (growth hypotheses) ---

def check_domination(sampler: Callable[[float, float], float], zeta: KFn,
                     beta: TimeGain, Ts: Sequence[int] = (0, 1, 2, 5, 10, 20),
                     ss: np.ndarray = None, tol: float = 1e-9) -> CertificateReport:
    """Check a(T, s) <= zeta(beta(T) * s) on a (T, s) grid, witness on failure.

    The witness is the first worst margin; a NaN margin wins and fails.
    """
    if ss is None:
        ss = np.logspace(-6, 6, 25)
    ss = np.array(ss, dtype=float)
    worst = WorstMargin("(T, s) samples")
    for T in Ts:
        bT = beta(T)
        lhs = np.array([sampler(T, s) for s in ss.tolist()], dtype=float)
        with np.errstate(over="ignore", invalid="ignore"):  # as Python floats
            rhs = zeta.values(bT * ss)
        worst.add(lhs - rhs, rhs, lambda i: {
            "T": int(T), "s": float(ss[i]), "lhs": float(lhs[i]),
            "rhs": float(rhs[i])})
    return worst.report("domination", tol)


def sup_f_sampler(sys, cfg: SampleConfig = None, seed: int = 0):
    """Sampled a(T, s) = sup ||f(t,d,x,u)|| over t<=T, d in D, ||x||<=s (||u||<=s).

    A finite under-approximation of the true sup, suitable as the lhs of
    :func:`check_domination`.  A NaN norm makes the sample NaN.

    The sample set of a time slice (t, s) is fixed for the sampler: the d
    candidates are drawn once, and the x and u points on the sphere of
    radius s come from the constant seeds 0 and 1.  So the sampler keeps
    each s's sample product and each slice's sup, keyed by (t, s) with all
    NaN radii under one key, and evaluates a slice once however many (T, s)
    calls scan it; each call replays the first-maximum scan over t from the
    kept slices.
    """
    cfg = cfg or SampleConfig(d_grid=9, d_random=16, x_directions=8,
                              x_scales=(1.0, 0.5), u_directions=4)
    rng = np.random.default_rng(seed)
    dcands = d_candidates(sys.d_box, grid=cfg.d_grid, random=cfg.d_random, rng=rng)
    kept = {}  # key -> (sample product, {t: (sup, flat index)}), this sampler's

    def sampler(T, s):
        s = float(s)
        key = s if s == s else None  # NaN equals nothing: one key for all NaNs
        if key not in kept:
            xs = sphere_points(sys.n, s, cfg.x_directions, cfg.x_scales, rng=0)
            if sys.k > 0:
                us = np.vstack([np.zeros((1, sys.k)),
                                sphere_points(sys.k, s, cfg.u_directions, rng=1)])
            else:
                us = np.zeros((1, 0))
            kept[key] = ((("d", dcands), ("x", xs), ("u", us)), {})
        sets, slices = kept[key]
        return _sup_norm_f(sys, int(T), cfg.t_cap, sets, memo=slices)[0]

    return sampler
