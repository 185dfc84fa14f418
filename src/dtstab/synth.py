"""Dead-beat output-feedback synthesis via delayed output/input windows.

A function k(t, x) of the state is reconstructible from a length-p window of
measured outputs and applied inputs when a reconstruction map Psi matches
k(t+p, F_p(t, x, d-window, u-window)) for every disturbance realization.  The
delay-chain controller stores the last p outputs and inputs in shift
registers and applies Psi; its control action coincides with the state
feedback after p steps regardless of the register initialization.  The
window length p is always Psi's.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .certify import CertificateReport
from .expr import Dims, Var, parse_expression
from .system import (FAIL, PASS, DisturbancePolicy, InputPolicy, SystemDef,
                     WorstMargin, as_feedback, require_samples, simulate)

__all__ = [
    "ChainResult", "iterate_maps",
    "ReconstructionMap", "check_reconstruction",
    "DelayChainController", "synthesize_delay_controller",
    "run_output_feedback", "CoincidenceReport", "build_extended_system",
]

SAMPLE_RADIUS = 5.0  # check_reconstruction draws states and inputs in [-5, 5]


@dataclass
class ChainResult:
    F: list          # F_1 .. F_p
    y_hist: list     # y_0 .. y_{p-1}
    y_p: np.ndarray

    @property
    def F_p(self):
        return self.F[-1]


def iterate_maps(sys: SystemDef, p: int, t: int, x, d_seq, u_seq) -> ChainResult:
    """F_0 = x, F_i = f(t+i-1, d_{i-1}, F_{i-1}, u_{i-1}) and y_i = h(t+i, F_i)
    over a window of length p: exactly p forward step calls."""
    if p < 1:
        raise ValueError("chain length p must be >= 1")
    d_seq = np.asarray(d_seq, dtype=float).reshape(p, sys.m)
    u_seq = np.asarray(u_seq, dtype=float).reshape(p, sys.k)
    if np.any(d_seq < sys.d_box[:, 0]) or np.any(d_seq > sys.d_box[:, 1]):
        raise ValueError("disturbance window leaves the declared box")
    state = np.asarray(x, dtype=float).reshape(sys.n)
    Fs, ys = [], [sys.h_eval(t, state)]
    for i in range(p):
        state = sys.f_eval(t + i, d_seq[i], state, u_seq[i])
        Fs.append(state)
        ys.append(sys.h_eval(t + i + 1, state))
    return ChainResult(F=Fs, y_hist=ys[:p], y_p=ys[p])


class ReconstructionMap:
    """Psi(t, y_p, y-window, u-window) -> input-space vector.

    Either a native callable ``psi(t, y_p, y_hist, u_hist)`` (vectors /
    sequences of vectors) or, for scalar measured output and scalar input, an
    expression over ``t``, ``y0..y<p>`` (``y<p>`` is the current output) and
    ``u0..u<p-1>``.
    """

    def __init__(self, psi, p: int, name: str = None):
        if p < 1:
            raise ValueError("p must be >= 1")
        self.p = p
        self.text = self.expr = None
        if callable(psi):
            self._psi = psi
            self.name = name or getattr(psi, "__name__", "psi")
        else:
            aux = frozenset({f"y{i}" for i in range(p + 1)}
                            | {f"u{i}" for i in range(p)})
            self.expr = parse_expression(psi, Dims(aux=aux))
            fn = self.expr.compiled()
            empty = np.zeros(0)

            def from_expr(t, y_p, y_hist, u_hist):
                env = {f"y{i}": float(np.asarray(y_hist[i]).reshape(-1)[0])
                       for i in range(p)}
                env[f"y{p}"] = float(np.asarray(y_p).reshape(-1)[0])
                env.update({f"u{i}": float(np.asarray(u_hist[i]).reshape(-1)[0])
                            for i in range(p)})
                return np.array([fn(float(t), empty, empty, empty, env)])

            self._psi = from_expr
            self.text = psi
            self.name = name or psi

    def __call__(self, t, y_p, y_hist, u_hist) -> np.ndarray:
        return np.asarray(self._psi(float(t), y_p, y_hist, u_hist),
                          dtype=float).reshape(-1)

    def rows(self, t, Y, U) -> np.ndarray:
        """Psi over N windows: ``t`` the N times, ``Y`` the (N, p+1, p_y)
        outputs y_0 .. y_p and ``U`` the (N, p, k) inputs, oldest first.
        Row i equals the call on window i bit for bit (NaN signs aside): an
        expression is one array call, a native map is called window by
        window in order."""
        t = np.asarray(t, dtype=float)
        p = self.p
        if self.expr is None:
            return np.array([self(ti, Yi[p], list(Yi[:p]), list(Ui))
                             for ti, Yi, Ui in zip(t.tolist(), Y, U)])
        aux = {f"y{i}": Y[:, i, 0] for i in range(p + 1)}
        aux.update({f"u{i}": U[:, i, 0] for i in range(p)})
        empty = np.zeros(0)
        out = np.empty((t.shape[0], 1))
        out[:, 0] = self.expr.batched()(t, empty, empty, empty, aux)  # or a float
        return out


def check_reconstruction(sys: SystemDef, k_fn, psi: ReconstructionMap,
                         n_samples: int = 1000, ts=range(0, 11),
                         seed: int = 0, tol: float = 0.0) -> CertificateReport:
    """Sampled check of k(t+p, F_p(...)) == Psi(t+p, y_p, y-window, u-window),
    p = psi.p, at the zero window of every t and then random windows up to
    n_samples in all, states and inputs uniform in [-SAMPLE_RADIUS,
    SAMPLE_RADIUS].  A pass is "no violation found at these samples".

    The p-step chains of all samples run as arrays (:meth:`SystemDef.f_rows`
    and ``h_rows`` at per-sample times), then the feedback k through its
    :meth:`InputPolicy.rows` and then Psi through :meth:`ReconstructionMap.rows`
    (expressions as arrays; a native policy or Psi sample by sample, in sample
    order).  Each value equals :func:`iterate_maps` and the pointwise calls
    bit for bit (NaN signs aside).  Calls run step by step across the
    samples, so of two samples that raise, the one whose failing step comes
    first raises."""
    p = psi.p
    target = as_feedback(k_fn, sys.n)
    rng = np.random.default_rng(seed)
    ts = list(ts)
    # deterministic zero-window spots first: they pin the normalization
    # k(t+p, 0) = Psi(t+p, 0, 0, 0)
    spots = [(int(t), np.zeros(sys.n), np.tile(sys.d_mid(), (p, 1)),
              np.zeros((p, sys.k))) for t in ts]
    for _ in range(max(n_samples - len(spots), 0)):
        t = int(ts[rng.integers(0, len(ts))])
        x = rng.uniform(-SAMPLE_RADIUS, SAMPLE_RADIUS, size=sys.n)
        d_seq = rng.uniform(sys.d_box[:, 0], sys.d_box[:, 1], size=(p, sys.m))
        u_seq = rng.uniform(-SAMPLE_RADIUS, SAMPLE_RADIUS, size=(p, sys.k))
        spots.append((t, x, d_seq, u_seq))
    require_samples(len(spots), "reconstruction samples")
    T = np.array([spot[0] for spot in spots])
    D = np.array([spot[2] for spot in spots])  # (N, p, m)
    U = np.array([spot[3] for spot in spots])  # (N, p, k)
    Y = np.empty((len(spots), p + 1, sys.p_y))  # y_0 .. y_p
    F = np.array([spot[1] for spot in spots])
    for i in range(p):
        Y[:, i] = sys.h_rows(T + i, F)
        F = sys.f_rows(T + i, F, D[:, i], U[:, i])
    Y[:, p] = sys.h_rows(T + p, F)
    lhs = target.rows(sys, T + p, F)
    rhs = psi.rows(T + p, Y, U)
    worst = WorstMargin("reconstruction samples")
    worst.add(_max_abs_rows(lhs - rhs), _max_abs_rows(rhs),
              lambda i: {"t": spots[i][0], "x": spots[i][1].tolist(),
                         "d_seq": spots[i][2].tolist(),
                         "u_seq": spots[i][3].tolist(),
                         "lhs": lhs[i].tolist(), "rhs": rhs[i].tolist()})
    return CertificateReport("reconstruction", worst.verdict(tol), worst.margin,
                             worst.witness, worst.samples, tol)


def _max_abs(v) -> float:
    """Largest |entry| (NaN wins); 0 for an empty input vector."""
    return float(np.max(np.abs(v))) if v.size else 0.0


def _max_abs_rows(A) -> np.ndarray:
    """:func:`_max_abs` of every row of a 2-D array."""
    return np.max(np.abs(A), axis=1) if A.shape[1] else np.zeros(A.shape[0])


@dataclass
class DelayChainController:
    """Shift-register dynamic feedback: state w holds the last p outputs and
    inputs; the applied input is Psi over the current output and the
    retracted, time-reversed window.  Slots a particular Psi never reads are
    still carried (fidelity to the register form over minimality).  The
    window length p is Psi's.
    """

    p_y: int
    k: int
    psi: ReconstructionMap
    retraction: Callable = None  # None = identity (full output-value set)
    w0: np.ndarray = None

    def __post_init__(self):
        if self.w0 is None:
            self.w0 = np.zeros(self.state_dim)
        self.w0 = np.asarray(self.w0, dtype=float).reshape(self.state_dim)

    @property
    def p(self):
        return self.psi.p

    @property
    def state_dim(self):
        return self.p * (self.p_y + self.k)

    def initial_state(self, w0=None) -> np.ndarray:
        if w0 is None:
            return self.w0.copy()
        w0 = np.asarray(w0, dtype=float).reshape(-1)
        if w0.size == 1 and self.state_dim > 1:
            return np.full(self.state_dim, w0[0])
        return w0.reshape(self.state_dim).copy()

    def _blocks(self, w):
        p, py, k = self.p, self.p_y, self.k
        ys = [w[i * py:(i + 1) * py] for i in range(p)]
        us = [w[p * py + i * k:p * py + (i + 1) * k] for i in range(p)]
        return ys, us

    def window(self, w):
        """Retracted, oldest-first (y-window, u-window) as Psi consumes them."""
        ys, us = self._blocks(w)
        a = self.retraction or (lambda y: y)
        y_hist = [np.asarray(a(ys[self.p - 1 - j]), dtype=float).reshape(-1)
                  for j in range(self.p)]
        u_hist = [us[self.p - 1 - j] for j in range(self.p)]
        return y_hist, u_hist

    def output(self, t, y, w) -> np.ndarray:
        y_hist, u_hist = self.window(w)
        return self.psi(t, np.asarray(y, dtype=float).reshape(-1), y_hist, u_hist)

    def advance(self, w, y, u) -> np.ndarray:
        """Pure shift/record: w_1 <- y, w_i <- w_{i-1}; same for the u block."""
        ys, us = self._blocks(w)
        ys = [np.asarray(y, dtype=float).reshape(-1)] + ys[:-1]
        us = [np.asarray(u, dtype=float).reshape(-1)] + us[:-1]
        return np.concatenate(ys + us)

    def descriptor(self):
        return f"delay-chain(p={self.p}, psi={self.psi.name})"

    def to_json(self):
        return {"p": self.p,
                "psi": self.psi.text if self.psi.text else self.psi.name,
                "retraction": "identity" if self.retraction is None else
                getattr(self.retraction, "__name__", "custom"),
                "w0": self.w0.tolist()}


def synthesize_delay_controller(psi: ReconstructionMap, retraction=None,
                                p_y: int = 1, k: int = 1,
                                w0=None) -> DelayChainController:
    """The delay-chain controller over Psi's window length p = psi.p."""
    ctrl = DelayChainController(p_y=p_y, k=k, psi=psi, retraction=retraction)
    if w0 is not None:
        ctrl.w0 = ctrl.initial_state(w0)
    return ctrl


@dataclass
class CoincidenceReport:
    p: int
    from_t: int
    history_exact: bool
    history_witness: dict
    coincidence_max_err: float
    coincidence_witness: dict
    tol: float
    verdict: str = ""
    notes: list = field(default_factory=list)

    @property
    def passed(self):
        return self.verdict != FAIL

    def to_json(self):
        return {"check": "output-feedback-coincidence", "verdict": self.verdict,
                "p": self.p, "coincident_from": self.from_t,
                "history_exact": self.history_exact,
                "history_witness": self.history_witness,
                "max_err": self.coincidence_max_err,
                "witness": self.coincidence_witness, "tol": self.tol,
                "notes": self.notes}


class _DelayChainInput(InputPolicy):
    """One run of a delay-chain controller as an input policy; records each
    register state it reads in ``rows``."""

    def __init__(self, ctrl: DelayChainController, w0):
        self.ctrl, self.w, self.rows = ctrl, w0, []

    def __call__(self, sys, t, x):
        self.rows.append(self.w)
        return self.ctrl.output(t, sys.h_eval(t, x), self.w)

    def advance(self, t, y, u):
        self.w = self.ctrl.advance(self.w, y, u)

    def descriptor(self):
        return self.ctrl.descriptor()


def run_output_feedback(sys: SystemDef, ctrl: DelayChainController, t0: int,
                        x0, w0=None, dpol: DisturbancePolicy = None,
                        horizon: int = 40, reference_k=None,
                        tol: float = 1e-12):
    """Closed loop of the plant with the delay-chain controller.

    Returns the :func:`simulate` trajectory (with register columns) and a
    report verifying the register history w_i(t) = y(t-i), w_{p+i}(t) =
    u(t-i) exactly for t >= t0 + p, and |u(t) - k(t, x(t))| <= tol*(1 + |k|)
    there when a reference state feedback is supplied.  Rows before t0 + p
    are the register-filling transient; any w0 is allowed, but a horizon
    below p leaves no row to check and raises ValueError.
    """
    p = ctrl.p
    require_samples(horizon + 1 - p, "rows after the register-filling transient")
    pol = _DelayChainInput(ctrl, ctrl.initial_state(w0))
    traj = simulate(sys, t0, x0, dpol, pol, horizon)
    traj.w = np.array(pol.rows)
    T, U, yv = traj.t, traj.u, traj.y

    hist_wit = None  # the first (row, slot) that differs from the history
    for i, j in itertools.product(range(p, len(traj)), range(1, p + 1)):
        ys, us = ctrl._blocks(traj.w[i])
        yslot, uslot = ys[j - 1], us[j - 1]
        if not (np.array_equal(yslot, yv[i - j])
                and np.array_equal(uslot, U[i - j])):
            hist_wit = {"t": int(T[i]), "slot": j,
                        "w_y": yslot.tolist(), "y": yv[i - j].tolist(),
                        "w_u": uslot.tolist(), "u": U[i - j].tolist()}
            break
    history_exact = hist_wit is None

    verdict = PASS
    err = WorstMargin("rows after the register-filling transient", floor=0.0)
    if reference_k is not None:
        ref = as_feedback(reference_k, sys.n)
        want = [ref(sys, t, x) for t, x in zip(T[p:], traj.x[p:])]
        errs = [_max_abs(u - k_ref) for u, k_ref in zip(U[p:], want)]
        err.add(errs, [_max_abs(k_ref) for k_ref in want],
                lambda i: {"t": int(T[p + i]), "u": U[p + i].tolist(),
                           "k_ref": want[i].tolist(), "err": errs[i]})
        verdict = err.verdict(tol)
    report = CoincidenceReport(
        p=p, from_t=t0 + p, history_exact=history_exact,
        history_witness=hist_wit, coincidence_max_err=err.margin,
        coincidence_witness=err.witness, tol=tol,
        verdict=verdict if history_exact else FAIL,
        notes=[f"rows [{t0}, {t0 + p}) are the register-filling transient"])
    return traj, report


def build_extended_system(sys: SystemDef, w_dim: int) -> SystemDef:
    """Append an integrator block: state (x, w), input (u, v), w(t+1) = v.

    The measured output stacks (h(t, x), w); the stabilized output stays
    H(t, x).  The x-component of solutions does not depend on v.  Each map
    that is an expression list in ``sys`` stays one (f gains the components
    ``u_{k+i}``, h the components ``x_{n+i}``); the others are closures.
    """
    if w_dim < 1:
        raise ValueError("w_dim must be >= 1")
    n, k = sys.n, sys.k
    ws = range(1, w_dim + 1)
    if sys.f_exprs is not None:
        f_ext = list(sys.f_exprs) + [Var(f"u{k + i}") for i in ws]
    else:
        def f_ext(t, d, s, uv):
            x, u, v = s[:n], uv[:k], uv[k:]
            return np.concatenate([sys.f_eval(t, d, x, u), v])

    if sys.H_exprs is not None:
        H_ext = list(sys.H_exprs)
    else:
        def H_ext(t, s):
            return sys.H_eval(t, s[:n])

    if sys.h_exprs is not None:
        h_ext = list(sys.h_exprs) + [Var(f"x{n + i}") for i in ws]
    else:
        def h_ext(t, s):
            return np.concatenate([sys.h_eval(t, s[:n]), s[n:]])

    return SystemDef(n=n + w_dim, m=sys.m, k=k + w_dim, d_box=sys.d_box,
                     f=f_ext, H=H_ext, h=h_ext,
                     name=f"{sys.name}|extended(w={w_dim})",
                     p_Y=sys.p_Y, p_y=sys.p_y + w_dim)
