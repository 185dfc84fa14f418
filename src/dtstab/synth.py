"""Dead-beat output-feedback synthesis via delayed output/input windows.

A function k(t, x) of the state is reconstructible from a length-p window of
measured outputs and applied inputs when a reconstruction map Psi matches
k(t+p, F_p(t, x, d-window, u-window)) for every disturbance realization.  The
delay-chain controller stores the last p outputs and inputs in shift
registers and applies Psi; its control action coincides with the state
feedback after p steps regardless of the register initialization.  The
window length p is always Psi's.

A feedback, static or the controller's, is an expression list like f, H
and h, never an input policy.  The closed loop is a substitution, like
every composite: the plant with the registers appended as integrator states
(:func:`build_extended_system`), closed by one static expression feedback
of (x, w) in which Psi reads the current output and the register slots, and
the register input is the shifted register
(:meth:`DelayChainController.feedback`).  The result is one unforced system
over (x, w) (:meth:`DelayChainController.closed_loop`) that
:func:`simulate`, the searches and the checks take as it is.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
import numpy as np

from .certify import CertificateReport
from .comparison import _gain_values
from .expr import Dims, Var, parse_expression, substitute
from .system import (FAIL, PASS, DisturbancePolicy, SystemDef,
                     Trajectory, VectorMap, WorstMargin, _FieldsJSON,
                     closed_loop, require_samples, simulate)

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
    """Psi(t, y_p, y-window, u-window) -> a one-component input: expression
    text over ``t``, ``y0..y<p>`` (the first measured output, ``y<p>`` the
    current one) and ``u0..u<p-1>`` (the one input), windows oldest first.
    Anything but text is refused with ValueError.
    """

    def __init__(self, psi, p: int, name: str = None):
        if p < 1:
            raise ValueError("p must be >= 1")
        if not isinstance(psi, str):
            raise ValueError(f"Psi ({type(psi).__name__}) is not an "
                             f"expression string")
        self.p = p
        aux = frozenset({f"y{i}" for i in range(p + 1)}
                        | {f"u{i}" for i in range(p)})
        self.expr = parse_expression(psi, Dims(aux=aux))
        self.text = psi
        self.name = name or psi

    def rows(self, t, Y, U) -> np.ndarray:
        """Psi over N windows: ``t`` the N times, ``Y`` the (N, p+1, p_y)
        outputs y_0 .. y_p and ``U`` the (N, p, k) inputs, oldest first, in
        one array call, as :func:`~dtstab.comparison._gain_values` takes it:
        row i equals Psi's compiled evaluator on window i bit for bit (NaN
        signs aside), errors included."""
        t = np.asarray(t, dtype=float)
        p = self.p
        aux = {f"y{i}": Y[:, i, 0] for i in range(p + 1)}
        aux.update({f"u{i}": U[:, i, 0] for i in range(p)})
        return _gain_values(self.expr, t, t, aux)[:, None]


def check_reconstruction(sys: SystemDef, k_fn, psi: ReconstructionMap,
                         n_samples: int = 1000, ts=range(0, 11),
                         seed: int = 0, tol: float = 0.0) -> CertificateReport:
    """Sampled check of k(t+p, F_p(...)) == Psi(t+p, y_p, y-window, u-window),
    p = psi.p, at the zero window of every t and then random windows up to
    n_samples in all, states and inputs uniform in [-SAMPLE_RADIUS,
    SAMPLE_RADIUS].  A pass is "no violation found at these samples".

    The p-step chains of all samples run as arrays (:meth:`SystemDef.f_rows`
    and ``h_rows`` at per-sample times), then the feedback k (an expression
    list over x1..xn of Psi's one component, else ValueError) through
    :meth:`VectorMap.rows` and then Psi through
    :meth:`ReconstructionMap.rows`.  Each value equals :func:`iterate_maps`
    and the pointwise calls bit for bit (NaN signs aside).  Calls run step
    by step across the samples, so of two samples that raise, the one whose
    failing step comes first raises."""
    p = psi.p
    target = VectorMap(k_fn, "k", 1, n=sys.n)
    rng = np.random.default_rng(seed)
    ts = list(ts)
    # deterministic zero-window spots first: they pin the normalization
    # k(t+p, 0) = Psi(t+p, 0, 0, 0)
    spots = [(int(t), np.zeros(sys.n), np.tile(sys.d_mid(), (p, 1)),
              np.zeros((p, sys.k))) for t in ts]
    spots += _random_spots(sys, p, ts, n_samples - len(spots), rng)
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
    lhs = target.rows(T + p, F)
    rhs = psi.rows(T + p, Y, U)
    worst = WorstMargin("reconstruction samples")
    worst.add(_max_abs_rows(lhs - rhs), _max_abs_rows(rhs),
              lambda i: {"t": spots[i][0], "x": spots[i][1].tolist(),
                         "d_seq": spots[i][2].tolist(),
                         "u_seq": spots[i][3].tolist(),
                         "lhs": lhs[i].tolist(), "rhs": rhs[i].tolist()})
    return CertificateReport("reconstruction", worst.verdict(tol), worst.margin,
                             worst.witness, worst.samples, tol)


def _random_spots(sys, p, ts, count, rng):
    """``count`` random (t, x, d window, u window) samples.  Each draws its
    t by ``rng.integers`` and its x, d and u from one ``rng.random`` call,
    scaled as ``lo + (hi - lo) * r``: the doubles, and the generator state
    after them, that ``rng.uniform`` gives for x, d and u in turn."""
    n, m, k = sys.n, sys.m, sys.k
    lo = np.concatenate([np.full(n, -SAMPLE_RADIUS), np.tile(sys.d_box[:, 0], p),
                         np.full(p * k, -SAMPLE_RADIUS)])
    hi = np.concatenate([np.full(n, SAMPLE_RADIUS), np.tile(sys.d_box[:, 1], p),
                         np.full(p * k, SAMPLE_RADIUS)])
    span = hi - lo
    spots = []
    for _ in range(max(count, 0)):
        t = int(ts[rng.integers(0, len(ts))])
        r = lo + span * rng.random(lo.shape[0])
        spots.append((t, r[:n], r[n:n + p * m].reshape(p, m),
                      r[n + p * m:].reshape(p, k)))
    return spots


def _max_abs_rows(A) -> np.ndarray:
    """Largest |entry| of every row of a 2-D array (NaN wins; 0 for a row
    without entries)."""
    return np.max(np.abs(A), axis=1) if A.shape[1] else np.zeros(A.shape[0])


@dataclass
class DelayChainController:
    """Shift-register dynamic feedback for a plant with one input: its state
    w holds the last p measured outputs and the last p inputs, and the
    applied input is Psi over the current output and that window.  Slots a
    particular Psi never reads are still carried (fidelity to the register
    form over minimality).  The window length p is Psi's.

    The layout of w: the output slots w_1 .. w_p (``p_y`` entries each,
    w_i = y(t-i)) and then the input slots w_{p+1} .. w_{2p} (w_{p+i} =
    u(t-i)).  :meth:`feedback` builds it, and :func:`run_output_feedback`
    reads it back.
    """

    p_y: int
    psi: ReconstructionMap

    @property
    def p(self):
        return self.psi.p

    @property
    def state_dim(self):
        return self.p * (self.p_y + 1)

    def initial_state(self, w0=None) -> np.ndarray:
        """The register at the start: zero unless ``w0`` is given (one value
        fills every slot)."""
        if w0 is None:
            return np.zeros(self.state_dim)
        w0 = np.asarray(w0, dtype=float).reshape(-1)
        if w0.size == 1 and self.state_dim > 1:
            return np.full(self.state_dim, w0[0])
        return w0.reshape(self.state_dim).copy()

    def feedback(self, sys: SystemDef) -> list:
        """The controller as one static feedback of
        ``build_extended_system(sys, state_dim)`` over its state (x, w): a
        list of ASTs.

        Its first component is u: Psi with ``y<p> := h_1(t, x)``, and
        ``y<j>`` and ``u<j>`` bound to the first entry of output slot p-j and
        to input slot p-j (oldest first).  The rest is the register input v,
        the shifted register: h(t, x), output slots 1 .. p-1, u and input
        slots 1 .. p-1.  A plant without exactly one input, or whose
        measured output is not ``p_y`` wide, is refused with ValueError.
        """
        if sys.k != 1:
            raise ValueError(f"the delay-chain controller drives one input; "
                             f"the plant has k={sys.k}")
        if sys.p_y != self.p_y:
            raise ValueError(f"the controller stores p_y={self.p_y} outputs a "
                             f"slot; the plant measures p_y={sys.p_y}")
        p, py, n = self.p, self.p_y, sys.n
        ys = [Var(f"x{n + i}") for i in range(1, p * py + 1)]  # slot-major
        us = [Var(f"x{n + p * py + i}") for i in range(1, p + 1)]
        bindings = {f"y{p}": sys.h_exprs[0]}
        for j in range(p):
            bindings[f"y{j}"], bindings[f"u{j}"] = ys[(p - 1 - j) * py], us[p - 1 - j]
        u = substitute(self.psi.expr, bindings)
        v = [*sys.h_exprs, *ys[:(p - 1) * py], u, *us[:p - 1]]
        return [u, *v]

    def closed_loop(self, sys: SystemDef) -> SystemDef:
        """The plant under the controller: the unforced system over (x, w)
        that :func:`closed_loop` makes of the extended plant and
        :meth:`feedback`."""
        return closed_loop(build_extended_system(sys, self.state_dim),
                           self.feedback(sys))

    def descriptor(self):
        return f"delay-chain(p={self.p}, psi={self.psi.name})"

    def to_json(self):
        return {"p": self.p, "psi": self.psi.text,
                "w0": self.initial_state().tolist()}


def synthesize_delay_controller(psi: ReconstructionMap,
                                p_y: int = 1) -> DelayChainController:
    """The delay-chain controller over Psi's window length p = psi.p."""
    return DelayChainController(p_y=p_y, psi=psi)


@dataclass
class CoincidenceReport(_FieldsJSON):
    """Verdict of a delay-chain run: whether the register held the exact
    output and input history from ``coincident_from`` on, and the worst
    |u - k| against a reference feedback there, with its witness."""

    check: str
    verdict: str
    p: int
    coincident_from: int
    history_exact: bool
    history_witness: dict
    max_err: float
    witness: dict
    tol: float
    notes: list = field(default_factory=list)

    @property
    def passed(self):
        return self.verdict != FAIL


def run_output_feedback(sys: SystemDef, ctrl: DelayChainController, t0: int,
                        x0, w0=None, dpol: DisturbancePolicy = None,
                        horizon: int = 40, reference_k=None,
                        tol: float = 1e-12):
    """Closed loop of the plant with the delay-chain controller: the
    :func:`simulate` run of :meth:`DelayChainController.closed_loop` from
    (x0, w0), with no input policy, cut back to the plant (x, its measured
    output y, and the register as ``w``).  The applied input u is one
    :meth:`VectorMap.rows` call over the run: the loop's component that
    fills the newest input slot is u's AST itself.

    Returns that trajectory and a report verifying the register history
    w_i(t) = y(t-i), w_{p+i}(t) = u(t-i) exactly for t >= t0 + p, and |u(t) -
    k(t, x(t))| <= tol*(1 + |k|) there when a reference state feedback is
    supplied (an expression list over x1..xn of one component, else
    ValueError).  Rows before t0 + p are the register-filling transient; any
    w0 is allowed, but a horizon below p leaves no row to check and raises
    ValueError, as does a plant without exactly one input.
    """
    p, n, py = ctrl.p, sys.n, sys.p_y
    loop = ctrl.closed_loop(sys)
    require_samples(horizon + 1 - p, "rows after the register-filling transient")
    k_ref = None if reference_k is None else VectorMap(reference_k, "k", 1, n=n)
    s0 = np.concatenate([np.asarray(x0, dtype=float).reshape(n),
                         ctrl.initial_state(w0)])
    run = simulate(loop, t0, s0, dpol, horizon=horizon,
                   meta={"u_policy": ctrl.descriptor()})
    slot = n + p * py  # w_{p+1}(t+1) = u(t)
    u = VectorMap(loop.f_exprs[slot:slot + 1], "u", n=loop.n).rows(run.t, run.x)
    traj = Trajectory(t0=t0, t=run.t, x=run.x[:, :n], d=run.d, u=u,
                      Y=run.Y, y=run.y[:, :py], w=run.x[:, n:], meta=run.meta)
    T, U, yv, W = traj.t, traj.u, traj.y, traj.w

    hist_wit = None  # the first (row, slot) that differs from the history
    for i, j in itertools.product(range(p, len(traj)), range(1, p + 1)):
        yslot, uslot = W[i, (j - 1) * py:j * py], W[i, p * py + j - 1:p * py + j]
        if not (np.array_equal(yslot, yv[i - j])
                and np.array_equal(uslot, U[i - j])):
            hist_wit = {"t": int(T[i]), "slot": j,
                        "w_y": yslot.tolist(), "y": yv[i - j].tolist(),
                        "w_u": uslot.tolist(), "u": U[i - j].tolist()}
            break
    history_exact = hist_wit is None

    verdict = PASS
    err = WorstMargin("rows after the register-filling transient", floor=0.0)
    if k_ref is not None:
        want = k_ref.rows(T[p:], traj.x[p:])
        errs = _max_abs_rows(U[p:] - want)
        err.add(errs, _max_abs_rows(want),
                lambda i: {"t": int(T[p + i]), "u": U[p + i].tolist(),
                           "k_ref": want[i].tolist(), "err": float(errs[i])})
        verdict = err.verdict(tol)
    report = CoincidenceReport(
        check="output-feedback-coincidence",
        verdict=verdict if history_exact else FAIL, p=p,
        coincident_from=t0 + p, history_exact=history_exact,
        history_witness=hist_wit, max_err=err.margin, witness=err.witness,
        tol=tol,
        notes=[f"rows [{t0}, {t0 + p}) are the register-filling transient"])
    return traj, report


def build_extended_system(sys: SystemDef, w_dim: int) -> SystemDef:
    """Append an integrator block: state (x, w), input (u, v), w(t+1) = v.

    The measured output stacks (h(t, x), w); the stabilized output stays
    H(t, x).  The x-component of solutions does not depend on v.  The maps
    stay expression lists: f gains the components ``u_{k+i}`` and h the
    components ``x_{n+i}``.
    """
    if w_dim < 1:
        raise ValueError("w_dim must be >= 1")
    n, k = sys.n, sys.k
    ws = range(1, w_dim + 1)
    return SystemDef(n=n + w_dim, m=sys.m, k=k + w_dim, d_box=sys.d_box,
                     f=[*sys.f_exprs, *(Var(f"u{k + i}") for i in ws)],
                     H=list(sys.H_exprs),
                     h=[*sys.h_exprs, *(Var(f"x{n + i}") for i in ws)],
                     name=f"{sys.name}|extended(w={w_dim})")
