"""Built-in example systems with their certificate bundles.

Three registry entries, each a fully worked fixture:

* ``example_2_3`` - planar system with a doubling first state driving a
  square-root output channel, disturbances in [-2, 2]; certified output-stable
  via a relaxed Lyapunov decrease with a geometrically decaying offset.
* ``example_3_4`` - the same plant with an additive input on the output
  channel; carries the linear-in-s exponential decay envelope and input gain
  for the input-to-output estimate.
* ``example_4_7`` - a three-state plant (parameter r in [0, 1) bounds the
  disturbance) stabilized by the state feedback u = -x2^2, which is
  dead-beat reconstructible from the measured first state with window p = 1.

Every entry's bundle passes its own certificate checks (``self_test``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .certify import (LyapunovCandidate, StateGrid, check_contraction,
                      check_relaxed_decrease, check_sandwich)
from .comparison import (KFn, KLEnvelope, TimeGain, constant, geometric,
                         identity, linear, timegain_from_expr, validate_class)
from .stability import FalsifyBudget, adversarial_batch, check_ios_estimate
from .synth import (DelayChainController, ReconstructionMap,
                    check_reconstruction, run_output_feedback,
                    synthesize_delay_controller)
from .system import SystemDef, WorstMargin, closed_loop, row_norms, vecnorm

__all__ = ["ExampleBundle", "EXAMPLES", "load_example",
           "example_2_3", "example_3_4", "example_4_7"]

_E = math.e

# Contraction data shared by the first two examples: factor (2+e)/(2e),
# linear a3 with slope (e-2)/(2e), offset q(t) = (2e/(e-2)) (e/4)^t.
LAM_SQRT_PLANT = (2.0 + _E) / (2.0 * _E)
Q_SQRT_PLANT_C = 2.0 * _E / (_E - 2.0)
Q_SQRT_PLANT_RATIO = _E / 4.0

# Input-to-output envelope constants: K = 1/(1 - 2/e), c = log(2/(1 + 2/e)).
K_IOS = 1.0 / (1.0 - 2.0 / _E)
C_IOS = math.log(2.0 / (1.0 + 2.0 / _E))
_POW2 = timegain_from_expr("2^(1 - t/2)")  # recursion_step_check's offset gain


@dataclass
class ExampleBundle:
    name: str
    description: str
    sys: SystemDef
    cand: LyapunovCandidate = None
    sigma: KLEnvelope = None
    rho: KFn = None
    gamma: TimeGain = None
    feedback: list = None  # a state feedback's expression list
    closed: SystemDef = None
    psi: ReconstructionMap = None
    controller: DelayChainController = None
    r: float = None

    def self_test(self, tol: float = 1e-9, seed: int = 42) -> list:
        """Run the bundle through its own certificate checks.

        Returns (label, report) pairs; every report exposes ``.passed``.
        """
        return _SELF_TESTS[self.name](self, tol, seed)


def example_2_3() -> ExampleBundle:
    sys = SystemDef(
        n=2, m=1, k=0, d_box=[[-2.0, 2.0]],
        f=["d1*x1", "2^(-t)*d1*abs(x1)^0.5"],
        H=["x2"], name="example_2_3")
    cand = LyapunovCandidate(
        V="exp(-t)*abs(x1) + abs(x2)", n=2,
        a1=identity(), a2=identity(), beta=constant(2.0),
        lam=LAM_SQRT_PLANT,
        a3=linear(1.0 - LAM_SQRT_PLANT, name="(1-lam)*s"),
        q=geometric(Q_SQRT_PLANT_C, Q_SQRT_PLANT_RATIO),
        name="exp(-t)*|x1| + |x2|")
    return ExampleBundle(
        name="example_2_3",
        description="planar sqrt-output plant, d in [-2,2]; relaxed-decrease "
                    "certificate with geometric offset",
        sys=sys, cand=cand,
        # example_3_4's input-to-output envelope with u = 0
        sigma=KLEnvelope(6.0 * K_IOS, C_IOS, beta=constant(1.0)))


def example_3_4() -> ExampleBundle:
    base = example_2_3()
    sys = SystemDef(
        n=2, m=1, k=1, d_box=[[-2.0, 2.0]],
        f=["d1*x1", "2^(-t)*d1*abs(x1)^0.5 + u1"],
        H=["x2"], name="example_3_4")
    return ExampleBundle(
        name="example_3_4",
        description="sqrt-output plant with additive input; linear exponential "
                    "input-to-output envelope",
        sys=sys, cand=base.cand, sigma=base.sigma,
        rho=linear(1.0 / 3.0, name="s/3"), gamma=constant(1.0))


def example_4_7(r: float) -> ExampleBundle:
    if not 0.0 <= r < 1.0:
        raise ValueError(f"parameter r must lie in [0, 1), got {r!r}")
    sys = SystemDef(
        n=3, m=1, k=1, d_box=[[-r, r]],
        f=["x2", "x2^2 + u1", "d1*x3 + exp(t)*x2"],
        H=["x1", "x2", "x3"], h=["x1"], name="example_4_7")
    feedback = ["-x2^2"]
    cand = LyapunovCandidate(
        V="abs(x1) + 3*exp(t)*abs(x2) + abs(x3)", n=3,
        a1=identity(), a2=identity(),
        beta=timegain_from_expr("5*exp(t)"),
        lam=max(2.0 / 3.0, r),
        name="|x1| + 3*exp(t)*|x2| + |x3|")
    psi = ReconstructionMap("-(y1^2+u0)^2", p=1)
    return ExampleBundle(
        name="example_4_7",
        description="three-state plant, measured output x1, d in [-r, r]; "
                    "dead-beat reconstructible feedback -x2^2 (p=1)",
        sys=sys, cand=cand, feedback=feedback,
        closed=closed_loop(sys, feedback), psi=psi,
        controller=synthesize_delay_controller(psi, p_y=1), r=r)


EXAMPLES = {
    "example_2_3": example_2_3,
    "example_3_4": example_3_4,
    "example_4_7": example_4_7,
}


def load_example(name: str, r: float = None) -> ExampleBundle:
    if name not in EXAMPLES:
        raise KeyError(f"unknown example '{name}'; known: {sorted(EXAMPLES)}")
    if name == "example_4_7":
        if r is None:
            raise ValueError("example_4_7 requires the disturbance bound r")
        return example_4_7(r)
    return EXAMPLES[name]()


# --- per-example self-tests ---

def _grid_planar(ts=range(0, 11)):
    mags = np.logspace(-3, 3, 7)
    x1 = np.concatenate([[0.0], mags, -mags])
    x2 = np.array([0.0, 1.0, -1.0, 10.0, -10.0])
    return StateGrid.from_axes(list(ts), x1, x2)


def _self_test_2_3(bundle, tol, seed):
    grid = _grid_planar()
    d_vals = np.array([[-2.0], [-1.0], [0.0], [1.0], [2.0]])
    return [
        ("sandwich", check_sandwich(bundle.sys, bundle.cand, grid, tol=tol)),
        ("relaxed-decrease",
         check_relaxed_decrease(bundle.sys, bundle.cand, grid,
                                d_values=d_vals, tol=tol)),
    ]


def recursion_step_check(bundle, batch, tol=1e-9):
    """Row-wise one-step bound for example_3_4 trajectories:

    V(t+1) <= (2/e) V(t) + 2^(1 - t/2) ||x0||^(1/2) + |u(t)|.

    A trajectory without rows has no x0 and no steps; it is skipped.
    """
    cand = bundle.cand
    worst = WorstMargin("trajectory steps")
    for traj in batch:
        if not len(traj):
            continue
        root = math.sqrt(vecnorm(traj.x0))
        ts = traj.t[:-1].astype(float)
        pow2 = _POW2.values(ts)
        lhs = cand.V_rows(ts + 1.0, traj.x[1:])
        with np.errstate(over="ignore", invalid="ignore"):  # as Python floats
            rhs = ((2.0 / _E) * cand.V_rows(ts, traj.x[:-1]) + pow2 * root
                   + row_norms(traj.u[:-1]))
        worst.add(lhs - rhs, rhs, lambda i: {
            "t": int(ts[i]), "lhs": float(lhs[i]), "rhs": float(rhs[i]),
            "meta": traj.meta})
    return worst.report("per-step-recursion", tol)


def _self_test_3_4(bundle, tol, seed):
    out = [("envelope-class", validate_class(bundle.sigma))]
    budget = FalsifyBudget(max_trajectories=60, horizon=40, seed=seed)
    batch = adversarial_batch(bundle.sys, (0,), 5.0, budget,
                              u_modes=("zero", "constant", "random"))
    out.append(("ios-estimate",
                check_ios_estimate(batch, bundle.sigma, bundle.sigma.beta,
                                   bundle.rho, bundle.gamma, tol=tol)))
    out.append(("per-step-recursion", recursion_step_check(bundle, batch, tol)))
    return out


def _self_test_4_7(bundle, tol, seed):
    grid = StateGrid.from_axes(range(0, 11),
                               [0.0, 1.0, -1.0, 5.0, -5.0],
                               [0.0, 1.0, -1.0, 5.0, -5.0],
                               [0.0, 1.0, -1.0, 5.0, -5.0])
    out = [
        ("sandwich", check_sandwich(bundle.sys, bundle.cand, grid, tol=tol)),
        ("contraction",
         check_contraction(bundle.closed, bundle.cand, grid, tol=max(tol, 1e-12))),
        ("reconstruction",
         check_reconstruction(bundle.sys, bundle.feedback, bundle.psi,
                              n_samples=500, seed=seed, tol=0.0)),
    ]
    rng = np.random.default_rng(seed)
    for _ in range(5):  # the first failing run, else the last
        x0 = rng.uniform(-3.0, 3.0, size=3)
        w0 = rng.uniform(-3.0, 3.0, size=2)
        _, rep = run_output_feedback(bundle.sys, bundle.controller, 0, x0,
                                     w0=w0, horizon=20,
                                     reference_k=bundle.feedback, tol=1e-12)
        if not rep.passed:
            break
    out.append(("coincidence", rep))
    return out


_SELF_TESTS = {
    "example_2_3": _self_test_2_3,
    "example_3_4": _self_test_3_4,
    "example_4_7": _self_test_4_7,
}
