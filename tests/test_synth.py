import json
import math

import numpy as np
import pytest

import dtstab.synth as synth
from dtstab.expr import Var, substitute
from dtstab.registry import example_2_3, example_4_7
from dtstab.synth import (SAMPLE_RADIUS, DelayChainController,
                          ReconstructionMap, build_extended_system,
                          check_reconstruction, iterate_maps,
                          run_output_feedback, synthesize_delay_controller)
from dtstab.system import (CertificateReport, ConstantDisturbance,
                           ConstantInput, GreedyDisturbance, InputPolicy,
                           RandomDisturbance, StateFeedback, SystemDef,
                           WorstMargin, simulate)
from test_composite import ClosureSystem

B47 = example_4_7(0.5)


def integrator_chain_sys():
    return SystemDef(n=1, m=0, k=1, d_box=np.zeros((0, 2)), f=["x1 + u1"],
                     H=["x1"], name="summing")


class TestIterateMaps:
    def test_window_one_formula(self):
        res = iterate_maps(B47.sys, 1, 3, [1.0, 2.0, 3.0], [[0.25]], [[-4.0]])
        want = np.array([2.0, 0.0, 0.25 * 3.0 + math.exp(3.0) * 2.0])
        assert np.array_equal(res.F_p, want)
        assert np.array_equal(res.y_hist[0], [1.0])   # y_0 = h(t, x) = x1
        assert np.array_equal(res.y_p, [2.0])         # y_1 = x1 one step on

    def test_matches_repeated_steps_exactly(self):
        sys = example_2_3().sys
        rng = np.random.default_rng(1)
        for _ in range(50):
            x0 = rng.uniform(-5, 5, size=2)
            d = rng.uniform(-2, 2, size=(2, 1))
            res = iterate_maps(sys, 2, 4, x0, d, np.zeros((2, 0)))
            x = x0
            for i in range(2):
                x = sys.f_eval(4 + i, d[i], x)
            assert np.array_equal(res.F_p, x)

    def test_matches_simulation_rows(self):
        sys = example_2_3().sys
        traj = simulate(sys, 4, [0.3, -1.2], RandomDisturbance(seed=2),
                        horizon=2)
        res = iterate_maps(sys, 2, 4, traj.x[0], traj.d[:2], np.zeros((2, 0)))
        assert np.array_equal(res.F[0], traj.x[1])
        assert np.array_equal(res.F_p, traj.x[2])

    def test_disturbance_window_validated(self):
        with pytest.raises(ValueError, match="box"):
            iterate_maps(B47.sys, 1, 0, [0.0, 0.0, 0.0], [[0.9]], [[0.0]])


class TestCheckReconstruction:
    def test_square_feedback_exact(self):
        rep = check_reconstruction(B47.sys, B47.feedback, B47.psi,
                                   n_samples=2000, tol=0.0, seed=5)
        assert rep.verdict == "pass"
        assert rep.worst_margin == 0.0

    def test_output_function_always_reconstructible(self):
        # k(t, x) = theta(t, h(t, x)) reconstructs via the current output
        k_fn = StateFeedback(["t*x1 + x1^3"], n=3)
        psi = ReconstructionMap("t*y1 + y1^3", p=1)
        rep = check_reconstruction(B47.sys, k_fn, psi, n_samples=500, tol=0.0)
        assert rep.verdict == "pass" and rep.worst_margin == 0.0

    def test_sign_flip_fails(self):
        flipped = ReconstructionMap("(y1^2+u0)^2", p=1)
        rep = check_reconstruction(B47.sys, B47.feedback, flipped,
                                   n_samples=50, tol=0.0)
        assert not rep.passed and rep.worst_margin > 0.0


class TestControllerStructure:
    def test_window_one_state_layout(self):
        ctrl = B47.controller
        assert ctrl.state_dim == 2  # one output slot plus one input slot
        w1 = ctrl.advance(np.zeros(2), [1.0], [-1.0])
        assert np.array_equal(w1, [1.0, -1.0])
        # the applied input reads the stored previous input, not the output
        u = ctrl.output(1, [2.0], w1)
        assert np.array_equal(u, [-(2.0 ** 2 + -1.0) ** 2])

    def test_window_two_shift_and_reversal(self):
        psi = ReconstructionMap("0", p=2)
        ctrl = DelayChainController(p_y=1, k=1, psi=psi)
        assert ctrl.state_dim == 4
        w = np.array([10.0, 20.0, 30.0, 40.0])  # (w1, w2 | w3, w4)
        w2 = ctrl.advance(w, [1.0], [2.0])
        assert np.array_equal(w2, [1.0, 10.0, 2.0, 30.0])
        y_hist, u_hist = ctrl.window(w)
        assert [v[0] for v in y_hist] == [20.0, 10.0]  # oldest first
        assert [v[0] for v in u_hist] == [40.0, 30.0]

    def test_window_length_is_the_reconstruction_maps(self):
        psi = ReconstructionMap("-(y1^2+u0)^2", p=1)
        ctrl = DelayChainController(p_y=1, k=1, psi=psi)
        assert ctrl.p == psi.p == 1 and ctrl.state_dim == 2

    def test_custom_retraction_applied_to_output_slots(self):
        psi = ReconstructionMap("0", p=1)
        ctrl = DelayChainController(p_y=1, k=1, psi=psi,
                                    retraction=lambda y: 2.0 * y)
        y_hist, u_hist = ctrl.window(np.array([3.0, 7.0]))
        assert y_hist[0][0] == 6.0
        assert u_hist[0][0] == 7.0

    def test_json_description(self):
        js = B47.controller.to_json()
        assert js == {"p": 1, "psi": "-(y1^2+u0)^2", "retraction": "identity",
                      "w0": [0.0, 0.0]}


class TestRunOutputFeedback:
    def test_hand_trace(self):
        traj, rep = run_output_feedback(B47.sys, B47.controller, 0,
                                        [1.0, 2.0, 3.0], w0=np.zeros(2),
                                        dpol=ConstantDisturbance([0.5]),
                                        horizon=6, reference_k=B47.feedback)
        assert traj.u[0, 0] == -1.0
        assert np.array_equal(traj.x[1], [2.0, 3.0, 3.5])
        assert traj.u[1, 0] == -9.0                       # = -x2(1)^2
        assert rep.from_t == 1 and rep.history_exact
        assert rep.coincidence_max_err == 0.0
        assert rep.passed

    def test_zero_start_stays_zero(self):
        traj, rep = run_output_feedback(B47.sys, B47.controller, 0,
                                        np.zeros(3), w0=np.zeros(2),
                                        dpol=ConstantDisturbance([0.5]),
                                        horizon=10, reference_k=B47.feedback)
        assert np.all(traj.x == 0.0) and np.all(traj.u == 0.0)
        assert rep.passed

    def test_arbitrary_register_seed_coincides_after_p(self):
        lam = B47.cand.lam
        rng = np.random.default_rng(0)
        for _ in range(20):
            x0 = rng.uniform(-4, 4, size=3)
            w0 = rng.uniform(-4, 4, size=2)
            traj, rep = run_output_feedback(
                B47.sys, B47.controller, 0, x0, w0=w0,
                dpol=RandomDisturbance(seed=int(rng.integers(1e6))),
                horizon=40, reference_k=B47.feedback, tol=1e-12)
            assert rep.history_exact
            assert rep.passed, rep.to_json()
            for i in range(1, len(traj)):
                assert abs(traj.u[i, 0] + traj.x[i, 1] ** 2) \
                    <= 1e-12 * (1.0 + traj.x[i, 1] ** 2)
            # once the registers coincide, the certificate decay kicks in
            V = [B47.cand.V_eval(t, traj.x[i]) for i, t in enumerate(traj.t)]
            for i in range(1, len(traj) - 1):
                assert V[i + 1] <= lam * V[i] * (1.0 + 1e-12) + 1e-300

    def test_wrong_retraction_flags_mismatch(self):
        # target -x^2 on the summing plant; the window-two reconstruction
        # reads the oldest output, so a scaled retraction corrupts it
        sys = integrator_chain_sys()
        k_fn = StateFeedback(["-x1^2"], n=1)
        psi = ReconstructionMap("-(y0 + u0 + u1)^2", p=2)
        assert check_reconstruction(sys, k_fn, psi, n_samples=200,
                                    tol=0.0).passed
        good = synthesize_delay_controller(psi, p_y=1, k=1)
        bad = synthesize_delay_controller(psi, p_y=1, k=1,
                                          retraction=lambda y: 2.0 * y)
        _, rep_good = run_output_feedback(sys, good, 0, [1.5], horizon=12,
                                          reference_k=k_fn)
        _, rep_bad = run_output_feedback(sys, bad, 0, [1.5], horizon=9,
                                         reference_k=k_fn)
        assert rep_good.passed
        assert not rep_bad.passed
        assert rep_bad.coincidence_max_err > 1.0


class TestExtendedSystem:
    def test_dimensions_and_output_stacking(self):
        ext = build_extended_system(B47.sys, 1)
        assert (ext.n, ext.m, ext.k) == (4, 1, 2)
        assert ext.p_Y == 3 and ext.p_y == 2
        s = [1.0, 2.0, 3.0, 9.0]
        assert np.array_equal(ext.h_eval(0, s), [1.0, 9.0])
        assert np.array_equal(ext.H_eval(0, s), [1.0, 2.0, 3.0])

    def test_constant_register_under_identity_input(self):
        ext = build_extended_system(B47.sys, 1)
        hold = StateFeedback(["0", "x4"], n=4)
        traj = simulate(ext, 0, [0.5, -0.5, 1.0, 9.0],
                        ConstantDisturbance([0.2]), hold, horizon=8)
        assert np.all(traj.x[:, 3] == 9.0)

    def test_projection_matches_original(self):
        ext = build_extended_system(B47.sys, 1)
        orig = simulate(B47.sys, 0, [1.0, -0.5, 0.5],
                        RandomDisturbance(seed=7), ConstantInput([0.3]),
                        horizon=12)
        lifted = simulate(ext, 0, [1.0, -0.5, 0.5, 4.0],
                          RandomDisturbance(seed=7),
                          ConstantInput([0.3, 0.1]), horizon=12)
        assert np.array_equal(lifted.x[:, :3], orig.x)


def reference_extended_system(sys, w_dim):
    """The extended system as closures over the plant's maps."""
    n, k = sys.n, sys.k

    def f_ext(t, d, s, uv):
        x, u, v = s[:n], uv[:k], uv[k:]
        return np.concatenate([sys.f_eval(t, d, x, u), v])

    def H_ext(t, s):
        return sys.H_eval(t, s[:n])

    def h_ext(t, s):
        return np.concatenate([sys.h_eval(t, s[:n]), s[n:]])

    return ClosureSystem(n + w_dim, sys.m, k + w_dim, sys.d_box, f_ext, H_ext, h_ext)


def float_bits(a):
    """Bit patterns of a float array, every NaN mapped to one pattern."""
    a = np.array(a, dtype=float)
    a[np.isnan(a)] = math.nan
    return a.view(np.int64)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # huge states overflow
@pytest.mark.parametrize("plant, w_dim", [
    (B47.sys, 1), (B47.sys, B47.controller.state_dim), (integrator_chain_sys(), 4)],
    ids=["example_4_7_w1", "example_4_7_p1", "integrator_chain_p2"])
def test_extended_system_equals_reference_closures(plant, w_dim):
    ext, ref = build_extended_system(plant, w_dim), reference_extended_system(plant, w_dim)
    assert ext.name.endswith(f"|extended(w={w_dim})")
    assert (ext.n, ext.m, ext.k) == (ref.n, ref.m, ref.k)
    assert (ext.p_Y, ext.p_y) == (plant.p_Y, plant.p_y + w_dim)
    rng = np.random.default_rng(w_dim)
    N = 120
    t = rng.integers(0, 30, size=N)
    X = rng.standard_normal((N, ext.n)) * 10.0 ** rng.uniform(-3, 3, (N, 1))
    X[0], X[1, 0], X[2, -1], X[3] = 0.0, math.nan, math.inf, 1e200
    D = rng.uniform(ext.d_box[:, 0], ext.d_box[:, 1], size=(N, ext.m))
    U = rng.uniform(-5.0, 5.0, size=(N, ext.k))
    F, Y, y = ext.f_rows(t, X, D, U), ext.H_rows(t, X), ext.h_rows(t, X)
    for i in range(N):
        want = ref.f_eval(t[i], D[i], X[i], U[i])
        assert np.array_equal(float_bits(F[i]), float_bits(want)), i
        assert np.array_equal(float_bits(ext.f_eval(t[i], D[i], X[i], U[i])),
                              float_bits(want)), i
        assert np.array_equal(float_bits(Y[i]), float_bits(ref.H_eval(t[i], X[i]))), i
        assert np.array_equal(float_bits(y[i]), float_bits(ref.h_eval(t[i], X[i]))), i


class TestSeparationComposition:
    def test_delay_controller_as_static_feedback_on_extended_plant(self):
        # append the register block as integrator states, then drive (u, v)
        # by a static function of the extended measured output (y, w); the
        # interconnection reproduces the dynamic-feedback run row for row.
        # With p = 1 the output slot is w1 = x4 and the input slot w2 = x5:
        # u = Psi(y1 := x1, u0 := x5), and the registers take v = (y, u)
        ctrl = B47.controller
        ext = build_extended_system(B47.sys, ctrl.state_dim)
        u = substitute(ctrl.psi.expr, {"y1": Var("x1"), "u0": Var("x5")})
        static_fb = StateFeedback([u, Var("x1"), u], n=5)

        x0 = np.array([1.0, 2.0, 3.0])
        w0 = np.array([0.5, -0.25])
        lifted = simulate(ext, 0, np.concatenate([x0, w0]),
                          RandomDisturbance(seed=13), static_fb, horizon=25)
        direct, rep = run_output_feedback(B47.sys, ctrl, 0, x0, w0=w0,
                                          dpol=RandomDisturbance(seed=13),
                                          horizon=25,
                                          reference_k=B47.feedback)
        assert rep.passed
        assert np.array_equal(lifted.x[:, :3], direct.x)
        assert np.array_equal(lifted.x[:, 3:], direct.w)
        assert np.array_equal(lifted.d, direct.d)


# --- run_output_feedback against the delay-chain loop it replaced ---

def reference_delay_chain_loop(sys, ctrl, t0, x0, w0, dpol, horizon):
    """The closed loop rolled by hand, as run_output_feedback did before it
    became ``simulate`` with the controller as an input policy."""
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
        u = ctrl.output(t, yv[i], w)
        U[i] = u
        D[i] = dpol(sys, t, x, u)
        if i + 1 < N:
            x = sys.f_eval(t, D[i], x, u)
            w = ctrl.advance(w, yv[i], u)
    return {"t": T, "x": X, "d": D, "u": U, "Y": Yv, "y": yv, "w": W}


def assert_bitwise(traj, want):
    for name, arr in want.items():
        got = getattr(traj, name)
        assert got.shape == arr.shape and got.dtype == arr.dtype, name
        if arr.dtype.kind == "f":
            assert np.array_equal(got.view(np.int64), arr.view(np.int64)), name
        else:
            assert np.array_equal(got, arr), name


DISTURBANCES = {
    "constant": lambda sys, seed: ConstantDisturbance(sys.d_box[:, 1]),
    "random": lambda sys, seed: RandomDisturbance(seed=seed, mode="mixed"),
    "greedy": lambda sys, seed: GreedyDisturbance(seed=seed),
}


@pytest.mark.parametrize("r", [0.0, 0.5, 0.9])
@pytest.mark.parametrize("kind", sorted(DISTURBANCES))
def test_run_equals_reference_loop_example_4_7(r, kind):
    b = example_4_7(r)
    rng = np.random.default_rng(int(10 * r) + len(kind))
    for trial in range(3):
        x0 = rng.uniform(-3.0, 3.0, size=3)
        w0 = rng.uniform(-3.0, 3.0, size=2)
        t0 = int(rng.integers(0, 5))
        seed = int(rng.integers(2 ** 31))
        traj, rep = run_output_feedback(b.sys, b.controller, t0, x0, w0=w0,
                                        dpol=DISTURBANCES[kind](b.sys, seed),
                                        horizon=25, reference_k=b.feedback)
        want = reference_delay_chain_loop(b.sys, b.controller, t0, x0, w0,
                                          DISTURBANCES[kind](b.sys, seed), 25)
        assert_bitwise(traj, want)
        assert rep.passed, rep.to_json()


@pytest.mark.parametrize("retraction", [None, lambda y: 2.0 * y])
def test_run_equals_reference_loop_integrator_chain(retraction):
    sys = integrator_chain_sys()
    psi = ReconstructionMap("-(y0 + u0 + u1)^2", p=2)
    ctrl = synthesize_delay_controller(psi, p_y=1, k=1, retraction=retraction)
    for w0 in (None, [0.5, -1.0, 0.25, 2.0]):
        traj, _ = run_output_feedback(sys, ctrl, 3, [1.5], w0=w0, horizon=9,
                                      reference_k=StateFeedback(["-x1^2"], n=1))
        want = reference_delay_chain_loop(sys, ctrl, 3, [1.5], w0,
                                          ConstantDisturbance(sys.d_mid()), 9)
        assert_bitwise(traj, want)


# --- defects the margin rule mends ---

# -(y1^2 + u0)^2 where the current output is <= 0, NaN (inf * 0) above it
NAN_ABOVE_ZERO_PSI = "-(y1^2+u0)^2 + max(y1, 0)*1e300*1e300*0"


class TestReconstructionRule:
    def test_nan_reconstruction_fails_at_first_nan(self):
        psi = ReconstructionMap(NAN_ABOVE_ZERO_PSI, p=1)
        seen = []  # the current outputs of the samples, in sample order

        def recording_psi(t, y_p, y_hist, u_hist):
            seen.append(y_p[0])
            return psi(t, y_p, y_hist, u_hist)

        reference_check_reconstruction(B47.sys, policy_closure(B47.feedback),
                                       recording_psi, 1, n_samples=40, seed=3)
        rep = check_reconstruction(B47.sys, B47.feedback, psi,
                                   n_samples=40, seed=3)
        assert rep.verdict == "fail" and math.isnan(rep.worst_margin)
        w = rep.witness
        res = iterate_maps(B47.sys, 1, w["t"], w["x"], w["d_seq"], w["u_seq"])
        assert res.y_p[0] == next(y for y in seen if y > 0.0)
        assert math.isnan(w["rhs"][0])

    def test_samples_count_what_was_evaluated(self):
        rep = check_reconstruction(B47.sys, B47.feedback, B47.psi, n_samples=0)
        assert rep.samples == 11 and rep.passed   # one zero window per t
        rep = check_reconstruction(B47.sys, B47.feedback, B47.psi,
                                   n_samples=30, ts=range(3))
        assert rep.samples == 30

    def test_no_samples_raise(self):
        with pytest.raises(ValueError, match="empty sample set"):
            check_reconstruction(B47.sys, B47.feedback, B47.psi, n_samples=0,
                                 ts=())


class TestCoincidenceRule:
    def test_nan_controls_report_nan_and_a_witness(self):
        ctrl = synthesize_delay_controller(
            ReconstructionMap("1e300*1e300*0", p=1))  # NaN
        _, rep = run_output_feedback(B47.sys, ctrl, 0, [1.0, 2.0, 3.0],
                                     horizon=5, reference_k=B47.feedback)
        assert math.isnan(rep.coincidence_max_err)
        assert rep.coincidence_witness["t"] == 1       # the first row after p
        assert not rep.passed

    def test_horizon_below_p_raises(self):
        # horizon 0 leaves only the transient row; it used to pass with
        # u = -36 against k = -4
        for horizon in (0, -1):
            with pytest.raises(ValueError, match="empty sample set"):
                run_output_feedback(B47.sys, B47.controller, 0, [1.0, 2.0, 3.0],
                                    w0=[0.0, 5.0], horizon=horizon,
                                    reference_k=B47.feedback)
        sys = integrator_chain_sys()
        ctrl = synthesize_delay_controller(
            ReconstructionMap("-(y0 + u0 + u1)^2", p=2))
        with pytest.raises(ValueError, match="empty sample set"):
            run_output_feedback(sys, ctrl, 0, [1.5], horizon=1)
        _, rep = run_output_feedback(sys, ctrl, 0, [1.5], horizon=2)
        assert rep.from_t == 2 and rep.history_exact

    def test_mismatch_witness_names_the_row(self):
        flipped = synthesize_delay_controller(ReconstructionMap("(y1^2+u0)^2", p=1))
        traj, rep = run_output_feedback(B47.sys, flipped, 0, [1.0, 2.0, 3.0],
                                        horizon=4, reference_k=B47.feedback)
        w = rep.coincidence_witness
        assert set(w) == {"t", "u", "k_ref", "err"}
        i = int(np.argmax(np.abs(traj.u[1:, 0] + traj.x[1:, 1] ** 2))) + 1
        assert w["t"] == traj.t[i] and w["err"] == rep.coincidence_max_err > 0.0
        assert not rep.passed


# --- check_reconstruction against the sample loop it replaced ---

def reference_check_reconstruction(sys, target, psi, p, n_samples=1000,
                                   ts=range(0, 11), seed=0, tol=0.0):
    """check_reconstruction as it was: one iterate_maps, one ``target(t,
    x)`` and one ``psi(t, y_p, y_hist, u_hist)`` call per sample, all three
    closures.  Kept as the reference only."""
    rng = np.random.default_rng(seed)
    ts = list(ts)
    d_mid = (sys.d_box[:, 0] + sys.d_box[:, 1]) / 2.0
    spots = [(int(t), np.zeros(sys.n), np.tile(d_mid, (p, 1)),
              np.zeros((p, sys.k))) for t in ts]
    for _ in range(max(n_samples - len(spots), 0)):
        t = int(ts[rng.integers(0, len(ts))])
        x = rng.uniform(-SAMPLE_RADIUS, SAMPLE_RADIUS, size=sys.n)
        d_seq = rng.uniform(sys.d_box[:, 0], sys.d_box[:, 1], size=(p, sys.m))
        u_seq = rng.uniform(-SAMPLE_RADIUS, SAMPLE_RADIUS, size=(p, sys.k))
        spots.append((t, x, d_seq, u_seq))
    lhs, rhs = [], []
    for t, x, d_seq, u_seq in spots:
        res = iterate_maps(sys, p, t, x, d_seq, u_seq)
        lhs.append(np.asarray(target(t + p, res.F_p), dtype=float))
        rhs.append(psi(t + p, res.y_p, res.y_hist, list(u_seq)))

    def max_abs(v):
        return float(np.max(np.abs(v))) if v.size else 0.0

    worst = WorstMargin("reconstruction samples")
    worst.add([max_abs(a - b) for a, b in zip(lhs, rhs)],
              [max_abs(b) for b in rhs],
              lambda i: {"t": spots[i][0], "x": spots[i][1].tolist(),
                         "d_seq": spots[i][2].tolist(),
                         "u_seq": spots[i][3].tolist(),
                         "lhs": lhs[i].tolist(), "rhs": rhs[i].tolist()})
    return CertificateReport("reconstruction", worst.verdict(tol), worst.margin,
                             worst.witness, worst.samples, tol)


class _PolicyTarget(InputPolicy):
    """A target policy that is not a StateFeedback: the check calls it
    sample by sample."""

    def __init__(self, fb):
        self.fb = fb

    def __call__(self, sys, t, x):
        return self.fb(sys, t, x)


def policy_closure(pol):
    """A policy's call as a closure of (t, x), for the reference loop."""
    return lambda t, x: pol(None, t, x)


def assert_same_report(sys, k_fn, psi, k_ref=None, **kw):
    """The check equals the reference loop over closures: the system's
    point evaluators, ``k_ref`` (by default ``k_fn``'s call) and Psi's
    scalar call."""
    got = check_reconstruction(sys, k_fn, psi, **kw)
    ref_sys = ClosureSystem(sys.n, sys.m, sys.k, sys.d_box, sys.f_eval,
                            sys.H_eval, sys.h_eval)
    want = reference_check_reconstruction(
        ref_sys, k_ref or policy_closure(k_fn),
        lambda t, y_p, ys, us: psi(t, y_p, ys, us), psi.p, **kw)
    assert json.dumps(got.to_json()) == json.dumps(want.to_json())
    return got


@pytest.mark.parametrize("r", [0.0, 0.5, 0.9])
def test_reconstruction_equals_reference_example_4_7(r):
    b = example_4_7(r)
    targets = ((b.feedback, None), (_PolicyTarget(b.feedback), None),
               (StateFeedback(["-x2*x2"], n=3, k=1),
                lambda t, x: np.array([-x[1] * x[1]])))
    for psi in (b.psi, ReconstructionMap("(y1^2+u0)^2", p=1)):
        for k_fn, k_ref in targets:
            rep = assert_same_report(b.sys, k_fn, psi, k_ref, n_samples=120,
                                     seed=int(10 * r))
            assert rep.samples == 120
    for seed in (0, 1):
        assert_same_report(b.sys, b.feedback, b.psi, n_samples=1500, seed=seed)


def test_reconstruction_equals_reference_integrator_chain():
    sys = integrator_chain_sys()
    square = StateFeedback(["-x1^2"], n=1)
    for k_fn, k_ref in ((square, None),
                        (square, lambda t, x: np.array([-x[0] ** 2]))):
        for psi in (ReconstructionMap("-(y0 + u0 + u1)^2", p=2),
                    ReconstructionMap("-(y1 + u1)^2", p=2)):
            assert_same_report(sys, k_fn, psi, k_ref, n_samples=200,
                               ts=range(3, 9), seed=4)


def test_reconstruction_nan_psi_equals_reference():
    psi = ReconstructionMap(NAN_ABOVE_ZERO_PSI, p=1)
    rep = assert_same_report(B47.sys, B47.feedback, psi, n_samples=40, seed=3)
    assert rep.verdict == "fail" and math.isnan(rep.worst_margin)


def test_reconstruction_few_samples_equal_reference():
    for n_samples, ts in ((0, range(0, 11)), (1, range(0, 11)), (0, [2]),
                          (1, [5]), (2, [5])):
        rep = assert_same_report(B47.sys, B47.feedback, B47.psi,
                                 n_samples=n_samples, ts=ts, seed=2)
        assert rep.samples == max(n_samples, len(ts))


def test_policy_target_sees_the_reference_calls_in_order():
    # a target that is not a StateFeedback is called sample by sample, in
    # the reference's order
    class Recording(InputPolicy):
        def __init__(self, log, fb):
            self.log, self.fb = log, fb

        def __call__(self, sys, t, x):
            self.log.append((t, x.tolist()))
            return self.fb(sys, t, x)

    chain = integrator_chain_sys()
    for sys, fb, psi in ((B47.sys, B47.feedback, B47.psi),
                         (chain, StateFeedback(["-x1^2"], n=1),
                          ReconstructionMap("-(y0 + u0 + u1)^2", p=2))):
        got, want = [], []
        check_reconstruction(sys, Recording(got, fb), psi, n_samples=60, seed=8)
        reference_check_reconstruction(sys, policy_closure(Recording(want, fb)),
                                       psi, psi.p, n_samples=60, seed=8)
        assert len(got) == 60 and got == want


def uniform_spots(sys, p, ts, count, rng):
    """The sample draws as they were: three ``rng.uniform`` calls a sample."""
    spots = []
    for _ in range(count):
        t = int(ts[rng.integers(0, len(ts))])
        x = rng.uniform(-SAMPLE_RADIUS, SAMPLE_RADIUS, size=sys.n)
        d_seq = rng.uniform(sys.d_box[:, 0], sys.d_box[:, 1], size=(p, sys.m))
        u_seq = rng.uniform(-SAMPLE_RADIUS, SAMPLE_RADIUS, size=(p, sys.k))
        spots.append((t, x, d_seq, u_seq))
    return spots


@pytest.mark.parametrize("sys, p", [
    (example_4_7(0.5).sys, 1), (example_4_7(0.5).sys, 3),
    (integrator_chain_sys(), 2),
    (SystemDef(n=2, m=3, k=0, d_box=[[-2.5, 0.1], [3.0, 3.0], [1e-3, 7.0]],
               f=["x1 + d1", "x2*d2 - d3"], H=["x1"]), 2),
])
def test_one_draw_a_sample_equals_three_uniform_draws(sys, p):
    ts = list(range(3, 9))
    for seed in range(40):
        rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        got = synth._random_spots(sys, p, ts, 25, rng)
        want = uniform_spots(sys, p, ts, 25, ref)
        for a, b in zip(got, want):
            assert a[0] == b[0]
            for u, v in zip(a[1:], b[1:]):
                assert u.shape == v.shape
                assert np.array_equal(u.view(np.int64), v.view(np.int64))
        assert rng.bit_generator.state == ref.bit_generator.state
