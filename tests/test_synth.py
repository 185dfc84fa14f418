import math

import numpy as np
import pytest

import dtstab.synth as synth
import reference as ref
from dtstab.expr import Var, substitute
from dtstab.registry import example_2_3, example_4_7
from dtstab.synth import (DelayChainController, ReconstructionMap,
                          build_extended_system,
                          check_reconstruction, iterate_maps,
                          run_output_feedback, synthesize_delay_controller)
from dtstab.system import (ConstantDisturbance, ConstantInput,
                           EquilibriumWarning, GreedyDisturbance,
                           RandomDisturbance, SystemDef, SystemFileError,
                           simulate)

B47 = example_4_7(0.5)


def integrator_chain_sys():
    return SystemDef(n=1, m=0, k=1, d_box=np.zeros((0, 2)), f=["x1 + u1"],
                     H=["x1"], name="summing")


def two_output_sys():
    """A plant with two measured outputs, the first of which Psi reads."""
    return SystemDef(n=2, m=1, k=1, d_box=[[-0.5, 0.5]],
                     f=["x2 + d1*x1", "0.5*x1*x2 + u1"], H=["x1", "x2"],
                     h=["x1", "x2 - x1"], name="two-output")


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
        k_fn = ["t*x1 + x1^3"]
        psi = ReconstructionMap("t*y1 + y1^3", p=1)
        rep = check_reconstruction(B47.sys, k_fn, psi, n_samples=500, tol=0.0)
        assert rep.verdict == "pass" and rep.worst_margin == 0.0

    def test_sign_flip_fails(self):
        flipped = ReconstructionMap("(y1^2+u0)^2", p=1)
        rep = check_reconstruction(B47.sys, B47.feedback, flipped,
                                   n_samples=50, tol=0.0)
        assert not rep.passed and rep.worst_margin > 0.0


def feedback_at(ctrl, sys, t, s):
    """The controller's feedback at one extended state, through the tree
    walker."""
    return ref.tree_feedback(ctrl.feedback(sys), len(s))(t, s)


class TestControllerStructure:
    def test_window_one_state_layout(self):
        ctrl = B47.controller
        assert ctrl.state_dim == 2  # one output slot plus one input slot
        # (x1, x2, x3 | w1 = y(t-1), w2 = u(t-1)) -> (u | v1, v2)
        got = feedback_at(ctrl, B47.sys, 1, np.array([2.0, 5.0, 7.0, 1.0, -1.0]))
        # the applied input reads the stored previous input, not the output,
        # and the register takes the current output and that input
        u = -(2.0 ** 2 + -1.0) ** 2
        assert np.array_equal(got, [u, 2.0, u])

    def test_window_two_shift_and_reversal(self):
        sys = integrator_chain_sys()
        w = np.array([10.0, 20.0, 30.0, 40.0])  # (w1, w2 | w3, w4)
        s = np.concatenate([[1.0], w])
        # Psi reads the window oldest first: y0 = w2, y1 = w1, u0 = w4, u1 = w3
        for text, want in (("y0", 20.0), ("y1", 10.0), ("y2", 1.0),
                           ("u0", 40.0), ("u1", 30.0)):
            ctrl = DelayChainController(p_y=1, psi=ReconstructionMap(text, p=2))
            assert ctrl.state_dim == 4
            got = feedback_at(ctrl, sys, 0, s)
            # v shifts the register: (y, w1 | u, w3)
            assert np.array_equal(got, [want, 1.0, 10.0, want, 30.0]), text

    def test_two_output_slots(self):
        plant = two_output_sys()
        ctrl = DelayChainController(p_y=2, psi=ReconstructionMap("y0 + 10*y1 + 100*u0", p=2))
        assert ctrl.state_dim == 6
        # x = (x1, x2); w = (y(t-1) | y(t-2) | u(t-1), u(t-2)), two entries a slot
        s = np.array([3.0, 5.0, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0])
        y = plant.h_eval(0, s[:2])
        got = feedback_at(ctrl, plant, 0, s)
        u = 4.0 + 10.0 * 1.0 + 100.0 * 32.0  # first entries only: y0 = w3, y1 = w1
        assert np.array_equal(got, [u, *y, 1.0, 2.0, u, 16.0])

    def test_plant_without_one_input_or_another_output_width_refused(self):
        ctrl = B47.controller
        for k in (0, 2):
            plant = SystemDef(n=1, m=0, k=k, d_box=np.zeros((0, 2)),
                              f=["x1" + "".join(f" + u{i}" for i in range(1, k + 1))],
                              H=["x1"])
            with pytest.raises(ValueError, match=f"one input; the plant has k={k}"):
                ctrl.feedback(plant)
            with pytest.raises(ValueError, match=f"k={k}"):
                run_output_feedback(plant, ctrl, 0, [1.0], horizon=3)
        with pytest.raises(ValueError, match="p_y=1 outputs a slot; the plant "
                                             "measures p_y=2"):
            ctrl.feedback(two_output_sys())

    def test_window_length_is_the_reconstruction_maps(self):
        psi = ReconstructionMap("-(y1^2+u0)^2", p=1)
        ctrl = DelayChainController(p_y=1, psi=psi)
        assert ctrl.p == psi.p == 1 and ctrl.state_dim == 2

    def test_one_initial_value_fills_every_slot(self):
        ctrl = DelayChainController(p_y=1, psi=ReconstructionMap("y0 + u1", p=2))
        assert ctrl.initial_state().tolist() == [0.0] * 4
        assert ctrl.initial_state(2.5).tolist() == [2.5] * 4
        assert ctrl.initial_state([[1.0, 2.0], [3.0, 4.0]]).tolist() == [1.0, 2.0, 3.0, 4.0]

    def test_retraction_is_refused(self):
        # a retraction was a callable between the register and Psi; a
        # callable cannot be substituted, so the argument is gone (a scaled
        # window is written into Psi, see test_wrong_window_flags_mismatch)
        psi = ReconstructionMap("0", p=1)
        with pytest.raises(TypeError, match="retraction"):
            synthesize_delay_controller(psi, retraction=lambda y: 2.0 * y)
        with pytest.raises(TypeError, match="retraction"):
            DelayChainController(p_y=1, psi=psi, retraction=lambda y: 2.0 * y)
        with pytest.raises(TypeError, match="'k'"):
            synthesize_delay_controller(psi, k=1)

    def test_json_description(self):
        js = B47.controller.to_json()
        assert js == {"p": 1, "psi": "-(y1^2+u0)^2", "w0": [0.0, 0.0]}


class TestRunOutputFeedback:
    def test_hand_trace(self):
        traj, rep = run_output_feedback(B47.sys, B47.controller, 0,
                                        [1.0, 2.0, 3.0], w0=np.zeros(2),
                                        dpol=ConstantDisturbance([0.5]),
                                        horizon=6, reference_k=B47.feedback)
        assert traj.u[0, 0] == -1.0
        assert np.array_equal(traj.x[1], [2.0, 3.0, 3.5])
        assert traj.u[1, 0] == -9.0                       # = -x2(1)^2
        assert rep.coincident_from == 1 and rep.history_exact
        assert rep.max_err == 0.0
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

    def test_wrong_window_flags_mismatch(self):
        # target -x^2 on the summing plant; the window-two reconstruction
        # reads the oldest output, so scaling it corrupts the input
        sys = integrator_chain_sys()
        k_fn = ["-x1^2"]
        psi = ReconstructionMap("-(y0 + u0 + u1)^2", p=2)
        scaled = ReconstructionMap("-(2*y0 + u0 + u1)^2", p=2)
        assert check_reconstruction(sys, k_fn, psi, n_samples=200,
                                    tol=0.0).passed
        good = synthesize_delay_controller(psi, p_y=1)
        bad = synthesize_delay_controller(scaled, p_y=1)
        _, rep_good = run_output_feedback(sys, good, 0, [1.5], horizon=12,
                                          reference_k=k_fn)
        _, rep_bad = run_output_feedback(sys, bad, 0, [1.5], horizon=9,
                                         reference_k=k_fn)
        assert rep_good.passed
        assert not rep_bad.passed and rep_bad.history_exact
        assert rep_bad.max_err > 1.0


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
        hold = ref.TreeFeedback(["0", "x4"], n=4)
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


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # huge states overflow
@pytest.mark.parametrize("plant, w_dim", [
    (B47.sys, 1), (B47.sys, B47.controller.state_dim), (integrator_chain_sys(), 4)],
    ids=["example_4_7_w1", "example_4_7_p1", "integrator_chain_p2"])
def test_extended_system_equals_reference_closures(plant, w_dim):
    ext, loop = build_extended_system(plant, w_dim), ref.extended_system(plant, w_dim)
    assert ext.name.endswith(f"|extended(w={w_dim})")
    assert (ext.n, ext.m, ext.k) == (loop.n, loop.m, loop.k)
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
        want = loop.f_eval(t[i], D[i], X[i], U[i])
        assert ref.same_bits(F[i], want), i
        assert ref.same_bits(ext.f_eval(t[i], D[i], X[i], U[i]), want), i
        assert ref.same_bits(Y[i], loop.H_eval(t[i], X[i])), i
        assert ref.same_bits(y[i], loop.h_eval(t[i], X[i])), i


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
        static_fb = ref.TreeFeedback([u, Var("x1"), u], n=5)

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

def assert_run_equals_reference(sys, ctrl, t0, x0, w0, dpol, horizon,
                                reference_k=None):
    """run_output_feedback's trajectory and report equal the reference loop's
    (``dpol`` builds a fresh disturbance policy for each run)."""
    traj, rep = run_output_feedback(sys, ctrl, t0, x0, w0=w0, dpol=dpol(),
                                    horizon=horizon, reference_k=reference_k)
    want = ref.delay_chain_loop(sys, ctrl, t0, x0, w0, dpol(), horizon)
    for name, column in want.items():
        assert ref.same_bits(getattr(traj, name), column), name
    assert traj.meta["u_policy"] == ctrl.descriptor()
    assert ref.dumps(rep) == ref.dumps(
        ref.coincidence_report(want, ctrl.p, t0, reference_k))
    return rep


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
        rep = assert_run_equals_reference(
            b.sys, b.controller, t0, x0, w0,
            lambda: DISTURBANCES[kind](b.sys, seed), 25, b.feedback)
        assert rep.passed, rep.to_json()


@pytest.mark.parametrize("p", [1, 2, 3], ids=["p1", "p2", "p3"])
def test_run_equals_reference_loop_integrator_chain(p):
    # -(y0 + u0 + .. + u<p-1>)^2 reconstructs -x^2 on the summing plant
    sys = integrator_chain_sys()
    psi = ReconstructionMap(f"-(y0 + {' + '.join(f'u{i}' for i in range(p))})^2", p=p)
    ctrl = synthesize_delay_controller(psi, p_y=1)
    rng = np.random.default_rng(p)
    for w0 in (None, rng.uniform(-2.0, 2.0, size=ctrl.state_dim)):
        rep = assert_run_equals_reference(
            sys, ctrl, 3, [1.5], w0, lambda: ConstantDisturbance(sys.d_mid()), 9,
            ["-x1^2"])
        assert rep.passed and rep.history_exact


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # inf * 0
def test_run_equals_reference_loop_nan_psi():
    # NaN once the current output is positive: the NaN runs through the
    # registers, and NaN slots count as a history mismatch
    sys = integrator_chain_sys()
    psi = ReconstructionMap("-(y0 + u0 + u1)^2 + max(y2, 0)*1e300*1e300*0", p=2)
    ctrl = synthesize_delay_controller(psi)
    for w0 in (None, [0.5, -1.0, 0.25, 2.0]):
        rep = assert_run_equals_reference(
            sys, ctrl, 3, [1.5], w0, lambda: ConstantDisturbance(sys.d_mid()), 9,
            ["-x1^2"])
        assert not rep.history_exact and not rep.passed


@pytest.mark.parametrize("p", [1, 2, 3], ids=["p1", "p2", "p3"])
@pytest.mark.parametrize("kind", sorted(DISTURBANCES))
def test_run_equals_reference_loop_two_outputs(p, kind):
    plant = two_output_sys()
    psi = {1: "y0*y1 - 0.25*u0", 2: "0.1*y0*y1 - 0.25*u0 + u1*y2",
           3: "0.1*(y0 + y3) - 0.2*u2 + 0.05*u0*y1"}[p]
    ctrl = synthesize_delay_controller(ReconstructionMap(psi, p=p), p_y=2)
    rng = np.random.default_rng(p + len(kind))
    for t0 in (0, 2):
        x0 = rng.uniform(-1.0, 1.0, size=2)
        w0 = rng.uniform(-1.0, 1.0, size=ctrl.state_dim)
        seed = int(rng.integers(2 ** 31))
        rep = assert_run_equals_reference(
            plant, ctrl, t0, x0, w0, lambda: DISTURBANCES[kind](plant, seed), 15,
            ["-0.5*x2"])
        assert rep.history_exact


# --- defects the margin rule mends ---

# -(y1^2 + u0)^2 where the current output is <= 0, NaN (inf * 0) above it
NAN_ABOVE_ZERO_PSI = "-(y1^2+u0)^2 + max(y1, 0)*1e300*1e300*0"


class TestReconstructionRule:
    def test_nan_reconstruction_fails_at_first_nan(self):
        psi = ReconstructionMap(NAN_ABOVE_ZERO_PSI, p=1)
        seen = []  # the current outputs of the samples, in sample order

        def recording_psi(t, y_p, y_hist, u_hist):
            seen.append(y_p[0])
            return ref.psi_closure(psi)(t, y_p, y_hist, u_hist)

        ref.check_reconstruction(B47.sys, ref.tree_feedback(B47.feedback, 3),
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
        with pytest.warns(EquilibriumWarning):  # a NaN input moves the origin
            _, rep = run_output_feedback(B47.sys, ctrl, 0, [1.0, 2.0, 3.0],
                                         horizon=5, reference_k=B47.feedback)
        assert math.isnan(rep.max_err)
        assert rep.witness["t"] == 1       # the first row after p
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
        assert rep.coincident_from == 2 and rep.history_exact

    def test_mismatch_witness_names_the_row(self):
        flipped = synthesize_delay_controller(ReconstructionMap("(y1^2+u0)^2", p=1))
        traj, rep = run_output_feedback(B47.sys, flipped, 0, [1.0, 2.0, 3.0],
                                        horizon=4, reference_k=B47.feedback)
        w = rep.witness
        assert set(w) == {"t", "u", "k_ref", "err"}
        i = int(np.argmax(np.abs(traj.u[1:, 0] + traj.x[1:, 1] ** 2))) + 1
        assert w["t"] == traj.t[i] and w["err"] == rep.max_err > 0.0
        assert not rep.passed


# --- check_reconstruction against the sample loop it replaced ---

def assert_same_report(sys, k_fn, psi, k_ref=None, **kw):
    """The check equals the reference loop over closures: the system's
    point evaluators, ``k_ref`` (by default ``k_fn`` through the tree
    walker) and Psi's tree-walker closure."""
    got = check_reconstruction(sys, k_fn, psi, **kw)
    closures = ref.ClosureSystem(sys.n, sys.m, sys.k, sys.d_box, sys.f_eval,
                                 sys.H_eval, sys.h_eval)
    want = ref.check_reconstruction(
        closures, k_ref or ref.tree_feedback(k_fn, sys.n),
        ref.psi_closure(psi), psi.p, **kw)
    assert ref.dumps(got) == ref.dumps(want)
    return got


@pytest.mark.parametrize("r", [0.0, 0.5, 0.9])
def test_reconstruction_equals_reference_example_4_7(r):
    b = example_4_7(r)
    targets = ((b.feedback, None),
               (["-x2*x2"],
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
    square = ["-x1^2"]
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


def test_policy_target_is_refused():
    # a target feedback is an expression: an input policy, once called
    # sample by sample, is refused, as a reference feedback is
    target = ref.TreeFeedback(B47.feedback, 3)
    with pytest.raises(ValueError, match="is not an expression"):
        check_reconstruction(B47.sys, target, B47.psi, n_samples=60, seed=8)
    with pytest.raises(ValueError, match="is not an expression"):
        run_output_feedback(B47.sys, B47.controller, 0, [1.0, 2.0, 3.0],
                            horizon=4, reference_k=target)


@pytest.mark.parametrize("k", [[], ["-x2^2", "-x2^2"], ["-x2^2", "5"]],
                         ids=["width0", "width2", "width2_constant"])
def test_feedback_of_another_width_than_psi_is_refused(k):
    # Psi has one component: an empty target once passed vacuously with
    # margin 0, a doubled one passed, and a reference ["-x2^2", "5"] failed
    # by comparing the constant 5 against u
    with pytest.raises(SystemFileError,
                       match=f"k has {len(k)} components, expected 1"):
        check_reconstruction(B47.sys, k, B47.psi, n_samples=50)
    with pytest.raises(SystemFileError,
                       match=f"k has {len(k)} components, expected 1"):
        run_output_feedback(B47.sys, B47.controller, 0, [1.0, 2.0, 3.0],
                            horizon=4, reference_k=k)


@pytest.mark.parametrize("sys, p", [
    (example_4_7(0.5).sys, 1), (example_4_7(0.5).sys, 3),
    (integrator_chain_sys(), 2),
    (SystemDef(n=2, m=3, k=0, d_box=[[-2.5, 0.1], [3.0, 3.0], [1e-3, 7.0]],
               f=["x1 + d1", "x2*d2 - d3"], H=["x1"]), 2),
])
def test_one_draw_a_sample_equals_three_uniform_draws(sys, p):
    ts = list(range(3, 9))
    for seed in range(40):
        rng, twin = np.random.default_rng(seed), np.random.default_rng(seed)
        got = synth._random_spots(sys, p, ts, 25, rng)
        want = ref.random_spots(sys, p, ts, 25, twin)
        assert ref.dumps(got) == ref.dumps(want)
        assert rng.bit_generator.state == twin.bit_generator.state
