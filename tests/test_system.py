import math
import warnings

import numpy as np
import pytest

from dtstab.expr import ExprDomainError
from dtstab.registry import example_2_3, example_3_4, example_4_7
from dtstab.system import (ConstantDisturbance, ConstantInput,
                           EquilibriumWarning, GreedyDisturbance,
                           RandomDisturbance, SampleConfig, SequenceInput,
                           SystemDef, SystemFileError, Trajectory, ZeroInput,
                           closed_loop, parse_system_file, reachable_bound,
                           simulate, step, vecnorm)
from test_composite import TreeFeedback

SYS23 = example_2_3().sys
SYS34 = example_3_4().sys
SYS47 = example_4_7(0.5).sys


# hand-coded reference dynamics, independent of the expression engine
def f23_ref(t, d, x):
    return np.array([d[0] * x[0], 2.0 ** (-t) * d[0] * abs(x[0]) ** 0.5])


def f34_ref(t, d, x, u):
    return np.array([d[0] * x[0], 2.0 ** (-t) * d[0] * abs(x[0]) ** 0.5 + u[0]])


def f47_ref(t, d, x, u):
    return np.array([x[1], x[1] ** 2 + u[0], d[0] * x[2] + math.exp(t) * x[1]])


class TestStep:
    def test_direct_evaluation_planar(self):
        assert np.array_equal(step(SYS23, 0, [1.0, 0.0], [2.0]), [2.0, 2.0])

    def test_direct_evaluation_three_state(self):
        got = step(SYS47, 0, [1.0, 2.0, 3.0], [0.5], [-4.0])
        assert np.array_equal(got, [2.0, 0.0, 3.5])

    def test_equilibrium_is_fixed(self):
        for sys in (SYS23, SYS34, SYS47):
            for t in (0, 3, 17):
                for d in sys.d_box.T:
                    got = step(sys, t, np.zeros(sys.n), d[: sys.m],
                               np.zeros(sys.k))
                    assert np.array_equal(got, np.zeros(sys.n))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension mismatch"):
            step(SYS23, 0, [1.0], [2.0])
        with pytest.raises(ValueError, match="dimension mismatch"):
            step(SYS47, 0, [1.0, 2.0, 3.0], [0.5])  # missing u

    def test_disturbance_outside_box(self):
        with pytest.raises(ValueError, match="outside the declared box"):
            step(SYS23, 0, [1.0, 0.0], [2.5])


class TestRegistryDynamicsMatchHandCoded:
    """Registry expressions equal direct float formulas to 0 ulp."""

    def test_ten_thousand_random_points(self):
        rng = np.random.default_rng(123)
        for _ in range(10_000):
            t = float(rng.integers(0, 50))
            x = rng.uniform(-50, 50, size=3)
            d = rng.uniform(-2, 2, size=1)
            u = rng.uniform(-5, 5, size=1)
            assert np.array_equal(SYS23.f_eval(t, d, x[:2]), f23_ref(t, d, x[:2]))
            assert np.array_equal(SYS34.f_eval(t, d, x[:2], u),
                                  f34_ref(t, d, x[:2], u))
            d47 = d / 4.0  # inside [-0.5, 0.5]
            assert np.array_equal(SYS47.f_eval(t, d47, x, u),
                                  f47_ref(t, d47, x, u))


class TestSimulate:
    def test_hand_recursion_doubling(self):
        traj = simulate(SYS23, 0, [1.0, 1.0], ConstantDisturbance([2.0]),
                        horizon=7)
        assert np.array_equal(traj.x[:, 0], 2.0 ** np.arange(8))
        assert traj.x[7, 1] == 0.25  # x2(7) = 2^{1 - 6/2}
        # replay the same recursion by hand
        x = np.array([1.0, 1.0])
        for i in range(7):
            x = f23_ref(float(i), [2.0], x)
            assert np.array_equal(traj.x[i + 1], x)

    def test_zero_initial_state_stays_zero(self):
        traj = simulate(SYS23, 3, [0.0, 0.0], RandomDisturbance(seed=5),
                        horizon=20)
        assert np.all(traj.x == 0.0) and np.all(traj.Y == 0.0)

    def test_component_doubling_bound_with_equality(self):
        traj = simulate(SYS34, 0, [1.0, 0.0], ConstantDisturbance([2.0]),
                        ZeroInput(), horizon=40)
        n0 = vecnorm(traj.x0)
        assert np.array_equal(np.abs(traj.x[:, 0]),
                              2.0 ** np.arange(41) * n0)

    def test_rows_and_outputs(self):
        traj = simulate(SYS47, 2, [1.0, 2.0, 3.0], ConstantDisturbance([0.5]),
                        ConstantInput([-4.0]), horizon=3)
        assert len(traj) == 4
        assert list(traj.t) == [2, 3, 4, 5]
        assert np.array_equal(traj.Y[0], [1.0, 2.0, 3.0])  # Y = full state
        assert np.array_equal(traj.y[0], [1.0])            # measured = x1

    def test_replay_reproduces_states_exactly(self):
        traj = simulate(SYS34, 1, [0.7, -0.3],
                        GreedyDisturbance(grid=5, seed=9),
                        ConstantInput([0.25]), horizon=30)
        x = traj.x[0]
        for i in range(len(traj) - 1):
            x = step(SYS34, int(traj.t[i]), x, traj.d[i], traj.u[i])
            assert np.array_equal(x, traj.x[i + 1])

    def test_seeded_determinism(self):
        a = simulate(SYS23, 0, [1.0, 0.5], RandomDisturbance(seed=11), horizon=25)
        b = simulate(SYS23, 0, [1.0, 0.5], RandomDisturbance(seed=11), horizon=25)
        c = simulate(SYS23, 0, [1.0, 0.5], RandomDisturbance(seed=12), horizon=25)
        assert np.array_equal(a.x, b.x) and np.array_equal(a.d, b.d)
        assert not np.array_equal(a.d, c.d)


class TestClosedLoop:
    def test_zero_feedback_recovers_unforced_plant(self):
        cl = closed_loop(SYS34, ["0"])
        for t in (0, 1, 5):
            for d in ([-2.0], [1.3]):
                for x in ([1.0, 0.0], [-3.0, 2.0]):
                    assert np.array_equal(cl.f_eval(t, d, x),
                                          SYS23.f_eval(t, d, x))

    def test_feedback_absorbed(self):
        cl = closed_loop(SYS47, ["-x2^2"])
        assert cl.k == 0
        got = cl.f_eval(0, [0.5], [1.0, 2.0, 3.0])
        assert np.array_equal(got, [2.0, 0.0, 3.5])

    def test_unforced_system_returned_unchanged(self):
        assert closed_loop(SYS23, ["0"]) is SYS23

    def test_closed_loop_equals_policy_simulation(self):
        # the substitution against the feedback played as a policy through
        # the tree walker
        cl = closed_loop(SYS47, ["-x2^2"])
        t1 = simulate(cl, 0, [1.0, 2.0, 3.0], RandomDisturbance(seed=3),
                      horizon=15)
        t2 = simulate(SYS47, 0, [1.0, 2.0, 3.0], RandomDisturbance(seed=3),
                      TreeFeedback(["-x2^2"], n=3), horizon=15)
        assert np.array_equal(t1.x, t2.x)
        assert np.array_equal(t1.Y, t2.Y)

    def test_equilibrium_breaking_feedback_warns(self):
        with pytest.warns(EquilibriumWarning):
            closed_loop(SYS47, ["1 + x2"])


class TestReachableBound:
    def test_zero_radius(self):
        rb = reachable_bound(SYS23, 0.0, 4)
        assert np.array_equal(rb.rho, np.zeros(5))

    def test_linear_contraction(self):
        sys = SystemDef(n=1, m=0, k=0, d_box=np.zeros((0, 2)),
                        f=["0.5*x1"], H=["x1"], name="halving")
        rb = reachable_bound(sys, 1.0, 4)
        assert np.array_equal(rb.rho, 0.5 ** np.arange(5))

    def test_planar_one_step_radius(self):
        rb = reachable_bound(SYS23, 1.0, 1)
        assert rb.rho[0] == 1.0
        assert rb.rho[1] == math.sqrt(8.0)
        wit = rb.witnesses[1]
        assert abs(wit["d"][0]) == 2.0 and abs(wit["x"][0]) == 1.0

    def test_bounds_every_sampled_trajectory(self):
        T, r = 4, 1.0
        cfg = SampleConfig(d_grid=9, d_random=8, x_directions=24,
                           u_directions=4)
        for sys, upol in ((SYS23, None), (SYS34, ConstantInput([1.0]))):
            rb = reachable_bound(sys, r, T, sample_cfg=cfg)
            rng = np.random.default_rng(0)
            for trial in range(20):
                t0 = int(rng.integers(0, T + 1))
                direction = rng.standard_normal(2)
                x0 = direction / np.linalg.norm(direction) * r
                traj = simulate(sys, t0, x0, RandomDisturbance(seed=trial),
                                upol, horizon=T)
                for k in range(T + 1):
                    assert vecnorm(traj.x[k]) <= rb.rho[k] * (1 + 1e-12)


class TestCSV:
    def test_header_and_roundtrip(self, tmp_path):
        traj = simulate(SYS34, 0, [0.1, -0.2], RandomDisturbance(seed=2),
                        ConstantInput([0.3]), horizon=9)
        path = tmp_path / "traj.csv"
        traj.write_csv(path)
        text = path.read_text().splitlines()
        assert text[0] == "t,x1,x2,d1,u1,Y1,y1"
        back = Trajectory.read_csv(path)
        assert np.array_equal(back.x, traj.x)
        assert np.array_equal(back.d, traj.d)
        assert np.array_equal(back.u, traj.u)
        assert list(back.t) == list(traj.t)

    def test_seventeen_significant_digits(self, tmp_path):
        traj = simulate(SYS23, 0, [1 / 3, 0.1], ConstantDisturbance([2.0]),
                        horizon=1)
        path = tmp_path / "t.csv"
        traj.write_csv(path)
        assert "0.33333333333333331" in path.read_text()


class TestSystemFile:
    DOC23 = """{
        "n": 2, "m": 1, "k": 0,
        "d_box": [[-2, 2]],
        "f": ["d1*x1", "2^(-t)*d1*abs(x1)^0.5"],
        "H": ["x2"],
        "name": "sqrt-plant"
    }"""

    def test_parse_planar(self):
        sys = parse_system_file(self.DOC23)
        assert (sys.n, sys.m, sys.k) == (2, 1, 0)
        assert np.array_equal(sys.d_box, [[-2.0, 2.0]])
        assert sys.p_Y == sys.p_y == 1
        assert np.array_equal(sys.f_eval(0, [2.0], [1.0, 0.0]), [2.0, 2.0])

    def test_parse_with_input_and_measured_output(self):
        doc = {
            "n": 3, "m": 1, "k": 1, "d_box": [[-0.5, 0.5]],
            "f": ["x2", "x2^2 + u1", "d1*x3 + exp(t)*x2"],
            "H": ["x1", "x2", "x3"], "h": ["x1"], "name": "chain",
        }
        sys = parse_system_file(doc)
        assert (sys.n, sys.m, sys.k, sys.p_Y, sys.p_y) == (3, 1, 1, 3, 1)

    def test_wrong_f_length(self):
        with pytest.raises(SystemFileError, match="components"):
            parse_system_file({"n": 2, "m": 1, "k": 0, "d_box": [[-1, 1]],
                               "f": ["x1"], "H": ["x1"]})

    def test_declared_output_dimension_must_match_expressions(self):
        # the output widths are the expression counts, not declared
        sys = SystemDef(n=2, m=1, k=0, d_box=[[-1, 1]], f=["x1", "x2"],
                        H=["x1", "x2", "x1*x2"], h=["x2"])
        assert (sys.p_Y, sys.p_y) == (3, 1)
        with pytest.raises(TypeError, match="p_Y"):
            SystemDef(n=1, m=1, k=0, d_box=[[-1, 1]], f=["x1"], H=["x1"], p_Y=2)

    def test_maps_are_not_evaluated_at_construction(self):
        # H is undefined at x = 0; only a point evaluation raises
        sys = SystemDef(n=1, m=1, k=0, d_box=[[-1, 1]], f=["d1*x1"],
                        H=["log(x1)"])
        assert sys.H_eval(0, [1.0]).tolist() == [0.0]
        with pytest.raises(ExprDomainError):
            sys.H_eval(0, [0.0])

    def test_missing_keys(self):
        with pytest.raises(SystemFileError, match="missing keys"):
            parse_system_file({"n": 1})

    def test_equilibrium_spot_check_warns(self):
        doc = {"n": 1, "m": 1, "k": 0, "d_box": [[-1, 1]],
               "f": ["x1 + 1"], "H": ["x1"], "name": "shifted"}
        with pytest.warns(EquilibriumWarning, match="shifted"):
            parse_system_file(doc)

    def test_clean_parse_emits_no_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            parse_system_file(self.DOC23)


class TestPolicyProperties:
    def test_every_emitted_disturbance_stays_in_box(self):
        box = SYS23.d_box
        policies = [
            ConstantDisturbance([1.5]),
            RandomDisturbance(seed=3, mode="interior"),
            RandomDisturbance(seed=4, mode="corner"),
            RandomDisturbance(seed=5, mode="mixed"),
            GreedyDisturbance(grid=5, seed=6),
        ]
        rng = np.random.default_rng(0)
        for pol in policies:
            for _ in range(300):
                x = rng.uniform(-5, 5, size=2)
                d = pol(SYS23, int(rng.integers(0, 20)), x, np.zeros(0))
                assert box[0, 0] <= d[0] <= box[0, 1], pol.descriptor()

    def test_sequence_input_pads_with_zero(self):
        pol = SequenceInput([[1.0], [2.0]], t0=3)
        assert pol(SYS34, 3, None)[0] == 1.0
        assert pol(SYS34, 4, None)[0] == 2.0
        assert pol(SYS34, 9, None)[0] == 0.0


def test_csv_roundtrip_with_register_columns(tmp_path):
    from dtstab.registry import example_4_7
    from dtstab.synth import run_output_feedback
    b = example_4_7(0.5)
    traj, _ = run_output_feedback(b.sys, b.controller, 0, [1.0, 2.0, 3.0],
                                  dpol=ConstantDisturbance([0.5]), horizon=6)
    path = tmp_path / "w.csv"
    traj.write_csv(path)
    back = Trajectory.read_csv(path)
    assert np.array_equal(back.w, traj.w)
    assert np.array_equal(back.x, traj.x)
