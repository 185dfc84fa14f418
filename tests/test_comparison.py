import math

import numpy as np

from dtstab.comparison import (ClassGrid, KFn, KLEnvelope, check_domination,
                               constant, fit_kl_envelope, geometric, identity,
                               kfn_from_expr, linear, power_fn, sup_f_sampler,
                               timegain_from_expr, validate_class)
from dtstab.registry import C_IOS, K_IOS, example_2_3
from dtstab.stability import FalsifyBudget, adversarial_batch
from dtstab.system import Trajectory


def make_traj(t0, x0, Y_vals, u_vals=None):
    """Minimal trajectory carrying only what envelope fitting reads."""
    N = len(Y_vals)
    x = np.zeros((N, len(x0)))
    x[0] = x0
    u = np.zeros((N, 0)) if u_vals is None else np.asarray(u_vals, float).reshape(N, -1)
    Y = np.asarray(Y_vals, dtype=float).reshape(N, -1)
    return Trajectory(t0=t0, t=np.arange(t0, t0 + N), x=x,
                      d=np.zeros((N, 0)), u=u, Y=Y, y=Y)


# The six canonical class-validation fixtures.
def fixture_results():
    bounded = kfn_from_expr("s/(1+s)", tag="Kinf")
    bounded_k = kfn_from_expr("s/(1+s)", tag="K")
    shifted = kfn_from_expr("s + 1", tag="K")
    envelope = KLEnvelope(6.0 * K_IOS, C_IOS)
    flat_q = constant(1.0)
    flat_q.decays = True
    return [
        ("identity-Kinf", validate_class(identity()), True),
        ("bounded-Kinf", validate_class(bounded), False),
        ("bounded-K", validate_class(bounded_k), True),
        ("envelope-KL", validate_class(envelope), True),
        ("shifted-K", validate_class(shifted), False),
        ("flat-decaying-q", validate_class(flat_q), False),
    ]


class TestValidateClass:
    def test_six_canonical_fixtures(self):
        for name, report, expected in fixture_results():
            assert report.passed == expected, (name, report.to_json())

    def test_failure_carries_witness(self):
        rep = validate_class(kfn_from_expr("s/(1+s)", tag="Kinf"))
        fails = rep.failures()
        assert fails and fails[0].axiom == "unbounded"
        assert fails[0].witness["value"] <= fails[0].witness["target"]

    def test_zero_at_zero_witness(self):
        rep = validate_class(kfn_from_expr("s + 1", tag="K"))
        assert rep.failures()[0].axiom == "zero_at_zero"
        assert rep.failures()[0].witness == {"value": 1.0}

    def test_failure_witness_survives_grid_refinement(self):
        # a non-monotone map fails; the same witness pair fails on finer grids
        wobble = KFn(lambda s: s - 0.4 * math.sin(4 * s), "wobble", "K")
        coarse = validate_class(wobble, ClassGrid(s_lo=0.1, s_hi=10, s_points=30))
        fine = validate_class(wobble, ClassGrid(s_lo=0.1, s_hi=10, s_points=300))
        assert not coarse.passed and not fine.passed
        w = coarse.failures()[0].witness
        assert wobble(w["s2"]) <= wobble(w["s1"])  # still a violation

    def test_positive_time_gain(self):
        assert validate_class(constant(2.0)).passed
        assert validate_class(timegain_from_expr("5*exp(t)")).passed
        cos_gain = timegain_from_expr("1 - t")  # hits zero at t = 1
        assert not validate_class(cos_gain).passed

    def test_geometric_decay_analytic(self):
        assert validate_class(geometric(7.5, 0.68)).passed
        grower = geometric(1.0, 1.5)
        grower.decays = True
        assert not validate_class(grower).passed


class TestKFn:
    def test_linear_inverse(self):
        a3 = linear(0.25)
        assert a3.inverse(1.0) == 4.0

    def test_bisection_inverse(self):
        f = kfn_from_expr("s + sqrt(s)")
        assert abs(f.inverse(2.0) - 1.0) < 1e-12

    def test_power(self):
        f = power_fn(0.5, 2.0)
        assert f(4.0) == 4.0
        assert abs(f.inverse(4.0) - 4.0) < 1e-12


class TestKLEnvelope:
    def test_exact_per_step_decay(self):
        env = KLEnvelope(6.0 * K_IOS, C_IOS)
        g = math.exp(-env.c)
        for s in (1e-9, 0.5, 1.0, 73.2, 1e9):
            assert env(s, 0) == env.C * s
            for t in range(0, 60):
                assert env(s, t + 1) == g * env(s, t)

    def test_zero_at_zero(self):
        env = KLEnvelope(3.0, 0.2)
        assert all(env(0.0, t) == 0.0 for t in range(50))

    def test_decay_series_matches_pointwise(self):
        env = KLEnvelope(2.5, 0.31)
        series = env.decay_series(1.7, 40)
        assert all(series[t] == env(1.7, t) for t in range(40))


class TestFitKLEnvelope:
    def test_recovers_synthetic_exponential(self):
        batch = []
        for s in (0.5, 1.0, 2.0, 7.0):
            Y = [5.0 * math.exp(-0.3 * t) * s for t in range(40)]
            batch.append(make_traj(0, [s], Y))
        fit = fit_kl_envelope(batch)
        assert fit.ok
        assert abs(fit.C - 5.0) / 5.0 < 0.01
        assert abs(fit.c - 0.3) / 0.3 < 0.01

    def test_all_zero_batch_is_degenerate(self):
        batch = [make_traj(0, [1.0], [0.0] * 10)]
        fit = fit_kl_envelope(batch)
        assert fit.degenerate and fit.C == 0.0

    def test_growing_data_flags_failure(self):
        Y = [0.1 * 2.0 ** t for t in range(20)]
        fit = fit_kl_envelope([make_traj(0, [1.0], Y)])
        assert fit.failed and fit.c <= 0.0

    def test_nan_row_fails_the_fit(self):
        fit = fit_kl_envelope([make_traj(0, [1.0], [1.0, 0.5, 0.25, math.nan])])
        assert fit.failed and not fit.ok
        assert fit.notes == ["NaN output norm at trajectory 0, t - t0 = 3"]
        batch = [make_traj(0, [1.0], [1.0, 0.5]),
                 make_traj(2, [1.0], [1.0, math.nan, 0.5, math.nan])]
        assert fit_kl_envelope(batch).notes == [
            "NaN output norm at trajectory 1, t - t0 = 1"]

    def test_domination_point_by_point_on_simulated_batch(self):
        bundle = example_2_3()
        budget = FalsifyBudget(max_trajectories=200, horizon=40, seed=7)
        batch = adversarial_batch(bundle.sys, (0,), 2.0, budget)
        fit = fit_kl_envelope(batch)
        assert fit.c > 0.0  # output-stable plant: decay must appear
        for traj in batch:
            scale = fit.envelope.beta(traj.t0) * np.linalg.norm(traj.x0)
            bounds = fit.envelope.decay_series(scale, len(traj))
            norms = np.abs(traj.Y[:, 0])
            assert np.all(norms <= bounds)
        assert fit.max_slack >= 0.0
        assert fit.witness["slack"] >= 0.0

    def test_envelope_report_json_keys(self):
        fit = fit_kl_envelope([make_traj(0, [1.0],
                                         [math.exp(-t) for t in range(10)])])
        js = fit.to_json()
        for key in ("C", "c", "beta", "max_slack", "witness"):
            assert key in js


class TestCheckDomination:
    def test_product_dominated_by_shifted_gain(self):
        rep = check_domination(lambda T, s: T * s, identity(),
                               timegain_from_expr("t + 1"))
        assert rep.passed

    def test_exponential_escapes_affine_gain(self):
        rep = check_domination(lambda T, s: math.exp(T) * s, identity(),
                               timegain_from_expr("t + 1"))
        assert not rep.passed
        assert rep.witness["T"] >= 5

    def test_sampled_sup_of_planar_plant(self):
        sys = example_2_3().sys
        zeta = kfn_from_expr("2*s + 2*sqrt(s)")
        rep = check_domination(sup_f_sampler(sys), zeta, constant(1.0))
        assert rep.passed, rep.to_json()


class TestGeneralFormEnvelope:
    def test_two_argument_expression_form(self):
        # general fn loses the exact-recursion guarantee but validates
        env = KLEnvelope(1.0, 0.5,
                         fn=lambda s, t: 3.0 * s / (1.0 + s) * math.exp(-0.5 * t))
        rep = validate_class(env)
        assert rep.passed
        assert env(2.0, 0.0) == 2.0
        flat = KLEnvelope(1.0, 0.5, fn=lambda s, t: s)  # no decay in t
        assert not validate_class(flat).passed
