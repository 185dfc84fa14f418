import math

import numpy as np
import pytest

import dtstab.stability as stability
from dtstab.comparison import (KFn, KLEnvelope, TimeGain, check_domination,
                               constant, geometric, identity, kfn_from_expr,
                               linear, power_fn, sup_f_sampler,
                               timegain_from_expr)
from dtstab.registry import example_2_3, example_3_4, example_4_7
from dtstab.stability import (FalsifyBudget, adversarial_batch,
                              build_small_input_system, check_ios_estimate,
                              check_kl_estimate, falsify)
from dtstab.stability import test_output_attractivity as search_attractivity
from dtstab.stability import test_output_stability as search_stability
from dtstab.system import (ConstantDisturbance, ConstantInput,
                           SampleConfig, SystemDef, Trajectory, simulate,
                           vecnorm)

B23 = example_2_3()
B34 = example_3_4()


def tiny_sys(update, n=1, H=None):
    return SystemDef(n=n, m=0, k=0, d_box=np.zeros((0, 2)), f=[update],
                     H=H or ["x1"])


class TestOutputStability:
    def test_planar_threshold_quarter(self):
        rep = search_stability(B23.sys, eps=1.0, T=0,
                                    budget=FalsifyBudget(max_trajectories=24,
                                                         horizon=40))
        # worst searched output is 2 sqrt(delta), so the edge sits at 0.25
        assert rep.passed
        assert 0.2499 <= rep.delta <= 0.25
        assert rep.bracket[0] <= 0.25 <= rep.bracket[1] * (1 + 1e-9)

    def test_zero_system_returns_cap(self):
        # dead state and identically zero output: every delta passes
        rep = search_stability(tiny_sys("0", H=["0"]), eps=1.0, T=2,
                                    budget=FalsifyBudget(max_trajectories=8,
                                                         horizon=10))
        assert rep.delta == 1e6
        assert "delta_cap passes outright" in rep.notes[-1]

    def test_doubling_system_has_counterexample(self):
        sys = tiny_sys("2*x1")
        rep = search_stability(sys, eps=1.0, T=0,
                                    budget=FalsifyBudget(max_trajectories=8,
                                                         horizon=40))
        assert not rep.passed and rep.delta is None
        ce = rep.counterexample
        assert ce is not None
        peak = max(abs(v) for v in ce.Y[:, 0])
        assert peak > 1.0
        # the counterexample replays to the same violation
        x = ce.x[0]
        replay_peak = abs(sys.H_eval(ce.t0, x)[0])
        for i in range(len(ce) - 1):
            x = sys.f_eval(int(ce.t[i]), ce.d[i], x)
            replay_peak = max(replay_peak, abs(sys.H_eval(int(ce.t[i + 1]), x)[0]))
        assert replay_peak == peak > 1.0

    def test_delta_monotone_in_eps(self):
        budget = FalsifyBudget(max_trajectories=16, horizon=40)
        deltas = [search_stability(B23.sys, eps, 0, budget=budget).delta
                  for eps in (2.0, 1.0, 0.5)]
        assert deltas[0] >= deltas[1] >= deltas[2]

    def test_deterministic(self):
        budget = FalsifyBudget(max_trajectories=12, horizon=30)
        a = search_stability(B23.sys, 1.0, 0, budget=budget)
        b = search_stability(B23.sys, 1.0, 0, budget=budget)
        assert a.delta == b.delta


class TestOutputAttractivity:
    def test_planar_tau_is_ten(self):
        rep = search_attractivity(B23.sys, eps=0.1, T=0, R=1.0,
                                       budget=FalsifyBudget(
                                           max_trajectories=48, horizon=120))
        assert rep.attained and rep.tau == 10

    def test_zero_radius(self):
        rep = search_attractivity(B23.sys, eps=0.5, T=3, R=0.0,
                                       budget=FalsifyBudget(max_trajectories=8,
                                                            horizon=30))
        assert rep.attained and rep.tau == 0

    def test_closed_loop_three_state_finite_tau(self):
        b = example_4_7(0.5)
        rep = search_attractivity(b.closed, eps=0.01, T=0, R=1.0,
                                       budget=FalsifyBudget(
                                           max_trajectories=32, horizon=60))
        assert rep.attained
        assert 2 <= rep.tau <= 25

    def test_growing_system_not_attained(self):
        rep = search_attractivity(tiny_sys("2*x1"), eps=1.0, T=0, R=1.0,
                                       budget=FalsifyBudget(max_trajectories=8,
                                                            horizon=30))
        assert not rep.attained
        assert rep.counterexample is not None


class TestKLEstimate:
    def batch23(self, n=200, radius=1.0, horizon=60, seed=42):
        return adversarial_batch(B23.sys, (0,), radius,
                                 FalsifyBudget(max_trajectories=n,
                                               horizon=horizon, seed=seed))

    def test_planar_batch_dominated_by_linear_envelope(self):
        rep = check_kl_estimate(self.batch23(), B34.sigma, constant(1.0))
        assert rep.passed, rep.to_json()

    def test_zero_trajectory_trivially_passes(self):
        traj = simulate(B23.sys, 0, [0.0, 0.0], horizon=10)
        rep = check_kl_estimate([traj], KLEnvelope(0.01, 1.0), constant(1.0))
        assert rep.passed and rep.worst_ratio == 0.0

    def test_shrunken_envelope_fails_at_start(self):
        tiny = KLEnvelope(0.01, 1.0)
        traj = simulate(B23.sys, 0, [0.0, 1.0], horizon=10)
        rep = check_kl_estimate([traj], tiny, constant(1.0))
        assert not rep.passed
        assert rep.witness["t"] == rep.witness["t0"]


class TestIOSEstimate:
    def test_driven_from_origin(self):
        traj = simulate(B34.sys, 0, [0.0, 0.0], ConstantDisturbance([2.0]),
                        ConstantInput([3.0]), horizon=30)
        rep = check_ios_estimate([traj], B34.sigma, constant(1.0), B34.rho,
                                 B34.gamma)
        assert rep.passed

    def test_zero_input_matches_kl_row_for_row(self):
        batch = adversarial_batch(B34.sys, (0,), 1.0,
                                  FalsifyBudget(max_trajectories=40,
                                                horizon=40),
                                  u_modes=("zero",))
        ios = check_ios_estimate(batch, B34.sigma, constant(1.0), B34.rho,
                                 B34.gamma)
        kl = check_kl_estimate(batch, B34.sigma, constant(1.0))
        assert ios.passed == kl.passed
        assert ios.worst_margin == kl.worst_margin
        assert ios.worst_ratio == kl.worst_ratio
        assert ios.witness == kl.witness

    def test_sup_form_with_undersized_gain_fails(self):
        c = B34.sigma.c
        gain = 2.0 * math.exp(2 * c) / (math.exp(c) - 1.0)
        zeta_small = linear(1e-3 * gain)
        traj = simulate(B34.sys, 0, [0.0, 0.0], ConstantDisturbance([2.0]),
                        ConstantInput([3.0]), horizon=30)
        rep = check_ios_estimate([traj], B34.sigma, constant(1.0),
                                 form="sup", zeta=zeta_small,
                                 delta=constant(1.0))
        assert not rep.passed

    def test_nan_input_fails(self):
        # a NaN fresh term wins the running term and the row's bound, which
        # Python max (keeping its finite first argument) passed over
        Y = np.array([[1.0], [0.5], [0.25], [0.1]])
        traj = Trajectory(t0=0, t=np.arange(4),
                          x=np.array([[1.0], [0.0], [0.0], [0.0]]),
                          d=np.zeros((4, 0)),
                          u=np.array([[0.0], [math.nan], [0.0], [0.0]]), Y=Y, y=Y)
        rep = check_ios_estimate([traj], KLEnvelope(2, 0.5), rho=identity(),
                                 gamma=constant(1.0))
        assert not rep.passed
        assert math.isnan(rep.worst_margin)
        assert rep.witness["t"] == 1

    def test_sup_form_with_adequate_gain_passes(self):
        c = B34.sigma.c
        gain = 2.0 * math.exp(2 * c) / (math.exp(c) - 1.0)
        traj = simulate(B34.sys, 0, [0.0, 0.0], ConstantDisturbance([2.0]),
                        ConstantInput([3.0]), horizon=30)
        rep = check_ios_estimate([traj], B34.sigma, constant(1.0),
                                 form="sup", zeta=linear(gain),
                                 delta=constant(1.0))
        assert rep.passed


def loop_ios_bounds(traj, sigma, beta, rho=None, gamma=None, form="max",
                    zeta=None, delta=None):
    """``check_ios_estimate``'s bounds as its per-row loop computed them
    before the rows became arrays (finite inputs; Python ``max`` passes over
    a NaN fresh term, which the array form no longer does)."""
    n_rows = len(traj)
    decay = sigma.decay_series(beta(traj.t0) * vecnorm(traj.x0), n_rows)
    bounds = np.empty(n_rows)
    run = -math.inf
    for i in range(n_rows):
        tau = float(traj.t[i])
        nu = vecnorm(traj.u[i]) if traj.u.shape[1] else 0.0
        if form == "max":
            fresh = sigma(beta(tau) * rho(gamma(tau) * nu), 0)
            run = fresh if i == 0 else max(run * sigma.g, fresh)
        else:
            fresh = zeta(delta(tau) * nu)
            run = fresh if i == 0 else max(run, fresh)
        bounds[i] = max(decay[i], run)
    return bounds


TWO_INPUTS = SystemDef(n=2, m=1, k=2, d_box=[[-0.5, 0.5]],
                       f=["0.6*x1 + 0.2*d1*x2 + u1", "0.5*x2 - 0.1*x1 + u2*u1/4"],
                       H=["x1", "x2"])
# each gain with its formula and as a bare callable (evaluated per element)
EXPR_GAINS = dict(beta=timegain_from_expr("1 + 2^(-t)"),
                  gamma=geometric(1.5, 0.9), rho=kfn_from_expr("s + s^1.5"),
                  delta=timegain_from_expr("1 + 1/(t + 2)"),
                  zeta=power_fn(1.2, 4.0))
NATIVE_GAINS = dict(beta=TimeGain(lambda t: 1 + 2.0 ** -t),
                    gamma=TimeGain(lambda t: 1.5 * 0.9 ** t),
                    rho=KFn(lambda s: s + s ** 1.5),
                    delta=TimeGain(lambda t: 1 + 1 / (t + 2)),
                    zeta=KFn(lambda s: 4.0 * s ** 1.2))
ENVELOPES = {"closed": KLEnvelope(3.0, 0.4),
             "fn": KLEnvelope(3.0, 0.4,
                              fn=lambda s, t: 2.0 * s * (1.0 + s) / (1.0 + t))}


class TestIOSBoundsMatchLoop:
    """The array bounds equal the per-row loop's bit for bit, and so do the
    reports built from them."""

    @pytest.mark.parametrize("form", ["max", "sup"])
    @pytest.mark.parametrize("gains", [EXPR_GAINS, NATIVE_GAINS],
                             ids=["expr", "native"])
    @pytest.mark.parametrize("envelope", sorted(ENVELOPES))
    @pytest.mark.parametrize("sys", [B23.sys, B34.sys, TWO_INPUTS],
                             ids=["k0", "k1", "k2"])
    def test_bounds_and_report(self, form, gains, envelope, sys):
        sigma = ENVELOPES[envelope]
        budget = FalsifyBudget(max_trajectories=12, horizon=25, seed=3, u_cap=2.0)
        batch = adversarial_batch(sys, (0, 4, 9), 1.0, budget,
                                  u_modes=("zero", "constant", "random"))
        assert {traj.t0 for traj in batch} == {0, 4, 9}
        if form == "max":
            kw = dict(rho=gains["rho"], gamma=gains["gamma"])
        else:
            kw = dict(zeta=gains["zeta"], delta=gains["delta"])
        want = [loop_ios_bounds(traj, sigma, gains["beta"], form=form, **kw)
                for traj in batch]
        for traj, ref in zip(batch, want):
            got = stability._ios_bounds(traj, sigma, gains["beta"], kw.get("rho"),
                                        kw.get("gamma"), form, kw.get("zeta"),
                                        kw.get("delta"))
            assert got.dtype == ref.dtype and got.shape == ref.shape
            assert np.array_equal(got.view(np.int64), ref.view(np.int64))
        for tol in (1e-9, 0.0):
            rep = check_ios_estimate(batch, sigma, gains["beta"], form=form,
                                     tol=tol, **kw)
            ref = stability._row_check(form, want, batch, tol)
            assert rep == ref

    def test_undersized_gain_fails_at_the_same_row(self):
        batch = adversarial_batch(B34.sys, (0, 2), 1.0,
                                  FalsifyBudget(max_trajectories=16, horizon=30),
                                  u_modes=("constant", "random"))
        small = KLEnvelope(0.05, 0.4)
        rep = check_ios_estimate(batch, small, constant(1.0), linear(0.01),
                                 constant(1.0))
        want = [loop_ios_bounds(traj, small, constant(1.0), linear(0.01),
                                constant(1.0)) for traj in batch]
        assert not rep.passed
        assert rep == stability._row_check("max", want, batch, 1e-9)


class TestSmallInputSystem:
    def test_substitution_matches_direct_input(self):
        small = build_small_input_system(B34.sys, constant(1.0), identity())
        assert small.k == 0 and small.m == 2
        assert np.array_equal(small.d_box[1], [-1.0, 1.0])
        rng = np.random.default_rng(8)
        for _ in range(100):
            t = float(rng.integers(0, 20))
            x = rng.uniform(-10, 10, size=2)
            d = rng.uniform(-2, 2)
            dp = rng.uniform(-1, 1)
            got = small.f_eval(t, [d, dp], x)
            want = B34.sys.f_eval(t, [d], x, [vecnorm(x) * dp])
            assert np.array_equal(got, want)

    def test_equilibrium_preserved(self):
        small = build_small_input_system(B34.sys, constant(1.0), identity())
        assert not small.check_equilibrium()

    def test_growth_hypothesis_transfers(self):
        small = build_small_input_system(B34.sys, constant(1.0), identity())
        zeta = kfn_from_expr("3*s + 2*sqrt(s)")
        cfg = SampleConfig(d_grid=5, d_random=8, x_directions=6,
                           x_scales=(1.0, 0.5), t_cap=8)
        rep = check_domination(sup_f_sampler(small, cfg), zeta, constant(1.0),
                               Ts=(0, 2, 5, 10), ss=np.logspace(-4, 4, 15))
        assert rep.passed, rep.to_json()


class TestFalsify:
    def test_envelope_withstands_search(self):
        rep = falsify(B23.sys, B34.sigma, constant(1.0),
                      budget=FalsifyBudget(max_trajectories=1000, horizon=60))
        assert rep.ratio <= 1.0
        assert not rep.violated

    def test_shrunken_envelope_violated_early(self):
        small = KLEnvelope(B34.sigma.C * 0.01, B34.sigma.c)
        rep = falsify(B23.sys, small, constant(1.0),
                      budget=FalsifyBudget(max_trajectories=100, horizon=60))
        assert rep.violated
        assert rep.witness["t"] - rep.witness["t0"] <= 1

    def test_zero_budget_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            falsify(B23.sys, B34.sigma, budget=FalsifyBudget(max_trajectories=0))

    def test_ratio_nondecreasing_in_budget(self):
        ratios = [falsify(B23.sys, B34.sigma, constant(1.0),
                          budget=FalsifyBudget(max_trajectories=n,
                                               horizon=40)).ratio
                  for n in (50, 100, 200)]
        assert ratios[0] <= ratios[1] <= ratios[2]

    def test_ios_claim_searched_with_inputs(self):
        rep = falsify(B34.sys, B34.sigma, constant(1.0), B34.rho, B34.gamma,
                      budget=FalsifyBudget(max_trajectories=200, horizon=40))
        assert rep.form == "ios"
        assert rep.ratio <= 1.0

    def test_report_json(self):
        rep = falsify(B23.sys, B34.sigma, constant(1.0),
                      budget=FalsifyBudget(max_trajectories=10, horizon=20))
        js = rep.to_json()
        for key in ("ratio", "violated", "witness", "n_trajectories"):
            assert key in js
