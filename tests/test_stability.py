import itertools
import json
import math

import numpy as np
import pytest

import dtstab.stability as stability
from dtstab.comparison import (KLEnvelope, check_domination,
                               constant, geometric, identity, kfn_from_expr,
                               linear, power_fn, sup_f_sampler,
                               timegain_from_expr)
from dtstab.expr import ExprDomainError
from dtstab.registry import example_2_3, example_3_4, example_4_7
from dtstab.stability import (EnvelopeReport, FalsifyBudget, FalsifyReport,
                              adversarial_batch, build_small_input_system,
                              check_ios_estimate, check_kl_estimate, falsify)
from dtstab.stability import test_output_attractivity as search_attractivity
from dtstab.stability import test_output_stability as search_stability
from dtstab.system import (FAIL, ConstantDisturbance, ConstantInput,
                           SampleConfig, SystemDef, Trajectory, WorstMargin,
                           _beats, first_max, row_norms, simulate, vecnorm)

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

    def test_delay_chain_loop_finite_tau(self):
        # the plant under the dynamic output feedback, one unforced system
        # over (x, w) that the search takes as it is
        b = example_4_7(0.5)
        loop = b.controller.closed_loop(b.sys)
        assert (loop.n, loop.k) == (5, 0)
        rep = search_attractivity(loop, eps=0.01, T=2, R=1.0,
                                  budget=FalsifyBudget(max_trajectories=24,
                                                       horizon=60))
        assert rep.attained and 0 < rep.tau < 60

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


def traj_ios_bounds(traj, sigma, beta, rho, gamma, form, zeta, delta):
    """``_ios_bounds`` of one trajectory as it was computed before batches:
    fresh terms as arrays, the running-term recurrence over plain floats
    (a NaN fresh term wins)."""
    tau = traj.t.astype(float)
    nu = row_norms(traj.u)
    if form == "max":
        lead = beta.values(tau) * rho.values(gamma.values(tau) * nu)
        fresh = (float(sigma.C) * lead).tolist()  # sigma(lead, 0)
        g = sigma.g
    else:
        fresh = zeta.values(delta.values(tau) * nu).tolist()
        g = 1.0
    runs = fresh[:1]
    for f in fresh[1:]:
        run = runs[-1] * g
        runs.append(f if f > run or f != f else run)
    run = np.array(runs, dtype=float)
    decay = sigma.decay_series(beta(traj.t0) * vecnorm(traj.x0), len(traj))
    return np.where((run > decay) | np.isnan(run), run, decay)


def traj_kl_bounds(traj, sigma, beta):
    return sigma.decay_series(beta(traj.t0) * vecnorm(traj.x0), len(traj))


def loop_row_check(form, bounds_per_traj, batch, tol):
    """``_row_check`` as it scanned before batches: one ratio scan and one
    ``WorstMargin.add`` a trajectory."""
    worst, worst_ratio = WorstMargin("trajectory rows"), 0.0
    for traj, bounds in zip(batch, bounds_per_traj):
        norms = row_norms(traj.Y)
        bounds = np.asarray(bounds, dtype=float)
        with np.errstate(divide="ignore", invalid="ignore"):
            ratios = np.where(norms == 0.0, 0.0,
                              np.where(bounds > 0.0, norms / bounds, math.inf))
        ratio, _ = first_max(ratios)
        if _beats(ratio, worst_ratio):
            worst_ratio = ratio
        worst.add(norms - bounds, bounds, lambda i: {
            "t": int(traj.t[i]), "t0": int(traj.t0), "x0": traj.x0.tolist(),
            "norm": float(norms[i]), "bound": float(bounds[i]), "meta": traj.meta})
    passed = worst.verdict(tol) != FAIL
    return EnvelopeReport(form, passed, worst_ratio, worst.margin, worst.witness,
                          worst.samples, tol)


def loop_falsify(sys, sigma, beta=None, rho=None, gamma=None, budget=None,
                 radius=1.0):
    """``falsify`` as it searched before batches: each trajectory checked
    on its own as it is yielded."""
    budget = budget or FalsifyBudget()
    beta = beta or sigma.beta
    ios = rho is not None and sys.k > 0
    u_modes = ("zero", "constant", "random") if ios else ("zero",)
    best, wit, count = 0.0, None, 0
    for traj in stability.search_trajectories(sys, (0,), radius, budget, u_modes):
        count += 1
        if ios:
            if gamma is None:
                raise ValueError("max form needs rho and gamma")
            bounds = traj_ios_bounds(traj, sigma, beta, rho, gamma, "max",
                                     None, None)
        else:
            bounds = traj_kl_bounds(traj, sigma, beta)
        rep = loop_row_check("ios" if ios else "kl", [bounds], [traj], 0.0)
        if _beats(rep.worst_ratio, best):
            best = rep.worst_ratio
            wit = rep.witness
    return FalsifyReport(best, wit, count, "ios" if ios else "kl", budget.seed,
                         notes=["ratio <= 1: no violation found within budget"])


def assert_same_bits(got, want):
    """Equal arrays bit for bit, NaNs at the same places (any sign)."""
    assert got.dtype == want.dtype and got.shape == want.shape
    nan = np.isnan(want)
    assert np.array_equal(np.isnan(got), nan)
    assert np.array_equal(got[~nan].view(np.int64), want[~nan].view(np.int64))


def dumps(rep):
    return json.dumps(rep.to_json(), sort_keys=True)


TWO_INPUTS = SystemDef(n=2, m=1, k=2, d_box=[[-0.5, 0.5]],
                       f=["0.6*x1 + 0.2*d1*x2 + u1", "0.5*x2 - 0.1*x1 + u2*u1/4"],
                       H=["x1", "x2"])
# gains from the factories and from text, and ("native") the same formulas
# all written as text, none a factory's
EXPR_GAINS = dict(beta=timegain_from_expr("1 + 2^(-t)"),
                  gamma=geometric(1.5, 0.9), rho=kfn_from_expr("s + s^1.5"),
                  delta=timegain_from_expr("1 + 1/(t + 2)"),
                  zeta=power_fn(1.2, 4.0))
TEXT_GAINS = dict(beta=timegain_from_expr("1 + 2^(-t)"),
                  gamma=timegain_from_expr("1.5*0.9^t"),
                  rho=kfn_from_expr("s + s^1.5"),
                  delta=timegain_from_expr("1 + 1/(t + 2)"),
                  zeta=kfn_from_expr("4*s^1.2"))
# decays of exp(-0.4) and exp(-1.2) a step
ENVELOPES = {"closed": KLEnvelope(3.0, 0.4), "fast": KLEnvelope(1.5, 1.2)}


class TestIOSBoundsMatchLoop:
    """The array bounds equal the per-row loop's bit for bit, and so do the
    reports built from them."""

    @pytest.mark.parametrize("form", ["max", "sup"])
    @pytest.mark.parametrize("gains", [EXPR_GAINS, TEXT_GAINS],
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
        args = (sigma, gains["beta"], kw.get("rho"), kw.get("gamma"), form,
                kw.get("zeta"), kw.get("delta"))
        for traj, ref in zip(batch, want):
            assert_same_bits(stability._ios_bounds([traj], *args), ref)
        assert_same_bits(stability._ios_bounds(batch, *args), np.concatenate(want))
        for tol in (1e-9, 0.0):
            rep = check_ios_estimate(batch, sigma, gains["beta"], form=form,
                                     tol=tol, **kw)
            ref = loop_row_check(form, want, batch, tol)
            assert rep == ref

    def test_max_form_is_the_sup_of_its_definition(self):
        # the row bound at t is max(sigma(beta(t0)|x0|, t - t0), max over
        # tau <= t of sigma(beta(tau) rho(gamma(tau)|u(tau)|), t - tau)),
        # every term one envelope call
        budget = FalsifyBudget(max_trajectories=8, horizon=10, seed=7, u_cap=2.0)
        batch = adversarial_batch(B34.sys, (0, 3), 1.0, budget, u_modes=("random",))
        sigma, beta = B34.sigma, B34.sigma.beta
        want = []
        for traj in batch:
            taus = [int(t) for t in traj.t]
            lead = [beta(tau) * B34.rho(B34.gamma(tau) * vecnorm(u))
                    for tau, u in zip(taus, traj.u)]
            start = beta(traj.t0) * vecnorm(traj.x0)
            want += [max(sigma(start, t - traj.t0),
                         max(sigma(lead[i], t - taus[i]) for i in range(row + 1)))
                     for row, t in enumerate(taus)]
        got = stability._ios_bounds(batch, sigma, beta, B34.rho, B34.gamma,
                                    "max", None, None)
        assert len(want) == 88 and np.abs(np.array(want)).max() > 0.0
        assert_same_bits(got, np.array(want))

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
        assert rep == loop_row_check("max", want, batch, 1e-9)


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


class TestSearchInputsRejected:
    def test_unknown_mix_entry(self):
        # "corners" once ran random adversaries under the meta "corners"
        for mix in (("corners",), ("corner", "Greedy"), ("random", None)):
            with pytest.raises(ValueError, match="unknown mix entry"):
                FalsifyBudget(mix=mix)

    def test_empty_mix(self):
        with pytest.raises(ValueError, match="mix must not be empty"):
            FalsifyBudget(mix=())

    def test_seed_that_is_no_non_negative_integer(self):
        # None once gave every trajectory fresh OS entropy, and -1 failed
        # inside numpy at the first trajectory
        for seed in (None, -1, 1.5, "3", True):
            with pytest.raises(ValueError, match="seed must be a non-negative"):
                FalsifyBudget(seed=seed)
        budget = FalsifyBudget(max_trajectories=3, horizon=4, seed=np.int64(3))
        assert type(budget.seed) is int
        want = adversarial_batch(B23.sys, (0,), 1.0, FalsifyBudget(
            max_trajectories=3, horizon=4, seed=3))
        got = adversarial_batch(B23.sys, (0,), 1.0, budget)
        assert all(np.array_equal(a.x, b.x) and a.meta == b.meta
                   for a, b in zip(got, want))

    def test_counts_that_are_no_non_negative_integers(self):
        # 2.5 once raised TypeError from range, True ran one trajectory and
        # a horizon of -1 was refused only once a search rolled
        for name in ("max_trajectories", "horizon"):
            for value in (2.5, -1, True, None, "3"):
                with pytest.raises(ValueError,
                                   match=f"{name} must be a non-negative integer"):
                    FalsifyBudget(**{name: value})
        budget = FalsifyBudget(max_trajectories=np.int64(3), horizon=np.int64(4))
        assert type(budget.max_trajectories) is int and type(budget.horizon) is int

    def test_u_cap_not_finite_or_negative(self):
        # each once failed inside numpy's uniform at the first random input
        for u_cap in (-1.0, -1e-300, math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match="u_cap must be finite"):
                FalsifyBudget(u_cap=u_cap)
        budget = FalsifyBudget(max_trajectories=6, horizon=3, u_cap=0.0)
        batch = adversarial_batch(B34.sys, (0,), 1.0, budget,
                                  u_modes=("constant", "random"))
        assert all(np.all(traj.u == 0.0) for traj in batch)

    def test_empty_t0s(self):
        for total in (0, 4):
            with pytest.raises(ValueError, match="t0s must not be empty"):
                adversarial_batch(B23.sys, (), 1.0,
                                  FalsifyBudget(max_trajectories=total))

    def test_unknown_u_mode(self):
        # an unknown mode once played random inputs on a forced system
        budget = FalsifyBudget(max_trajectories=4, horizon=3)
        for u_modes in (("zero", "ramp"), ("Random",)):
            for sys in (B34.sys, B23.sys):
                with pytest.raises(ValueError, match="unknown u_modes entry"):
                    adversarial_batch(sys, (0,), 1.0, budget, u_modes=u_modes)
        with pytest.raises(ValueError, match="u_modes must not be empty"):
            adversarial_batch(B34.sys, (0,), 1.0, budget, u_modes=())


# --- the batch envelope checks and falsify against the loops they replaced ---

def cut(traj, rows, Y=None, u=None):
    """The first ``rows`` rows of a trajectory, outputs or inputs replaced."""
    Y = traj.Y[:rows] if Y is None else Y
    return Trajectory(t0=traj.t0, t=traj.t[:rows], x=traj.x[:rows],
                      d=traj.d[:rows], u=traj.u[:rows] if u is None else u,
                      Y=Y, y=Y, meta=traj.meta)


def ragged_batch(sys):
    """Searched trajectories cut to different lengths, one with NaN outputs
    and (with inputs) one with a NaN input."""
    budget = FalsifyBudget(max_trajectories=10, horizon=20, seed=4, u_cap=2.0)
    batch = adversarial_batch(sys, (0, 3), 1.0, budget,
                              u_modes=("zero", "constant", "random"))
    batch = [cut(traj, n) for traj, n in zip(batch, itertools.cycle((21, 1, 9, 14)))]
    Y = batch[2].Y.copy()
    Y[[3, 5]] = math.nan
    batch[2] = cut(batch[2], 9, Y=Y)
    if sys.k:
        u = batch[4].u.copy()
        u[2] = math.nan
        batch[4] = cut(batch[4], 21, u=u)
    return batch


def loop_bounds(form, batch, sigma, gains):
    if form == "kl":
        return [traj_kl_bounds(traj, sigma, gains["beta"]) for traj in batch]
    return [traj_ios_bounds(traj, sigma, *ios_args(form, gains)) for traj in batch]


def ios_args(form, gains):
    if form == "max":
        return gains["beta"], gains["rho"], gains["gamma"], "max", None, None
    return gains["beta"], None, None, "sup", gains["zeta"], gains["delta"]


def batch_check(form, batch, sigma, gains, tol):
    if form == "kl":
        return check_kl_estimate(batch, sigma, gains["beta"], tol=tol)
    beta, rho, gamma, form, zeta, delta = ios_args(form, gains)
    return check_ios_estimate(batch, sigma, beta, rho, gamma, form, zeta,
                              delta, tol=tol)


class TestBatchEnvelopeChecks:
    """Bounds over the concatenated rows of a batch and one margin scan
    equal the per-trajectory bounds and the per-trajectory scan."""

    @pytest.mark.parametrize("form", ["kl", "max", "sup"])
    @pytest.mark.parametrize("gains", [EXPR_GAINS, TEXT_GAINS],
                             ids=["expr", "native"])
    @pytest.mark.parametrize("envelope", sorted(ENVELOPES))
    @pytest.mark.parametrize("sys", [B23.sys, B34.sys, TWO_INPUTS],
                             ids=["k0", "k1", "k2"])
    def test_ragged_batch_with_nans(self, form, gains, envelope, sys):
        sigma = ENVELOPES[envelope]
        batch = ragged_batch(sys)
        want = loop_bounds(form, batch, sigma, gains)
        if form == "kl":
            got = stability._decay_bounds(batch, sigma, gains["beta"])
        else:
            got = stability._ios_bounds(batch, sigma, *ios_args(form, gains))
        assert_same_bits(got, np.concatenate(want))
        for tol in (1e-9, 0.0):
            rep = batch_check(form, batch, sigma, gains, tol)
            ref = loop_row_check("kl" if form == "kl" else form, want, batch, tol)
            assert dumps(rep) == dumps(ref)
            assert not rep.passed  # the NaN outputs fail

    def test_empty_batches_raise(self):
        with pytest.raises(ValueError, match="empty sample set"):
            check_kl_estimate([], B34.sigma)
        with pytest.raises(ValueError, match="empty sample set"):
            check_ios_estimate([], B34.sigma, rho=identity(), gamma=constant(1.0))

    @pytest.mark.parametrize("form", ["kl", "max", "sup"])
    @pytest.mark.parametrize("envelope", sorted(ENVELOPES))
    def test_zero_row_trajectories_add_no_rows(self, form, envelope):
        sigma, gains = ENVELOPES[envelope], EXPR_GAINS
        batch = ragged_batch(B34.sys)
        empty = [cut(traj, 0) for traj in batch[:2]]
        for holes in ([0, 3], [len(batch)], [0, 0, 5]):
            with_empty = list(batch)
            for k, at in enumerate(holes):
                with_empty.insert(at, empty[k % 2])
            rep = batch_check(form, with_empty, sigma, gains, 1e-9)
            assert dumps(rep) == dumps(batch_check(form, batch, sigma, gains, 1e-9))
            assert rep.rows == sum(len(traj) for traj in batch)
        for rows in ([0, 0], [0, 6], [6, 0]):
            cuts = [cut(traj, n) for traj, n in zip(batch, rows)]
            kept = [traj for traj in cuts if len(traj)]
            if not kept:
                with pytest.raises(ValueError,
                                   match="empty sample set: no trajectory rows"):
                    batch_check(form, cuts, sigma, gains, 1e-9)
                continue
            assert (dumps(batch_check(form, cuts, sigma, gains, 1e-9))
                    == dumps(batch_check(form, kept, sigma, gains, 1e-9)))

    def test_first_failing_trajectory_names_the_error(self):
        # over the whole batch beta (evaluated first) fails at the third
        # trajectory, on log; trajectory by trajectory gamma fails first, at
        # the second, on sqrt
        gains = dict(beta=timegain_from_expr("1 + 0*log(19.5 - t)"),
                     gamma=timegain_from_expr("1 + 0*sqrt((t - 9.5)*(t - 15.5))"),
                     rho=identity())
        batch = [simulate(B34.sys, t0, [1.0, -1.0], ConstantDisturbance([0.5]),
                          ConstantInput([1.0]), horizon=5) for t0 in (0, 10, 20)]
        with pytest.raises(ExprDomainError) as loop:
            loop_bounds("max", batch, B34.sigma, gains)
        with pytest.raises(ExprDomainError) as batched:
            batch_check("max", batch, B34.sigma, gains, 1e-9)
        assert str(batched.value) == str(loop.value) == "sqrt of a negative number"


FALSIFY_CASES = {
    "kl": (B23.sys, KLEnvelope(B34.sigma.C, B34.sigma.c), {}),
    "kl_violated": (B23.sys, KLEnvelope(B34.sigma.C * 0.01, B34.sigma.c), {}),
    "kl_fast": (B23.sys, ENVELOPES["fast"], {}),
    "ios": (B34.sys, B34.sigma, dict(rho=B34.rho, gamma=B34.gamma)),
    "ios_violated": (B34.sys, KLEnvelope(0.05, 0.4), dict(rho=linear(0.01),
                                                         gamma=constant(1.0))),
    "ios_native": (TWO_INPUTS, ENVELOPES["closed"],
                   dict(beta=TEXT_GAINS["beta"], rho=TEXT_GAINS["rho"],
                        gamma=TEXT_GAINS["gamma"])),
    "ios_fast": (TWO_INPUTS, ENVELOPES["fast"], dict(rho=EXPR_GAINS["rho"],
                                                    gamma=EXPR_GAINS["gamma"])),
}


class TestFalsifyMatchesLoop:
    @pytest.mark.parametrize("case", sorted(FALSIFY_CASES))
    @pytest.mark.parametrize("n", [37, 300])
    def test_report_equals_the_trajectory_loop(self, case, n):
        sys, sigma, gains = FALSIFY_CASES[case]
        budget = FalsifyBudget(max_trajectories=n, horizon=12, seed=n, u_cap=2.0)
        rep = falsify(sys, sigma, budget=budget, radius=2.0, **gains)
        assert dumps(rep) == dumps(loop_falsify(sys, sigma, budget=budget,
                                                radius=2.0, **gains))
        assert rep.n_trajectories == n and rep.witness is not None

    def test_nan_outputs(self):
        sys = SystemDef(n=1, m=0, k=0, d_box=np.zeros((0, 2)),
                        f=["x1*1e300*1e300 - x1*1e300*1e300"], H=["x1"])
        budget = FalsifyBudget(max_trajectories=6, horizon=5)
        rep = falsify(sys, KLEnvelope(2.0, 0.1), budget=budget)
        assert dumps(rep) == dumps(loop_falsify(sys, KLEnvelope(2.0, 0.1),
                                                budget=budget))
        assert math.isnan(rep.ratio) and rep.witness["t"] == 1

    def test_chunks_that_divide_the_budget(self, monkeypatch):
        monkeypatch.setattr(stability, "ROLLOUT_BLOCK", 7)
        sys, sigma, gains = FALSIFY_CASES["ios"]
        for n in (7, 21, 23):
            budget = FalsifyBudget(max_trajectories=n, horizon=8, seed=2)
            assert dumps(falsify(sys, sigma, budget=budget, **gains)) == dumps(
                loop_falsify(sys, sigma, budget=budget, **gains))

    def test_search_returning_a_list(self, monkeypatch):
        sys, sigma, gains = FALSIFY_CASES["ios"]
        budget = FalsifyBudget(max_trajectories=300, horizon=8, seed=5)
        want = dumps(falsify(sys, sigma, budget=budget, **gains))
        search = stability.search_trajectories
        monkeypatch.setattr(stability, "search_trajectories",
                            lambda *a, **k: list(search(*a, **k)))
        assert dumps(falsify(sys, sigma, budget=budget, **gains)) == want

    def test_missing_gamma_raises_like_the_check(self):
        with pytest.raises(ValueError, match="max form needs rho and gamma"):
            falsify(B34.sys, B34.sigma, rho=B34.rho,
                    budget=FalsifyBudget(max_trajectories=3, horizon=4))

    @pytest.mark.parametrize("rho, check_first", [
        # fails at s = 0: the first trajectory's check, before the roll error
        ("s + 0/s", True),
        # fails for 0 < s < 0.3, in later checks only: the roll error first
        ("s + 0*sqrt(s*(s - 0.3))", False),
    ], ids=["check_first", "roll_first"])
    def test_check_and_roll_errors_surface_in_trajectory_order(self, rho,
                                                              check_first):
        # an input of -1 or below makes f raise: the constant input of
        # trajectory 1 is -u_cap, so its roll fails at the first step;
        # trajectory 0 has the zero input, so its check calls rho at 0 only
        sys = SystemDef(n=1, m=1, k=1, d_box=[[-0.1, 0.1]],
                        f=["0.5*x1 + 0.1*d1 + 0*log(u1 + 1)"], H=["x1"])
        budget = FalsifyBudget(max_trajectories=12, horizon=6, seed=1)
        errors = []
        for run in (falsify, loop_falsify):
            with pytest.raises(ExprDomainError) as caught:
                run(sys, KLEnvelope(3.0, 0.4), rho=kfn_from_expr(rho),
                    gamma=constant(1.0), budget=budget, radius=1.0)
            errors.append(str(caught.value))
        assert errors[0] == errors[1]
        assert (errors[0] != "log of a non-positive number") == check_first
