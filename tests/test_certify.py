import dataclasses
import math

import numpy as np
import pytest

import reference as ref

from dtstab.certify import (LyapunovCandidate, StateGrid,
                            build_transformed_system, check_contraction,
                            check_ios_decrease, check_relaxed_decrease,
                            check_rofs_inf_sup, check_sandwich,
                            compose_V_from_U, projection_fiber, tau_bound)
from dtstab.comparison import (constant, geometric, identity, kfn_from_expr,
                               linear, power_fn, timegain_from_expr,
                               validate_class)
from dtstab.expr import (Dims, Env, ExprDomainError, eval_expression,
                         parse_expression)
from dtstab.registry import (LAM_SQRT_PLANT, Q_SQRT_PLANT_C,
                             Q_SQRT_PLANT_RATIO, example_2_3, example_3_4,
                             example_4_7)
from dtstab.system import RandomDisturbance, SystemDef, simulate, vecnorm

B23, B34 = example_2_3(), example_3_4()
D23 = np.array([[-2.0], [-1.0], [0.0], [1.0], [2.0]])


def grid23(ts=range(0, 11), n_mag=7):
    mags = np.logspace(-3, 3, n_mag)
    x1 = np.concatenate([[0.0], mags, -mags])
    x2 = np.array([0.0, 1.0, -1.0, 100.0, -100.0])
    return StateGrid.from_axes(list(ts), x1, x2)


def halving_sys():
    return SystemDef(n=1, m=0, k=0, d_box=np.zeros((0, 2)), f=["0.5*x1"],
                     H=["x1"], name="halving")


def absV(n):
    V = f"norm({', '.join(f'x{i + 1}' for i in range(n))})"  # vecnorm(x)
    return LyapunovCandidate(V=V, n=n, a1=identity(),
                             a2=identity(), beta=constant(1.0), name="|x|")


class TestSandwich:
    def test_planar_bundle_passes_with_zero_margin(self):
        rep = check_sandwich(B23.sys, B23.cand, grid23())
        assert rep.verdict == "pass"
        assert rep.worst_margin == 0.0  # equality at x1 = 0 (lower side)

    def test_too_small_upper_gain_fails(self):
        cand = LyapunovCandidate(V="norm(x1, x2)", n=2, a1=identity(),
                                 a2=identity(), beta=constant(0.5))
        rep = check_sandwich(B23.sys, cand, grid23())
        assert not rep.passed
        assert rep.details["upper"]["verdict"] == "fail"
        assert any(v != 0.0 for v in rep.witness["x"])

    def test_report_json_keys(self):
        rep = check_sandwich(B23.sys, B23.cand, grid23(ts=[0, 1]))
        js = rep.to_json()
        for key in ("check", "verdict", "worst_margin", "witness", "samples",
                    "tol"):
            assert key in js


class TestContraction:
    def test_halving_map_zero_margin(self):
        cand = absV(1)
        cand.lam = 0.5
        rep = check_contraction(halving_sys(), cand,
                                StateGrid(ts=[0, 1, 5], xs=[[1.0], [-2.0], [7.5]]))
        assert rep.verdict == "pass" and rep.worst_margin == 0.0

    def test_identity_map_fails(self):
        sys = SystemDef(n=1, m=0, k=0, d_box=np.zeros((0, 2)), f=["x1"],
                        H=["x1"])
        cand = absV(1)
        cand.lam = 0.9
        rep = check_contraction(sys, cand,
                                StateGrid(ts=[0], xs=[[0.0], [3.0]]))
        assert not rep.passed
        assert rep.witness["x"] != [0.0]

    def test_three_state_closed_loop(self):
        for r in (0.0, 0.5, 0.9):
            b = example_4_7(r)
            grid = StateGrid.from_axes(range(0, 31, 3),
                                       [0.0, 1.0, -1.0, 50.0],
                                       [0.0, 1.0, -1.0, 50.0],
                                       [0.0, 1.0, -1.0, 50.0])
            rep = check_contraction(b.closed, b.cand, grid, tol=1e-12)
            assert rep.passed, (r, rep.to_json())

    def test_witness_reproduces_margin(self):
        b = example_4_7(0.5)
        grid = StateGrid.from_axes([0, 1], [1.0, -2.0], [0.5, 3.0], [1.0])
        rep = check_contraction(b.closed, b.cand, grid)
        w = rep.witness
        lhs = b.cand.V_eval(w["t"] + 1,
                            b.closed.f_eval(w["t"], w["d"], w["x"]))
        assert lhs == w["lhs"]
        assert lhs - w["rhs"] == rep.worst_margin

    def test_requires_unforced(self):
        cand = absV(2)
        cand.lam = 0.5
        with pytest.raises(ValueError, match="unforced"):
            check_contraction(example_4_7(0.5).sys, cand,
                              StateGrid(ts=[0], xs=[[0, 0, 0]]))


class TestRelaxedDecrease:
    def test_planar_certificate_passes(self):
        rep = check_relaxed_decrease(B23.sys, B23.cand, grid23(),
                                     d_values=D23)
        assert rep.passed, rep.to_json()

    def test_halved_offset_fails_near_tight_point(self):
        # equality point of the mean-inequality step: x1* = q(0)/alpha
        alpha = 1.0 - LAM_SQRT_PLANT
        x1_star = Q_SQRT_PLANT_C / alpha
        cand = LyapunovCandidate(
            V=B23.cand.V, n=2, a1=identity(), a2=identity(),
            beta=constant(2.0), lam=LAM_SQRT_PLANT,
            a3=linear(alpha),
            q=geometric(Q_SQRT_PLANT_C / 2.0, Q_SQRT_PLANT_RATIO))
        mags = np.logspace(-3, 3, 200)
        grid = StateGrid.from_axes(range(0, 11),
                                   np.concatenate([mags, -mags]), [0.0])
        rep = check_relaxed_decrease(B23.sys, cand, grid, d_values=D23)
        assert not rep.passed
        assert rep.witness["t"] == 0
        assert abs(abs(rep.witness["x"][0]) - x1_star) / x1_star < 0.1

    def test_with_zero_offset_equals_contraction(self):
        lam = 0.5
        sysm = halving_sys()
        grid = StateGrid(ts=[0, 2, 9], xs=[[0.0], [1.0], [-4.0], [100.0]])
        c1 = LyapunovCandidate(V="abs(x1)", n=1, lam=lam)
        c2 = LyapunovCandidate(V="abs(x1)", n=1,
                               a3=linear(1 - lam), q=constant(0.0))
        r1 = check_contraction(sysm, c1, grid)
        r2 = check_relaxed_decrease(sysm, c2, grid)
        assert r1.verdict == r2.verdict
        assert r1.witness["t"] == r2.witness["t"]
        assert r1.witness["x"] == r2.witness["x"]

    def test_a3_dominating_identity_rejected(self):
        cand = LyapunovCandidate(V="abs(x1)", n=1,
                                 a3=linear(2.0), q=constant(0.0))
        with pytest.raises(ValueError, match="a3"):
            check_relaxed_decrease(halving_sys(), cand,
                                   StateGrid(ts=[0], xs=[[1.0]]))


    @pytest.mark.parametrize("q, axiom", [
        (geometric(1.0, 10.0), "decays_to_zero"),
        (timegain_from_expr("10^t"), "decays_to_zero"),
        (constant(0.1), "decays_to_zero"),
        (timegain_from_expr("2^(-t) - 0.5"), "non_negative"),
    ])
    def test_q_that_does_not_decay_rejected(self, q, axiom):
        # a growing or constant offset would let any V "decrease"
        cand = LyapunovCandidate(V="abs(x1)", n=1, a3=linear(0.5), q=q)
        with pytest.raises(ValueError, match=f"q {axiom} violated, witness"):
            check_relaxed_decrease(halving_sys(), cand,
                                   StateGrid(ts=[0], xs=[[1.0]]))


    @pytest.mark.parametrize("a3", ["2*s", "s + sqrt(s)"])
    def test_a3_bound_equals_the_two_call_loop(self, a3):
        cand = LyapunovCandidate(V="abs(x1)", n=1, a3=kfn_from_expr(a3))
        ss = np.logspace(-9, 9, 60)
        # the former scan: a3 called twice at every s
        want = [{"s": float(s), "a3": cand.a3(s)}
                for s in ss if cand.a3(float(s)) > float(s)]
        assert want  # both exceed s somewhere on the grid
        assert repr(cand.validate_a3_bound()) == repr(want)


class TestIOSDecrease:
    def sys_stable(self):
        return SystemDef(n=1, m=0, k=1, d_box=np.zeros((0, 2)),
                         f=["0.5*x1 + u1"], H=["x1"], name="driven-halving")

    def cand(self, lam):
        return LyapunovCandidate(V="abs(x1)", n=1, lam=lam,
                                 a3=identity(), phi=constant(1.0))

    def test_triangle_inequality_passes(self):
        grid = StateGrid(ts=[0, 1, 4], xs=[[0.0], [1.0], [-3.0]])
        us = np.array([[0.0], [1.0], [-1.0], [4.0]])
        rep = check_ios_decrease(self.sys_stable(), self.cand(0.5), grid, us)
        assert rep.passed and rep.worst_margin == 0.0

    def test_zero_input_sampling_matches_contraction(self):
        grid = StateGrid(ts=[0, 3], xs=[[1.0], [-2.0], [10.0]])
        unforced = halving_sys()
        c_ios = self.cand(0.5)
        rep_ios = check_ios_decrease(self.sys_stable(), c_ios, grid,
                                     np.array([[0.0]]))
        c_con = absV(1)
        c_con.lam = 0.5
        rep_con = check_contraction(unforced, c_con, grid)
        assert rep_ios.verdict == rep_con.verdict
        assert rep_ios.worst_margin == rep_con.worst_margin

    def test_identity_map_fails_with_zero_input_witness(self):
        sys = SystemDef(n=1, m=0, k=1, d_box=np.zeros((0, 2)),
                        f=["x1 + u1"], H=["x1"])
        grid = StateGrid(ts=[0], xs=[[0.0], [5.0]])
        us = np.array([[0.0], [2.0], [-2.0]])
        rep = check_ios_decrease(sys, self.cand(0.9), grid, us)
        assert not rep.passed
        assert rep.witness["u"] == [0.0]
        assert rep.witness["x"] != [0.0]


class TestTauBound:
    def test_reference_point_exact_integer(self):
        res = tau_bound(B23.cand, 1.0, 0, 1.0)
        want, tt = ref.tau_oracle(1.0, 0, 1.0)
        assert res.tau_tilde == tt == 13
        assert res.tau == want == 1353

    def test_full_grid_matches_oracle(self):
        for eps in (1.0, 0.1, 0.01):
            for T in (0, 5):
                for R in (1.0, 10.0):
                    res = tau_bound(B23.cand, eps, T, R)
                    want, tt = ref.tau_oracle(eps, T, R)
                    assert (res.tau, res.tau_tilde) == (want, tt)

    def test_huge_eps_gives_zero_tau_tilde(self):
        res = tau_bound(B23.cand, 1e9, 0, 1.0)
        assert res.tau_tilde == 0

    def test_monotonicity_grid(self):
        epss = [1.0, 0.5, 0.1]
        Ts = [0, 2, 5]
        Rs = [1.0, 5.0, 10.0]
        taus = {(e, T, R): tau_bound(B23.cand, e, T, R).tau
                for e in epss for T in Ts for R in Rs}
        for e in epss:
            for T in Ts:
                assert taus[(e, T, Rs[0])] <= taus[(e, T, Rs[1])] <= taus[(e, T, Rs[2])]
            for R in Rs:
                assert taus[(e, Ts[0], R)] <= taus[(e, Ts[1], R)] <= taus[(e, Ts[2], R)]
        for T in Ts:
            for R in Rs:
                assert taus[(epss[0], T, R)] <= taus[(epss[1], T, R)] <= taus[(epss[2], T, R)]

    def test_floor_decision_recorded(self):
        res = tau_bound(B23.cand, 1.0, 0, 1.0)
        assert any("floor" in note for note in res.notes)

    def test_vanishing_offset_hits_the_floor(self):
        cand = LyapunovCandidate(V=B23.cand.V, n=2, a1=identity(),
                                 a2=identity(), beta=constant(2.0),
                                 a3=linear(0.1), q=constant(0.0))
        res = tau_bound(cand, 1.0, 0, 1.0)
        assert res.tau_tilde == 0
        assert res.denominator == 1e-300
        assert res.tau > 10 ** 300

    @pytest.mark.parametrize("q, axiom", [
        (geometric(-2.0, 0.5), "non_negative"),
        (timegain_from_expr("2^t"), "decays_to_zero"),
        (constant(1.0), "decays_to_zero")])
    def test_q_that_does_not_decay_is_refused(self, q, axiom):
        # geometric(-2, 0.5) once got tau ~ 2.0e306 with no note, and a
        # constant or growing q scanned toward TAU_SCAN_CAP
        cand = dataclasses.replace(B23.cand, q=q)
        with pytest.raises(ValueError, match=rf"^q {axiom} violated, witness"):
            tau_bound(cand, 0.1, 0, 1.0)

    def test_nan_tail_of_q_is_unbounded(self):
        # exp(t)*exp(-2*t)*exp(t) is inf*0*inf = NaN from t = 710 on
        q = timegain_from_expr("exp(t)*exp(-2*t)*exp(t)*0.5^t")
        assert math.isnan(q.sup_tail(0))
        res = tau_bound(dataclasses.replace(B23.cand, q=q), 0.1, 0, 1.0)
        assert res.unbounded and res.tau is None and res.tau_tilde is None
        assert res.notes[-1] == "sup of q over t >= 0 is NaN"


class TestTransformedSystem:
    def test_zero_stays_zero(self):
        tr = build_transformed_system(B23.sys, constant(1.0))
        traj = simulate(tr, 0, np.zeros(3), RandomDisturbance(seed=1),
                        horizon=10)
        assert np.all(traj.x == 0.0)

    def test_state_scaling_identity(self):
        # x(t) = exp(t) z(t) along matched trajectories (mu == 1)
        tr = build_transformed_system(B23.sys, constant(1.0))
        x0 = np.array([0.8, -0.4])
        orig = simulate(B23.sys, 0, x0, RandomDisturbance(seed=3), horizon=15)
        trans = simulate(tr, 0, np.concatenate([x0, [0.3]]),
                         RandomDisturbance(seed=3), horizon=15)
        for i, t in enumerate(orig.t):
            want = orig.x[i]
            got = math.exp(t) * trans.x[i, :2]
            assert np.all(np.abs(got - want) <= 1e-9 * (1 + np.abs(want)))

    def test_output_residual_decays_exactly(self):
        # w(t) - H(t, exp(t) z(t)) = exp(-(t-t0)) * (w0 - H(t0, exp(t0) z0))
        tr = build_transformed_system(B23.sys, constant(1.0))
        z0, w0 = np.array([1.5, -0.7]), 2.0
        traj = simulate(tr, 2, np.concatenate([z0, [w0]]),
                        RandomDisturbance(seed=9), horizon=15)
        X0 = math.exp(2) * z0
        R0 = w0 - B23.sys.H_eval(2, X0)[0]
        for i, t in enumerate(traj.t):
            Xt = math.exp(t) * traj.x[i, :2]
            Ht = B23.sys.H_eval(t, Xt)[0]
            lhs = traj.x[i, 2] - Ht
            rhs = math.exp(-(t - 2.0)) * R0
            scale = 1.0 + abs(traj.x[i, 2]) + abs(Ht) + abs(R0)
            assert abs(lhs - rhs) <= 1e-9 * scale

    def test_requires_unforced_and_positive_mu(self):
        with pytest.raises(ValueError, match="unforced"):
            build_transformed_system(example_4_7(0.5).sys, constant(1.0))
        from dtstab.comparison import timegain_from_expr
        with pytest.raises(ValueError, match="positive"):
            build_transformed_system(B23.sys, timegain_from_expr("1 - t"))

    def test_zero_gain_is_not_a_positive_mu(self):
        # a decaying-looking zero gain is still no K+ gain: mu = 0 would
        # divide by zero in the first f_eval
        with pytest.raises(ValueError, match="mu must be a positive time gain") as ex:
            build_transformed_system(B23.sys, geometric(0.0, 0.5))
        assert "{'t': 0, 'value': 0.0}" in str(ex.value)
        rep = validate_class(geometric(2.0, 0.9))
        assert rep.passed and rep.tag == "K+"
        assert [c.axiom for c in rep.checks] == ["positive"]
        build_transformed_system(B23.sys, geometric(2.0, 0.9))


class TestComposeV:
    U_text = "norm(z1, z2, w1)"

    @staticmethod
    def U_cnorm(t, z, w):
        return math.sqrt(float(np.dot(z, z)) + float(np.dot(w, w)))

    def test_direct_substitution(self):
        cand = compose_V_from_U(self.U_text, constant(1.0), B23.sys)
        assert cand.V_eval(0, [1.0, 0.0]) == 1.0
        assert cand.V_eval(5, [0.0, 0.0]) == 0.0

    def test_graph_step_identity(self):
        # the transformed step maps graph points to graph points, so the
        # composed V at the successor equals U at the transformed successor
        tr = build_transformed_system(B23.sys, constant(1.0))
        cand = compose_V_from_U(self.U_text, constant(1.0), B23.sys)
        rng = np.random.default_rng(4)
        for _ in range(200):
            t = float(rng.integers(0, 15))
            x = rng.uniform(-20, 20, size=2)
            d = rng.uniform(-2, 2, size=1)
            graph = np.concatenate([math.exp(-t) * x, B23.sys.H_eval(t, x)])
            lhs = cand.V_eval(t + 1, B23.sys.f_eval(t, d, x))
            rhs = self.U_cnorm(t + 1, *np.split(tr.f_eval(t, d, graph), [2]))
            assert abs(lhs - rhs) <= 1e-9 * (1.0 + abs(rhs))

    def test_fitted_contraction_factor_transfers(self):
        # fit lam as the worst U-ratio along transformed graph steps on a
        # large-|x1| grid, then the composed V contracts with the same factor
        tr = build_transformed_system(B23.sys, constant(1.0))
        grid = StateGrid.from_axes(range(0, 4), [1e3, -1e3, 1e4, 1e5],
                                   [0.0, 1.0, -1.0])
        dvals = D23
        lam_fit = 0.0
        for t in grid.ts:
            for x in grid.xs:
                graph = np.concatenate([math.exp(-t) * x,
                                        B23.sys.H_eval(t, x)])
                U0 = self.U_cnorm(t, graph[:2], graph[2:])
                for d in dvals:
                    s2 = tr.f_eval(t, d, graph)
                    lam_fit = max(lam_fit,
                                  self.U_cnorm(t + 1, s2[:2], s2[2:]) / U0)
        assert lam_fit < 1.0
        cand = compose_V_from_U(self.U_text, constant(1.0), B23.sys)
        cand.lam = lam_fit * (1.0 + 1e-9)
        rep = check_contraction(B23.sys, cand, grid, d_values=dvals)
        assert rep.passed, rep.to_json()


class TestROFS:
    def full_obs_sys(self):
        return SystemDef(n=1, m=0, k=1, d_box=np.zeros((0, 2)),
                         f=["x1 + u1"], H=["x1"], name="integrator")

    def test_full_observation_negative_infsup(self):
        sys = self.full_obs_sys()
        cand = LyapunovCandidate(V="abs(x1)", n=1, lam=0.5)
        fiber = lambda t, y: np.array([[y[0]]])
        us = np.linspace(-2, 2, 9).reshape(-1, 1)
        rep = check_rofs_inf_sup(sys, cand, fiber, us, ts=[0, 1, 3],
                                 ys=[[-2.0], [-1.0], [0.0], [1.0], [2.0]])
        assert rep.passed
        assert all(e.inf_sup <= 0.0 for e in rep.entries)

    def test_static_obstruction_on_three_state_fiber(self):
        b = example_4_7(0.5)
        fiber = lambda t, y: np.array([[y[0], 1.0, 0.0], [y[0], 2.0, 0.0]])
        us = np.linspace(-10.0, 5.0, 121).reshape(-1, 1)
        rep = check_rofs_inf_sup(b.sys, b.cand, fiber, us, ts=[0],
                                 ys=[[1.0]])
        assert not rep.passed
        assert rep.worst > 0.0
        # the point loop over the same u grid and 11 of the d values
        want = ref.check_rofs_inf_sup(b.sys, b.cand, fiber, us, [0], [[1.0]],
                                      np.linspace(-0.5, 0.5, 11).reshape(-1, 1))
        assert math.isclose(rep.worst, want.worst, rel_tol=1e-9)

    def test_mixed_fiber_passes_with_matching_input(self):
        # x2 known up to sign: both signs give the same x2^2, u = -1 works
        b = example_4_7(0.5)
        fiber = lambda t, y: np.array([[y[0], -1.0, 0.0], [y[0], 1.0, 0.0]])
        us = np.array([[-1.0]])
        rep = check_rofs_inf_sup(b.sys, b.cand, fiber, us, ts=[0], ys=[[1.0]],
                                 d_values=np.array([[0.0]]))
        assert rep.passed
        assert rep.entries[0].inf_sup < 0.0

    def test_strong_mode_filters_candidates(self):
        sys = self.full_obs_sys()
        cand = LyapunovCandidate(V="abs(x1)", n=1, lam=0.5)
        fiber = lambda t, y: np.array([[y[0]]])
        us = np.linspace(-2, 2, 5).reshape(-1, 1)
        rep = check_rofs_inf_sup(sys, cand, fiber, us, ts=[0],
                                 ys=[[0.0], [1.0]], mode="strong")
        by_y = {tuple(e.y): e for e in rep.entries}
        assert by_y[(0.0,)].inf_sup <= 0.0
        assert "skipped" in by_y[(1.0,)].note

    def test_strong_mode_no_admissible_input(self):
        sys = SystemDef(n=1, m=0, k=1, d_box=np.zeros((0, 2)),
                        f=["x1 + u1^2 + 1"], H=["x1"], name="offset")
        cand = LyapunovCandidate(V="abs(x1)", n=1, lam=0.5)
        fiber = lambda t, y: np.array([[0.0]])
        rep = check_rofs_inf_sup(sys, cand, fiber,
                                 np.array([[0.0], [1.0]]), ts=[0],
                                 ys=[[0.0]], mode="strong")
        assert not rep.passed
        assert "no admissible input" in rep.entries[0].note

    def test_zero_mode(self):
        sys = self.full_obs_sys()
        cand = LyapunovCandidate(V="abs(x1)", n=1, lam=0.5)
        fiber = lambda t, y: np.array([[y[0]]])
        rep = check_rofs_inf_sup(sys, cand, fiber, None, ts=[0, 2],
                                 ys=None, mode="zero")
        assert rep.passed

    def test_projection_fiber_helper(self):
        sampler = projection_fiber([0], {1: [-1.0, 1.0], 2: [0.0]}, n=3)
        pts = sampler(0, [7.0])
        assert pts.shape == (2, 3)
        assert np.all(pts[:, 0] == 7.0)
        assert set(pts[:, 1]) == {-1.0, 1.0}


class TestToleranceAndWeightedModes:
    def test_tolerated_tie_verdict(self):
        # margin positive but inside tol*(1+|rhs|): reported, not failed
        lam = 0.5 * (1.0 - 1e-12)
        cand = absV(1)
        cand.lam = lam
        rep = check_contraction(halving_sys(), cand,
                                StateGrid(ts=[0], xs=[[1.0], [-2.0]]))
        assert rep.verdict == "pass (tolerance)"
        assert 0.0 < rep.worst_margin <= rep.tol * (1.0 + abs(rep.witness["rhs"]))

    def test_sandwich_with_state_weight(self):
        # lower form a1(||H|| + mu(t)||x||) <= V with mu(t) = exp(-t)
        from dtstab.comparison import timegain_from_expr
        cand = LyapunovCandidate(
            V=B23.cand.V, n=2, a1=linear(0.5), a2=identity(),
            beta=constant(2.0), mu=timegain_from_expr("exp(-t)"))
        rep = check_sandwich(B23.sys, cand, grid23())
        assert rep.passed, rep.to_json()

    def test_sandwich_with_oversized_weight_fails(self):
        from dtstab.comparison import timegain_from_expr
        cand = LyapunovCandidate(
            V=B23.cand.V, n=2, a1=identity(), a2=identity(),
            beta=constant(2.0), mu=timegain_from_expr("2 + 0*t"))
        rep = check_sandwich(B23.sys, cand, grid23())
        assert not rep.passed
        assert rep.details["lower"]["verdict"] == "fail"


# --- array right-hand sides against the point loops they replaced ---

# V is NaN where |x1| > 100: "expr" adds inf * 0, "native" multiplies by
# 1 + 0 * inf^max(|x1| - 100, 0), through the power kernel
NAN_FAR_V = {
    "expr": "exp(-t)*abs(x1) + abs(x2) + max(abs(x1) - 100, 0)*1e300*1e300*0",
    "native": "(exp(-t)*abs(x1) + abs(x2))*(1 + 0*(1e300*1e300)^max(abs(x1) - 100, 0))",
}
# the same gains from the factories ("expr") and written as text ("lambda")
GAINS = {
    "expr": dict(a1=identity(), a2=linear(1.5), beta=constant(2.0),
                 mu=geometric(0.5, 0.5), a3=linear(0.1),
                 q=geometric(0.5, 0.5), phi=constant(2.0), p2=power_fn(2.0)),
    "lambda": dict(a1=kfn_from_expr("s"), a2=kfn_from_expr("1.5*s"),
                   beta=timegain_from_expr("2"),
                   mu=timegain_from_expr("0.5*0.5^t"),
                   a3=kfn_from_expr("0.1*s"),
                   q=timegain_from_expr("0.5*0.5^t"),
                   phi=timegain_from_expr("2"),
                   p2=kfn_from_expr("s^2")),
}
FINITE_GRID = StateGrid.from_axes(range(0, 4), [0.0, 1e-3, -2.0, 30.0],
                                  [0.0, 1.0, -100.0])
NAN_GRID = StateGrid.from_axes(range(0, 4), [0.0, 1e-3, -2.0, 300.0],
                               [0.0, 1.0, -100.0])
US = np.array([[-1.0], [0.0], [0.25], [3.0]])


def _pass_fail_cases(reps):
    """Both a clean verdict and a NaN margin occur among the reports."""
    margins = [r.worst_margin for r in reps]
    return any(math.isnan(m) for m in margins) and any(m == m for m in margins)


@pytest.mark.parametrize("v_kind", sorted(NAN_FAR_V))
@pytest.mark.parametrize("gain_kind", sorted(GAINS))
def test_decrease_reports_equal_pointwise_loops(v_kind, gain_kind):
    g = GAINS[gain_kind]
    cand = LyapunovCandidate(V=NAN_FAR_V[v_kind], n=2, lam=0.9, a3=g["a3"],
                             q=g["q"], phi=g["phi"])
    ios = LyapunovCandidate(V=NAN_FAR_V[v_kind], n=2, lam=0.9, a3=g["p2"],
                            phi=g["phi"])
    reps = []
    for grid in (FINITE_GRID, NAN_GRID):
        pairs = [
            (check_contraction(B23.sys, cand, grid, d_values=D23),
             ref.check_contraction(B23.sys, cand, grid, D23)),
            (check_relaxed_decrease(B23.sys, cand, grid, d_values=D23),
             ref.check_relaxed_decrease(B23.sys, cand, grid, D23)),
        ]
        for us in (US, np.vstack([US, [[math.nan]]])):
            pairs.append((check_ios_decrease(B34.sys, ios, grid, us, d_values=D23),
                          ref.check_ios_decrease(B34.sys, ios, grid, us, D23)))
        for got, want in pairs:
            assert ref.dumps(got) == ref.dumps(want), (grid is NAN_GRID, got.check)
            reps.append(got)
    assert _pass_fail_cases(reps)


@pytest.mark.parametrize("v_kind", sorted(NAN_FAR_V))
@pytest.mark.parametrize("gain_kind", sorted(GAINS))
def test_sandwich_reports_equal_pointwise_loop(v_kind, gain_kind):
    g = GAINS[gain_kind]
    reps = []
    for mu in (None, g["mu"]):
        cand = LyapunovCandidate(V=NAN_FAR_V[v_kind], n=2, a1=g["a1"],
                                 a2=g["a2"], beta=g["beta"], mu=mu)
        for grid in (FINITE_GRID, NAN_GRID):
            got = check_sandwich(B23.sys, cand, grid)
            assert ref.dumps(got) == ref.dumps(ref.check_sandwich(B23.sys, cand, grid))
            reps.append(got)
    assert _pass_fail_cases(reps)


def test_gain_overflow_is_inf_not_an_error():
    # past the float range a gain is inf, in a scalar call as in an array
    grid = StateGrid(ts=[0, 1], xs=[[0.0], [0.5], [-1.0], [1e200]])
    cand = LyapunovCandidate(V="abs(x1)", n=1, a1=power_fn(2.0),
                             a2=identity(), beta=constant(1.0))
    rep = check_sandwich(halving_sys(), cand, grid)
    assert ref.dumps(rep) == ref.dumps(ref.check_sandwich(halving_sys(), cand, grid))
    assert rep.verdict == "fail" and rep.worst_margin == math.inf
    assert rep.witness == {"t": 0, "x": [1e200], "d": None, "u": None,
                           "lhs": math.inf, "rhs": 1e200, "side": "lower"}
    # on the right-hand side of a decrease, inf is a bound no point exceeds
    sys = SystemDef(n=1, m=0, k=1, d_box=np.zeros((0, 2)),
                    f=["0.5*x1 + u1"], H=["x1"])
    ios = LyapunovCandidate(V="abs(x1)", n=1, lam=0.5,
                            a3=power_fn(2.0), phi=constant(1.0))
    us = np.array([[0.0], [1e200]])
    rep = check_ios_decrease(sys, ios, grid, us)
    assert ref.dumps(rep) == ref.dumps(ref.check_ios_decrease(
        sys, ios, grid, us, np.zeros((1, 0))))
    assert rep.passed and rep.samples == 16


def test_gain_domain_error_is_an_expr_domain_error():
    # a gain at a point outside its domain raises ExprDomainError, an
    # ExprError and not a ValueError, in a scalar call as in an array
    grid = StateGrid(ts=[0, 1], xs=[[0.0], [0.5], [-1.0]])
    cand = LyapunovCandidate(V="abs(x1)", n=1, a1=power_fn(0.5),
                             a2=identity(), beta=constant(1.0),
                             mu=constant(-2.0))  # ||H|| + mu ||x|| = -|x1|
    for run in (ref.check_sandwich, check_sandwich):
        with pytest.raises(ExprDomainError, match="negative base") as err:
            run(halving_sys(), cand, grid)
        assert not isinstance(err.value, ValueError)
    # a3(s) = 0.5 (s^0.5)^2 <= s, at V = x1 = -1
    a3 = kfn_from_expr("0.5 * (s^0.5)^2")
    cand = LyapunovCandidate(V="x1", n=1, a3=a3, q=geometric(0.5, 0.5))
    with pytest.raises(ExprDomainError, match="negative base") as want:
        ref.check_relaxed_decrease(halving_sys(), cand, grid, np.zeros((1, 0)))
    with pytest.raises(ExprDomainError) as err:
        check_relaxed_decrease(halving_sys(), cand, grid)
    assert not isinstance(err.value, ValueError)
    assert str(err.value) == str(want.value)


def test_gain_that_does_not_read_s_is_refused():
    # a1 = 0*1 would never evaluate its argument sqrt(x1), so it would skip
    # the domain error the reference raises at x1 = -1
    sys = SystemDef(n=1, m=0, k=0, d_box=np.zeros((0, 2)), f=["x1"],
                    H=["sqrt(x1)"])
    grid = StateGrid(ts=[0], xs=[[1.0], [-1.0]])
    cand = LyapunovCandidate(V="abs(x1)", n=1, a1=kfn_from_expr("0*1"),
                             a2=identity(), beta=constant(1.0))
    with pytest.raises(ExprDomainError, match="sqrt of a negative number"):
        ref.check_sandwich(sys, cand, grid)
    with pytest.raises(ValueError, match="K function '0\\*1' does not read s"):
        check_sandwich(sys, cand, grid)
    cand = LyapunovCandidate(V="abs(x1)", n=1, a3=kfn_from_expr("0*1"),
                             q=geometric(0.5, 0.5))
    with pytest.raises(ValueError, match="'0\\*1' does not read s"):
        check_relaxed_decrease(halving_sys(), cand, grid)


def test_decrease_raises_the_first_failing_points_error():
    # f fails only at the second state; the first fails later in its loop:
    # on V(t+1, f) in the contraction, on a3 of its right-hand side in the
    # relaxed decrease
    grid, no_d = StateGrid(ts=[0], xs=[[1.9], [-2.0]]), np.zeros((1, 0))
    sys = SystemDef(n=1, m=0, k=0, d_box=np.zeros((0, 2)),
                    f=["3*sqrt(x1 + 1) - 3"], H=["x1"])
    cand = LyapunovCandidate(V="log(2 - x1) - log(2)", n=1, lam=0.5)
    want = ("ExprDomainError", "log of a non-positive number")
    assert ref.outcome(lambda: check_contraction(sys, cand, grid)) == ref.outcome(
        lambda: ref.check_contraction(sys, cand, grid, no_d)) == ("[]", want)

    grid = StateGrid(ts=[0], xs=[[-1.0], [-4.0]])
    sys = SystemDef(n=1, m=0, k=0, d_box=np.zeros((0, 2)), f=["log(x1 + 3)"],
                    H=["x1"])
    cand = LyapunovCandidate(V="x1", n=1, a3=kfn_from_expr("s*sqrt(s)/(1+s)"),
                             q=constant(0.0))
    want = ("ExprDomainError", "sqrt of a negative number")
    assert ref.outcome(lambda: check_relaxed_decrease(sys, cand, grid)) == ref.outcome(
        lambda: ref.check_relaxed_decrease(sys, cand, grid, no_d)) == ("[]", want)


# --- witnesses replayed through the tree walker ---

def _tree(e, t, x=(), d=(), u=(), **aux):
    return eval_expression(e, Env(t=t, x=x, d=d, u=u, aux=aux))


def _replayed(check, sys, cand, w):
    """(lhs, rhs) of a certificate check at the witness's (t, x, d, u), from
    V, f, H and the gains by the tree walker."""
    V = parse_expression(cand.V, Dims(n=cand.n)) if isinstance(cand.V, str) else cand.V
    t, x, u = w["t"], w["x"], w["u"] or []
    v, nx = _tree(V, t, x), vecnorm(x)
    kfn = lambda gain, s: _tree(gain.expr, 0.0, s=s)  # noqa: E731
    gain = lambda g: _tree(g.expr, t)  # noqa: E731
    if check == "lower":
        nY = vecnorm([_tree(h, t, x) for h in sys.H_exprs])
        return kfn(cand.a1, nY + gain(cand.mu) * nx if cand.mu is not None else nY), v
    if check == "upper":
        return v, kfn(cand.a2, gain(cand.beta) * nx)
    F = [_tree(f, t, x, w["d"], u) for f in sys.f_exprs]
    rhs = {"contraction": lambda: cand.lam * v,
           "relaxed-decrease": lambda: v - kfn(cand.a3, v) + gain(cand.q),
           "ios-decrease": lambda: cand.lam * v + kfn(cand.a3, gain(cand.phi) * vecnorm(u))}
    return _tree(V, t + 1, F), rhs[check]()


def off_origin(grid):
    """``grid`` without the origin, whose margins are 0 in every check."""
    return StateGrid(ts=grid.ts, xs=grid.xs[np.any(grid.xs != 0.0, axis=1)])


def test_witnesses_replay_through_the_tree_walker():
    # each certificate check of the bundled examples on their self-test
    # grids less the origin, a sandwich with mu, and an input-driven decrease
    g23 = off_origin(grid23())
    with_mu = dataclasses.replace(B23.cand, mu=geometric(0.5, 0.5))
    ios = LyapunovCandidate(V=B23.cand.V, n=2, lam=0.9, a3=power_fn(2.0),
                            phi=timegain_from_expr("1 + 2^(-t)"))
    runs = [(B23.sys, B23.cand, check_sandwich(B23.sys, B23.cand, g23)),
            (B23.sys, with_mu, check_sandwich(B23.sys, with_mu, g23)),
            (B23.sys, B23.cand, check_relaxed_decrease(B23.sys, B23.cand, g23,
                                                       d_values=D23)),
            (B34.sys, ios, check_ios_decrease(B34.sys, ios, g23, [[-1.0], [0.5], [3.0]],
                                              d_values=D23))]
    axis = [0.0, 1.0, -1.0, 5.0, -5.0]
    g47 = off_origin(StateGrid.from_axes(range(0, 11), axis, axis, axis))
    for r in (0.0, 0.5, 0.9):
        b47 = example_4_7(r)
        runs += [(b47.sys, b47.cand, check_sandwich(b47.sys, b47.cand, g47)),
                 (b47.closed, b47.cand, check_contraction(b47.closed, b47.cand, g47,
                                                          tol=1e-12))]
    for sys, cand, rep in runs:
        sides = ({k: d["witness"] for k, d in rep.details.items()}
                 if rep.check == "sandwich" else {rep.check: rep.witness})
        for check, w in sides.items():
            assert w["lhs"] != 0.0 or w["rhs"] != 0.0
            assert ref.same_bits(_replayed(check, sys, cand, w),
                                 (w["lhs"], w["rhs"])), (sys.name, check, w)


# --- the graph transform and the composed V against their closures ---

TRANSFORMS = {
    "example_2_3-constant": (B23.sys, constant(1.0)),
    "example_2_3-geometric": (B23.sys, geometric(2.0, 0.9)),
    "example_2_3-quadratic": (B23.sys, timegain_from_expr("1 + t^2")),
    "example_4_7-closed": (example_4_7(0.5).closed, constant(1.0)),
}


def transform_points(n, m, d_box, N, seed):
    """Times (some past exp's range), states over 12 decades with zeros,
    NaN and inf among them, and disturbances in the box."""
    rng = np.random.default_rng(seed)
    t = np.where(rng.random(N) < 0.9, rng.integers(0, 40, N),
                 rng.integers(700, 720, N)).astype(float)
    X = rng.standard_normal((N, n)) * 10.0 ** rng.uniform(-6, 6, (N, 1))
    X[0], X[1, 0], X[2, -1], X[3, 0], X[4] = 0.0, math.nan, math.inf, -0.0, 1e200
    D = rng.uniform(d_box[:, 0], d_box[:, 1], size=(N, m))
    return t, X, D


@pytest.mark.parametrize("case", sorted(TRANSFORMS))
def test_transformed_system_equals_reference_closure(case):
    sys, mu = TRANSFORMS[case]
    tr, loop = build_transformed_system(sys, mu), ref.transformed_system(sys, mu)
    assert (tr.n, tr.p_Y, tr.p_y) == (loop.n, 1, 1)
    assert np.array_equal(tr.d_box, loop.d_box)
    t, X, D = transform_points(tr.n, tr.m, tr.d_box, 600, len(case))
    kept = []
    with np.errstate(all="ignore"):
        for i in range(len(t)):
            try:
                want = loop.f_eval(t[i], D[i], X[i])
            except OverflowError:  # the closure's math.exp(t); the ASTs give inf
                assert t[i] > 709.0
                continue
            kept.append(i)
            assert ref.same_bits(tr.f_eval(t[i], D[i], X[i]), want), i
            assert ref.same_bits(tr.H_eval(t[i], X[i]), loop.H_eval(t[i], X[i])), i
        assert len(kept) > 500
        t, X, D = t[kept], X[kept], D[kept]
        want = np.array([loop.f_eval(*row) for row in zip(t, D, X)])
        assert ref.same_bits(tr.f_rows(t, X, D), want)
        assert ref.same_bits(tr.H_rows(t, X),
                             np.array([loop.H_eval(*row) for row in zip(t, X)]))


@pytest.mark.parametrize("case", sorted(TRANSFORMS))
def test_composed_V_equals_reference_closure(case):
    sys, mu = TRANSFORMS[case]
    zs = [f"z{i + 1}" for i in range(sys.n)]
    ws = [f"w{j + 1}" for j in range(sys.p_Y)]
    t, X, _ = transform_points(sys.n, sys.m, sys.d_box, 400, len(case))
    for U in (f"norm({', '.join(zs + ws)})",
              f"{zs[0]}^2 + 0.5*{zs[-1]}*{ws[0]} - exp(-t)*abs({ws[-1]})/3"):
        cand, V = compose_V_from_U(U, mu, sys), ref.composed_V(U, mu, sys)
        assert cand.n == sys.n
        with np.errstate(all="ignore"):
            want = np.array([V(*row) for row in zip(t, X)])
            got = np.array([cand.V_eval(*row) for row in zip(t, X)])
            assert ref.same_bits(got, want), U
            assert ref.same_bits(cand.V_rows(t, X), want), U
    # an AST is taken as it is
    node = parse_expression(U, Dims(aux=frozenset(zs + ws)))
    assert compose_V_from_U(node, mu, sys).V_eval(3, X[5]) == cand.V_eval(3, X[5])


def test_contraction_on_transformed_system_equals_pointwise_loop():
    # the check on the expression system equals the point loop on the closure
    mu = geometric(2.0, 0.9)
    grid = StateGrid.from_axes(range(0, 6), [0.0, 1e-3, -2.0, 300.0],
                               [0.0, 1.0, -7.5], [0.0, -0.5, 4.0])
    cand = LyapunovCandidate(V="norm(x1, x2, x3)", n=3, lam=0.9)
    got = check_contraction(build_transformed_system(B23.sys, mu), cand, grid, d_values=D23)
    assert ref.dumps(got) == ref.dumps(ref.check_contraction(
        ref.transformed_system(B23.sys, mu), cand, grid, D23))
    assert got.samples == len(grid)


@pytest.mark.parametrize("n, V", [(3, "abs(x1) + abs(x3)"), (1, "abs(x1)")])
def test_candidate_over_another_state_count_is_refused(n, V):
    # n = 3 once raised IndexError in check_sandwich; n = 1 was checked as a
    # V that ignores x2, failing the relaxed decrease
    cand = LyapunovCandidate(V=V, n=n, a1=identity(), a2=identity(),
                             beta=constant(2.0), lam=0.5, a3=linear(0.5),
                             q=geometric(1.0, 0.5), phi=constant(1.0))
    grid = grid23(ts=range(2), n_mag=2)
    fiber = lambda t, y: np.array([[0.0, y[0]]])  # noqa: E731
    checks = {
        "sandwich": lambda: check_sandwich(B23.sys, cand, grid),
        "contraction": lambda: check_contraction(B23.sys, cand, grid),
        "relaxed": lambda: check_relaxed_decrease(B23.sys, cand, grid),
        "ios": lambda: check_ios_decrease(B34.sys, cand, grid, [[0.0], [1.0]]),
        "rofs": lambda: check_rofs_inf_sup(B34.sys, cand, fiber, [[0.0]],
                                           ts=[0], ys=[[1.0]]),
    }
    for name, check in checks.items():
        with pytest.raises(ValueError,
                           match=f"is over n={n} states, the system over n=2"):
            check()
