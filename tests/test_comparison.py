import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import dtstab.comparison as comparison_mod
import dtstab.system as system_mod
import reference as ref
from dtstab.certify import LyapunovCandidate, tau_bound
from dtstab.comparison import (KFn, KLEnvelope, TimeGain,
                               check_domination, constant, decay_checks,
                               fit_kl_envelope, geometric, identity,
                               kfn_from_expr, linear, power_fn, sup_f_sampler,
                               timegain_from_expr, validate_class)
from dtstab.expr import ExprDomainError
from dtstab.registry import C_IOS, K_IOS, example_2_3
from dtstab.stability import FalsifyBudget, adversarial_batch
from dtstab.system import SampleConfig, SystemDef, Trajectory


def make_traj(t0, x0, Y_vals, u_vals=None):
    """Minimal trajectory carrying only what envelope fitting reads."""
    N = len(Y_vals)
    x = np.zeros((N, len(x0)))
    x[0] = x0
    u = np.zeros((N, 0)) if u_vals is None else np.asarray(u_vals, float).reshape(N, -1)
    Y = np.asarray(Y_vals, dtype=float).reshape(N, -1)
    return Trajectory(t0=t0, t=np.arange(t0, t0 + N), x=x,
                      d=np.zeros((N, 0)), u=u, Y=Y, y=Y)


class TestValidateClass:
    def test_six_canonical_fixtures(self):
        for name, report, expected in ref.class_fixtures():
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

    def test_failure_witness_survives_grid_refinement(self, monkeypatch):
        # a non-monotone map (it falls on [2, 3]) fails; the same witness
        # pair fails on finer grids
        wobble = kfn_from_expr("s - 2*min(max(s - 2, 0), 1)")
        monkeypatch.setattr(comparison_mod, "S_GRID", np.logspace(-1, 1, 30))
        coarse = validate_class(wobble)
        monkeypatch.setattr(comparison_mod, "S_GRID", np.logspace(-1, 1, 300))
        fine = validate_class(wobble)
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
        assert decay_checks(geometric(7.5, 0.68)).passed
        rep = decay_checks(geometric(1.0, 1.5))
        assert rep.tag == "decaying" and not rep.passed
        assert rep.failures()[0].witness == {
            "C": 1.0, "ratio": 1.5, "note": "analytic (geometric form)"}
        rep = decay_checks(timegain_from_expr("-2*0.5^t"))
        assert [c.witness for c in rep.checks] == [
            {"t": 0, "value": -2.0},
            {"C": -2.0, "ratio": 0.5, "note": "analytic (geometric form)"}]

    def test_zero_gain_decays_but_is_not_positive(self):
        # the zero gain decays whatever its ratio says; it is no K+ gain
        assert decay_checks(constant(0.0)).passed
        assert decay_checks(geometric(0.0, 2.0)).passed
        # a literal, built or written, has the analytic decay witness
        for flat in (constant(0.5), timegain_from_expr("0.5")):
            assert decay_checks(flat).checks[1].witness == {
                "C": 0.5, "ratio": 1.0, "note": "analytic (geometric form)"}
        grower = decay_checks(timegain_from_expr("2^t"))
        assert [(c.axiom, c.passed) for c in grower.checks] == [
            ("non_negative", True), ("decays_to_zero", False)]
        rep = validate_class(geometric(0.0, 0.5))
        assert rep.tag == "K+" and not rep.passed
        assert rep.failures()[0].witness == {"t": 0, "value": 0.0}


# the closed-form inverses KFn once carried as callables: the reference
# for the closed forms now read off the expression
OLD_INV = {
    "identity": lambda a, p: lambda v: v,
    "linear": lambda a, p: lambda v: v / a,
    "power_fn": lambda a, p: lambda v: math.pow(v / a, 1.0 / p),
}
KFN_CASES = [("identity", 1.0, 1.0), ("linear", 0.25, 1.0),
             ("linear", 3.0, 1.0), ("power_fn", 1.0, 1.0),
             ("power_fn", 3.0, 1.0), ("power_fn", 1.0, 2.0),
             ("power_fn", 2.0, 0.5), ("power_fn", 0.1, 3.0),
             ("power_fn", 7.5, 0.37)]  # (kind, a, p)


def _kfn_spellings(kind, a, p):
    """The factory K function of ``kind`` and its text spelling."""
    if kind == "identity":
        return identity(), kfn_from_expr("s")
    if kind == "linear":
        return linear(a), kfn_from_expr(f"{a!r}*s")
    return power_fn(p, a), kfn_from_expr(f"{a!r}*s^{p!r}")


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


    def test_inverse_of_nan_is_nan(self):
        # bisection used to shrink toward 0 and return 6.2e-61; every
        # inverse, closed form or bisection, is 0.0 at v <= 0
        fns = [f for case in KFN_CASES for f in _kfn_spellings(*case)]
        for f in fns + [kfn_from_expr("s^2"), kfn_from_expr("s + sqrt(s)")]:
            assert math.isnan(f.inverse(math.nan)), f.name
            for v in (0.0, -0.0, -1e-300, -1.0, -math.inf):
                assert ref.same_bits(f.inverse(v), 0.0), (f.name, v)
        assert kfn_from_expr("s^2").inverse(4.0) == 2.0

    @pytest.mark.parametrize("text", ["2*s^0", "1*s^(-1)", "-2*s", "0*s"])
    def test_no_closed_form_without_positive_literals(self, text):
        # a*s^p with a <= 0 or p <= 0 is no K function: it bisects, and
        # never reaches v = 3
        with pytest.raises(ValueError, match="outside attainable range"):
            kfn_from_expr(text).inverse(3.0)

    def test_nan_on_the_tau_bound_right_hand_side_is_unbounded(self):
        # q is finite on every tail tau_bound's scan reads and NaN (0*inf)
        # from t = 4210 on, inside the tail behind its denominator
        q = timegain_from_expr("0.5^t + 0*exp(t - 3500)")
        assert not math.isnan(q.sup_tail(0)) and math.isnan(q.sup_tail(200))
        cand = LyapunovCandidate(V="x1^2 + x2^2", n=2, a1=identity(),
                                 a2=identity(), beta=constant(1.0),
                                 a3=kfn_from_expr("s^2"), q=q)
        res = tau_bound(cand, 1.0, 200, 1.0)
        assert res.unbounded and res.tau is None
        assert "num/den not finite" in res.notes


class TestClosedForms:
    @pytest.mark.parametrize("kind, a, p", KFN_CASES)
    def test_inverse_equals_the_old_closed_form(self, kind, a, p):
        # repr round-trips a float bit for bit; an overflow must raise alike
        vs = [float(v) for v in np.logspace(-300, 300, 601)]
        old = OLD_INV[kind](a, p)
        want = [ref.outcome(lambda: old(v), message=False) for v in vs]
        for f in _kfn_spellings(kind, a, p):
            assert [ref.outcome(lambda: f.inverse(v), message=False)
                    for v in vs] == want, f.name

    @pytest.mark.parametrize("C, ratio", [(2.0, 0.5), (1.0, 1.0), (0.0, 0.5),
                                          (1.0, 10.0), (-2.0, 0.5)])
    def test_geometric_equals_its_text(self, C, ratio):
        self._same_answers(geometric(C, ratio),
                           timegain_from_expr(f"{C!r}*{ratio!r}^t"))

    @pytest.mark.parametrize("c", [2.0, 1.0, 0.0, -0.0, -3.5])
    def test_constant_equals_its_text(self, c):
        self._same_answers(constant(c), timegain_from_expr(repr(c)))

    @pytest.mark.parametrize("C", [-2.0, 0.0, 2.0])
    @pytest.mark.parametrize("ratio", [0.0, 0.5, 1.0, 1.5])
    def test_geometric_tail_is_the_true_supremum(self, C, ratio):
        # against the grid path, which "C*r^t + 0" takes; for C = 0 and
        # r = 1.5 the grid reads NaN from 0 * inf once 1.5^t overflows,
        # and its other points are all 0
        gain, grid = geometric(C, ratio), timegain_from_expr(f"{C!r}*{ratio!r}^t + 0")
        for tau in (0, 5, 200):
            ts = np.arange(tau, tau + comparison_mod.TAIL_HORIZON + 1, dtype=float)
            with np.errstate(all="ignore"):
                want, vals = grid.sup_tail(tau), grid.values(ts)
            if math.isnan(want):
                assert (C, ratio) == (0.0, 1.5)
                want = float(np.nanmax(vals))
            assert gain.sup_tail(tau) == want, tau
            if C > 0.0:  # the rule before signs were handled, bit for bit
                old = gain(tau) if ratio <= 1.0 else math.inf
                assert ref.same_bits(gain.sup_tail(tau), old)

    def test_negative_ratio_takes_the_grid_path(self):
        for C in (-2.0, 2.0):
            gain = geometric(C, -0.5)
            grid = timegain_from_expr(f"{C!r}*(-0.5)^t + 0")
            for tau in (0, 5, 200):
                assert ref.same_bits(gain.sup_tail(tau), grid.sup_tail(tau))

    @staticmethod
    def _same_answers(built, text):
        assert built.expr == text.expr
        for tau in (0, 5, 200):
            assert ref.same_bits(built.sup_tail(tau), text.sup_tail(tau))
        got = [[(c.axiom, c.passed, c.witness) for c in decay_checks(g).checks]
               for g in (built, text)]
        assert repr(got[0]) == repr(got[1])


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

    def test_a_non_integer_or_negative_time_takes_the_closed_form(self):
        env = KLEnvelope(2.0, 0.5)
        assert env(3.0, 1.5) == 2.0 * 3.0 * math.exp(-0.75)
        assert env(3.0, -1) == 2.0 * 3.0 * math.exp(0.5)

    def test_decay_series_matches_pointwise(self):
        env = KLEnvelope(2.5, 0.31)
        series = env.decay_series(1.7, 40)
        assert all(series[t] == env(1.7, t) for t in range(40))

    def test_non_decaying_envelope_fails_validation(self):
        flat = KLEnvelope(1.0, 0.0)  # sigma(s, t) = s at every t
        assert [c.axiom for c in validate_class(flat).failures()] == [
            "decays_to_zero_in_t"]

    @pytest.mark.parametrize("C, c, failed", [
        (1.0, 10.0, None),  # a grid scan saw a tie at t = 100 (underflow)
        (1e-300, 0.5, None),
        (0.0, 1.0, "class_K_in_s"),
        (math.nan, 1.0, "class_K_in_s"),
        (1.0, math.inf, "class_K_in_s"),
        (1.0, -0.1, "non_increasing_in_t"),
    ])
    def test_validation_is_analytic_in_the_parameters(self, C, c, failed):
        checks = {chk.axiom: chk for chk in validate_class(KLEnvelope(C, c)).checks}
        if failed is None:
            assert all(chk.passed for chk in checks.values())
            return
        assert not checks[failed].passed
        assert checks[failed].witness == {"C": C, "c": c}  # NaN is C itself


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

    def test_trajectories_without_rows_add_none(self):
        # a zero-row trajectory once raised IndexError from Trajectory.x0
        batch = adversarial_batch(example_2_3().sys, (0, 2), 2.0,
                                  FalsifyBudget(max_trajectories=20, horizon=15,
                                                seed=3))
        batch[4].Y[6] = math.nan
        empty = ref.cut(batch[0], 0)
        want = fit_kl_envelope(batch)
        got = fit_kl_envelope([empty, *batch[:7], empty, *batch[7:]])
        assert got.notes == ["NaN output norm at trajectory 5, t - t0 = 6"]
        assert want.notes == ["NaN output norm at trajectory 4, t - t0 = 6"]
        shift = 1 + (want.witness["trajectory"] >= 7)
        assert got.witness == {**want.witness,
                               "trajectory": want.witness["trajectory"] + shift}
        for key in ("C", "c", "max_slack", "failed", "n_points"):
            assert ref.dumps(getattr(got, key)) == ref.dumps(getattr(want, key)), key
        for rows in ([], [empty], [empty, empty]):
            with pytest.raises(ValueError, match="no trajectory rows"):
                fit_kl_envelope(rows)

    def test_domination_point_by_point_on_simulated_batch(self):
        bundle = example_2_3()
        budget = FalsifyBudget(max_trajectories=200, horizon=40, seed=7)
        batch = adversarial_batch(bundle.sys, (0,), 2.0, budget)
        fit = fit_kl_envelope(batch)
        assert fit.c > 0.0  # output-stable plant: decay must appear
        for traj in batch:
            assert np.all(np.abs(traj.Y[:, 0])
                          <= ref.kl_bounds(traj, fit.envelope, fit.envelope.beta))
        assert fit.max_slack >= 0.0
        assert fit.witness["slack"] >= 0.0

    def test_envelope_report_json_keys(self):
        fit = fit_kl_envelope([make_traj(0, [1.0],
                                         [math.exp(-t) for t in range(10)])])
        js = fit.to_json()
        for key in ("C", "c", "beta", "max_slack", "witness"):
            assert key in js


def _fit_fields(fit):
    env = fit.envelope
    return {"C": env.C, "c": env.c, "g": env.g, "beta": env.beta.name,
            "max_slack": fit.max_slack, "witness": fit.witness,
            "degenerate": fit.degenerate, "failed": fit.failed,
            "n_points": fit.n_points, "notes": fit.notes, "json": fit.to_json()}


_FIT_SPECIAL = [math.nan, math.inf, 0.0, -0.0, 1e-300, 1e300, -2.0]
_FIT_BETAS = {"none": None, "two": constant(2.0), "1+t": timegain_from_expr("1+t"),
              "geometric": geometric(3.0, 0.5)}


@st.composite
def _fit_batches(draw):
    """(batch, beta): trajectories of one output width (1 or 2) with decaying,
    flat or growing outputs, zero or nonzero x0, t0 up to 3, one to eight
    rows, and some outputs replaced by NaN, inf, zeros or extremes."""
    p = draw(st.sampled_from([1, 2]))
    n = draw(st.sampled_from([1, 2]))
    batch = []
    for _ in range(draw(st.integers(1, 5))):
        t0 = draw(st.integers(0, 3))
        rows = draw(st.integers(1, 8))
        x0 = [draw(st.sampled_from([0.0, 0.5, -1.0, 2.0, 1e-200]))
              for _ in range(n)]
        amp = draw(st.sampled_from([0.0, 1e-3, 0.7, 1.0, 3.0, 1e200]))
        ratio = draw(st.sampled_from([0.3, 0.5, 0.9, 1.0, 1.5, 2.0]))
        mix = draw(st.lists(st.floats(-1.0, 1.0), min_size=p, max_size=p))
        Y = [[amp * ratio ** i * (1.0 + 0.25 * m) for m in mix]
             for i in range(rows)]
        for _ in range(draw(st.integers(0, 3))):
            i, j = draw(st.integers(0, rows - 1)), draw(st.integers(0, p - 1))
            Y[i][j] = draw(st.sampled_from(_FIT_SPECIAL))
        if draw(st.booleans()) and draw(st.booleans()):
            Y = [[0.0] * p for _ in range(rows)]  # an all-zero row set
        batch.append(make_traj(t0, x0, Y))
    return batch, _FIT_BETAS[draw(st.sampled_from(sorted(_FIT_BETAS)))]


@settings(max_examples=600, deadline=None)
@given(_fit_batches())
def test_fit_equals_the_row_loop_bit_for_bit(case):
    batch, beta = case
    # polyfit warns (RankWarning) on bad data; outcome ignores it
    assert (ref.outcome(lambda: _fit_fields(fit_kl_envelope(batch, beta)))
            == ref.outcome(lambda: _fit_fields(ref.fit_kl_envelope(batch, beta))))


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


_SLICE_CFG = SampleConfig(d_grid=3, d_random=2, x_directions=3, x_scales=(1.0, 0.5),
                          u_directions=2)
# ||f|| is NaN from t = 18 on, where 2^(60 t) overflows to inf and inf - inf
_NAN_LATE = SystemDef(n=2, m=1, k=1, d_box=[[-1.0, 1.0]],
                      f=["x1*d1 + u1 + x2*(2^(60*t) - 2^(60*t))", "t*x2 - d1*u1"],
                      H=["x1"])
# ||f|| peaks at t = 2, which the thinned grid of a long horizon skips
_PEAK_AT_2 = SystemDef(n=1, m=1, k=0, d_box=[[-1.0, 1.0]],
                       f=["x1*d1/(1 + (t - 2)^2)"], H=["x1"])


def _counting_sampled_sup(monkeypatch):
    """Record the times of the t slices that the sup-||f|| scan evaluates,
    in the order of its sampled_sup calls."""
    calls, real = [], system_mod.sampled_sup

    def counting(sys, sets, *args, **kwargs):
        calls.extend(int(t) for name, rows in sets if name == "t" for t in rows)
        return real(sys, sets, *args, **kwargs)

    monkeypatch.setattr(system_mod, "sampled_sup", counting)
    return calls


class TestSupFSamplerSlices:
    """One sampler evaluates each (t, s) slice once and replays its scan
    over t from the kept slices, with the values of a fresh sampler."""

    @pytest.mark.parametrize("sys, cfg, Ts", [
        (_NAN_LATE, _SLICE_CFG, (0, 1, 2, 5, 10, 20)),
        (_PEAK_AT_2, replace(_SLICE_CFG, t_cap=4), (0, 3, 6, 7, 20)),
        (_PEAK_AT_2, replace(_SLICE_CFG, t_cap=4), (20, 7, 6, 3, 0)),
    ], ids=["NaN slices, default Ts", "t_cap 4, rising Ts", "t_cap 4, falling Ts"])
    def test_one_sampler_equals_a_fresh_sampler_per_call(self, sys, cfg, Ts):
        ss = (0.5, 2.0, 0.5, 1e-3)
        shared = sup_f_sampler(sys, cfg, seed=3)
        got = np.array([shared(T, s) for T in Ts for s in ss])
        want = np.array([sup_f_sampler(sys, cfg, seed=3)(T, s) for T in Ts for s in ss])
        assert got.tobytes() == want.tobytes()
        if sys is _NAN_LATE:
            assert np.isnan(got[-len(ss):]).all() and not np.isnan(got[:-len(ss)]).any()
        else:  # the thinned grid of T = 20 (0, 6, 13, 20) misses the peak
            assert (got[Ts.index(6) * len(ss)], got[Ts.index(20) * len(ss)]) == (0.5, 0.1)

    def test_each_slice_is_evaluated_once_per_s(self, monkeypatch):
        calls = _counting_sampled_sup(monkeypatch)
        ss = (0.5, 2.0, 7.0)
        check_domination(sup_f_sampler(_NAN_LATE, _SLICE_CFG), identity(),
                         constant(1.0), ss=ss)  # Ts = (0, 1, 2, 5, 10, 20)
        assert len(calls) == 21 * len(ss)  # 1 + 2 + 3 + 6 + 11 + 21 = 44 without
        assert sorted(calls) == sorted(list(range(21)) * len(ss))

    @pytest.mark.parametrize("radius", ["nan", "0.5"])
    def test_a_repeated_radius_evaluates_no_new_slice(self, monkeypatch, radius):
        # every call passes a new float object, and a NaN equals none of them
        calls = _counting_sampled_sup(monkeypatch)
        sampler = sup_f_sampler(example_2_3().sys)
        sups = [sampler(2, float(radius)) for _ in range(3)]
        assert calls == [0, 1, 2]
        assert len({np.float64(v).tobytes() for v in sups}) == 1
        assert math.isnan(sups[0]) == (radius == "nan")

    def test_a_raising_slice_is_not_kept(self, monkeypatch):
        sys = SystemDef(n=1, m=1, k=0, d_box=[[-1.0, 1.0]],
                        f=["x1*d1*log(5 - t)"], H=["x1"])  # t = 5 raises
        calls = _counting_sampled_sup(monkeypatch)
        sampler = sup_f_sampler(sys, _SLICE_CFG)
        before = sampler(4, 0.5)
        for _ in range(2):
            with pytest.raises(ExprDomainError, match="log"):
                sampler(5, 0.5)
        assert sampler(4, 0.5) == before
        assert calls == [0, 1, 2, 3, 4, 5, 5]




# --- one expression: a scalar call and an array call agree ---

# every factory with points inside its domain, a point where it is past
# the float range (None: none is) and a point outside its domain (None: it
# has none)
FACTORY_GAINS = {
    "identity": (identity(), [0.0, 1.0, 2.5], math.inf, None),
    "linear": (linear(10.0), [0.0, 1.0, 2.5], 1e308, None),
    "power_fn": (power_fn(2.0, 3.0), [0.0, 1.0, 2.5], 1e200, None),
    "power_fn_root": (power_fn(0.5), [0.0, 1.0, 2.5], None, -1.0),
    "kfn_from_expr": (kfn_from_expr("exp(s) + log(s)"), [1.0, 2.5], 1000.0, 0.0),
    "constant": (constant(-2.5), [0.0, 1.0, 2.5], None, None),
    "geometric": (geometric(3.0, -10.0), [0.0, 1.0, 3.0], 401.0, 0.5),
    "timegain_from_expr": (timegain_from_expr("10^t - sqrt(t - 1)"),
                           [1.0, 2.5], 400.0, 0.0),
}


@pytest.mark.parametrize("name", sorted(FACTORY_GAINS))
def test_factory_call_equals_values_past_the_range_and_outside_the_domain(name):
    gain, points, big, bad = FACTORY_GAINS[name]
    if big is not None:
        assert math.isinf(gain(big))
        points = points + [big]
    got = gain.values(np.array(points))
    assert ref.same_bits(got, np.array([gain(p) for p in points]))
    if bad is not None:
        with pytest.raises(ExprDomainError) as scalar:
            gain(bad)
        with pytest.raises(ExprDomainError) as array:
            gain.values(np.array(points + [bad]))
        assert type(scalar.value) is type(array.value)
        assert not isinstance(scalar.value, ValueError)


TAIL_GAINS = {
    "slow": "2/(1 + t)",
    "fast": "0.5^t",
    "nan_late": "0.5^t + 0*(1e300*1e300)^max(t - 10, 0)",  # NaN past t = 10
    "nan_first": "0*(1e300*1e300) + 1/(1 + t)",  # NaN everywhere
    "domain_late": "sqrt(100 - t)",  # raises past t = 100
}


SIGN_GAINS = {
    "positive": "1 + t",
    "zero_at_one": "1 - t",
    "negative_late": "50 - t",
    "nan_late": "1 + 0*(1e300*1e300)^max(t - 10, 0)",  # NaN past t = 10
    "domain_late": "sqrt(40 - t)",  # raises past t = 40
}


@pytest.mark.parametrize("decaying", [False, True])
@pytest.mark.parametrize("name", sorted(SIGN_GAINS))
def test_sign_scans_equal_the_scalar_loop(name, decaying):
    # one array call over the t grid: the same first witness, NaN not
    # positive yet not negative, and the same domain error; the q rule
    # (decay_checks) scans non_negative, validate_class scans positive
    gain = timegain_from_expr(SIGN_GAINS[name])
    if decaying:
        axiom, rule, bad = "non_negative", decay_checks, lambda v: v < 0.0
    else:
        axiom, rule, bad = "positive", validate_class, lambda v: not v > 0.0
    assert ref.outcome(lambda: rule(gain).checks[0]) == ref.outcome(
        lambda: ref.sign_check(gain, axiom, bad))


@pytest.mark.parametrize("name", sorted(TAIL_GAINS))
def test_tails_and_decay_grid_equal_the_scalar_loops(name):
    gain = timegain_from_expr(TAIL_GAINS[name])
    for tau in (0, 5, 200):
        assert ref.outcome(lambda: gain.sup_tail(tau)) == ref.outcome(
            lambda: ref.sup_tail(gain, tau, comparison_mod.TAIL_HORIZON))
    assert ref.outcome(lambda: comparison_mod._check_decay(gain)) == \
        ref.outcome(lambda: ref.check_decay(gain))


_gain_cases = st.sampled_from([("s",), ("t",)]).flatmap(
    lambda names: st.tuples(st.just(names[0]), ref.expressions(names, max_leaves=12)))


@settings(max_examples=300, deadline=None)
@given(_gain_cases, st.lists(ref.values, min_size=1, max_size=8))
def test_gain_values_equal_per_element_calls(case, points):
    var, node = case
    # the values bit for bit, or the first failing element's error
    gain = KFn(node, "generated") if var == "s" else TimeGain(node, "generated")
    want = ref.outcome(lambda: np.array([gain(p) for p in points]))
    assert ref.outcome(lambda: gain.values(np.array(points))) == want
