import json
import math

import pytest

from dtstab.cli import main, num_expr
from dtstab.system import parse_system_file


def run(*argv):
    return main(list(argv))


class TestNumericFlags:
    def test_exact_expression(self):
        assert num_expr("(2+e)/(2*e)") == (2.0 + math.e) / (2.0 * math.e)

    def test_plain_literal(self):
        assert num_expr("1e-9") == 1e-9

    def test_variables_rejected(self):
        import argparse
        with pytest.raises(argparse.ArgumentTypeError, match="variables"):
            num_expr("t + 1")
        with pytest.raises(argparse.ArgumentTypeError):
            num_expr("x1 + 1")


class TestExitCodes:
    def test_unknown_example_is_usage_error(self):
        assert run("simulate", "--example", "does_not_exist") == 2

    def test_missing_system_file(self, tmp_path):
        assert run("simulate", "--system", str(tmp_path / "nope.json")) == 2

    def test_out_of_range_r(self):
        assert run("certify", "--example", "example_4_7", "--r", "1.0",
                   "--check", "contraction") == 2

    def test_unknown_command(self):
        assert run("frobnicate") == 2

    def test_no_source_given(self):
        assert run("certify", "--check", "sandwich") == 2


class TestExamplesCommand:
    def test_list(self, capsys):
        assert run("examples") == 0
        out = capsys.readouterr().out
        for name in ("example_2_3", "example_3_4", "example_4_7"):
            assert name in out

    def test_list_flag_is_gone(self):
        assert run("examples", "--list") == 2  # listing is the default

    def test_self_test_all_bundles(self, capsys):
        assert run("examples", "--self-test") == 0
        out = capsys.readouterr().out
        assert "FAIL" not in out
        assert out.count("PASS") >= 17  # 2 + 3 + 3x4 checks


class TestCertifyCommand:
    def test_relaxed_decrease_cites_lambda(self, tmp_path, capsys):
        code = run("certify", "--example", "example_2_3",
                   "--check", "relaxed-decrease",
                   "--out-dir", str(tmp_path))
        assert code == 0
        report = json.loads((tmp_path / "certify-relaxed-decrease.json")
                            .read_text())
        assert report["verdict"] != "fail"
        assert report["candidate"]["lambda"] == (2.0 + math.e) / (2.0 * math.e)

    def test_contraction_on_closed_loop_example(self, tmp_path):
        code = run("certify", "--example", "example_4_7", "--r", "0.5",
                   "--check", "contraction", "--t-max", "10",
                   "--out-dir", str(tmp_path))
        assert code == 0

    def test_static_rofs_obstruction_reported(self, tmp_path):
        code = run("certify", "--example", "example_4_7", "--r", "0.5",
                   "--check", "rofs-static", "--out-dir", str(tmp_path))
        assert code == 1
        report = json.loads((tmp_path / "certify-rofs-static.json").read_text())
        assert report["worst_margin"] > 0.0

    def test_file_system_with_candidate(self, tmp_path):
        sysfile = tmp_path / "sys.json"
        sysfile.write_text(json.dumps({
            "n": 1, "m": 1, "k": 0, "d_box": [[-0.25, 0.25]],
            "f": ["0.5*x1 + 0.1*d1*x1"], "H": ["x1"], "name": "damped"}))
        candfile = tmp_path / "cand.json"
        candfile.write_text(json.dumps({
            "V": "abs(x1)", "lambda": 0.6, "a1": "s", "a2": "s", "beta": 1.0}))
        code = run("certify", "--system", str(sysfile),
                   "--candidate", str(candfile), "--check", "contraction",
                   "--t-max", "5", "--out-dir", str(tmp_path))
        assert code == 0

    @staticmethod
    def certify_files(tmp_path, system, candidate, check, t_max, tag):
        """``certify --system --candidate`` on JSON files; (exit code, report)."""
        sysfile, candfile = tmp_path / f"sys-{tag}.json", tmp_path / f"cand-{tag}.json"
        sysfile.write_text(json.dumps(system))
        candfile.write_text(json.dumps(candidate))
        out = tmp_path / tag
        code = run("certify", "--system", str(sysfile), "--candidate",
                   str(candfile), "--check", check, "--t-max", str(t_max),
                   "--out-dir", str(out))
        return code, json.loads((out / f"certify-{check}.json").read_text())

    def test_growing_q_is_refused(self, tmp_path, capsys):
        # q = 10^t grows (and overflows past t = 308): the relaxed decrease
        # form needs a decaying q, so both spellings are refused with the
        # decays_to_zero witness, exit 2 and no traceback
        system = {"n": 1, "m": 1, "k": 0, "d_box": [[-0.5, 0.5]],
                  "f": ["d1*x1"], "H": ["x1"], "name": "s"}
        sysfile = tmp_path / "sys.json"
        sysfile.write_text(json.dumps(system))
        for tag, q in (("geometric", {"C": 1, "ratio": 10}), ("text", "10^t")):
            candfile = tmp_path / f"cand-{tag}.json"
            candfile.write_text(json.dumps({"V": "abs(x1)", "a3": "0.5*s", "q": q}))
            code = run("certify", "--system", str(sysfile), "--candidate",
                       str(candfile), "--check", "relaxed-decrease", "--t-max",
                       "320", "--out-dir", str(tmp_path / tag))
            err = capsys.readouterr().err
            assert code == 2
            assert err.startswith("error: q decays_to_zero violated, witness")
            assert "Traceback" not in err
            assert not (tmp_path / tag / "certify-relaxed-decrease.json").exists()

    @pytest.mark.parametrize("lam, code", [(0.5, 0), (0.4, 1)])
    def test_ios_decrease_from_files(self, tmp_path, lam, code):
        system = {"n": 1, "m": 1, "k": 1, "d_box": [[-1, 1]],
                  "f": ["0.5*d1*x1 + u1"], "H": ["x1"], "name": "ios"}
        cand = {"V": "abs(x1)", "lambda": lam, "a3": "s", "phi": 1}
        got, report = self.certify_files(tmp_path, system, cand,
                                         "ios-decrease", 2, "ios")
        assert got == code
        assert report["samples"] == 3 * 7 * 9  # t x states x inputs
        w = report["witness"]
        if code:
            assert report["verdict"] == "fail"
            assert (w["x"], w["u"], w["d"]) == ([10.0], [-5.0], [-1.0])
            assert report["worst_margin"] == w["lhs"] - w["rhs"] > 0.0
        else:
            assert report["verdict"] == "pass" and report["worst_margin"] <= 0.0
        # the witness replays: lhs = V(t + 1, f(t, d, x, u)), rhs = lam V(t, x)
        # + a3(phi(t) |u|)
        sys_ = parse_system_file(system)
        x1 = sys_.f_eval(w["t"], w["d"], w["x"], w["u"])
        assert w["lhs"] == abs(x1[0])
        assert w["rhs"] == lam * abs(w["x"][0]) + abs(w["u"][0])

    def test_candidate_required_for_file_systems(self, tmp_path):
        sysfile = tmp_path / "sys.json"
        sysfile.write_text(json.dumps({
            "n": 1, "m": 0, "k": 0, "d_box": [],
            "f": ["0.5*x1"], "H": ["x1"]}))
        assert run("certify", "--system", str(sysfile),
                   "--check", "contraction") == 2


class TestSimulateCommand:
    def test_writes_standard_csv(self, tmp_path):
        code = run("simulate", "--example", "example_2_3", "--x0", "1,0",
                   "--d-policy", "corner", "--horizon", "7",
                   "--out-dir", str(tmp_path))
        assert code == 0
        lines = (tmp_path / "trajectory.csv").read_text().splitlines()
        assert lines[0] == "t,x1,x2,d1,Y1,y1"
        assert len(lines) == 9

    def test_x0_accepts_expressions(self, tmp_path):
        code = run("simulate", "--example", "example_2_3",
                   "--x0", "(2+e)/(2*e),0", "--horizon", "2",
                   "--out-dir", str(tmp_path))
        assert code == 0

    @pytest.mark.filterwarnings("ignore::RuntimeWarning",
                                "ignore::dtstab.system.EquilibriumWarning")
    def test_nan_rows_make_a_nan_peak(self, tmp_path, capsys):
        # x1 = 0 gives Y = 0; every later x1 makes inf - inf, so Y is NaN
        sysfile = tmp_path / "sys.json"
        sysfile.write_text(json.dumps({
            "n": 1, "m": 1, "k": 0, "d_box": [[0.0, 0.0]], "f": ["x1 + 1"],
            "H": ["x1*1e300*1e300 - x1*1e300*1e300"], "name": "overflow"}))
        code = run("simulate", "--system", str(sysfile), "--horizon", "3",
                   "--out-dir", str(tmp_path))
        assert code == 0
        assert "(peak output norm nan)" in capsys.readouterr().out


class TestVerifyCommand:
    def test_output_attractivity_tau(self, tmp_path):
        code = run("verify", "--example", "example_2_3",
                   "--property", "output-attractivity", "--eps", "0.1",
                   "--R", "1", "--budget", "48", "--horizon", "120",
                   "--out-dir", str(tmp_path))
        assert code == 0
        rep = json.loads((tmp_path / "verify-output-attractivity.json")
                         .read_text())
        assert rep["tau"] == 10

    def test_kl_estimate_against_bundled_envelope(self, tmp_path):
        code = run("verify", "--example", "example_2_3",
                   "--property", "kl-estimate", "--budget", "60",
                   "--out-dir", str(tmp_path))
        assert code == 0


class TestSynthesizeCommand:
    def test_controller_json_and_coincidence(self, tmp_path):
        code = run("synthesize", "--example", "example_4_7", "--r", "0.5",
                   "--simulate", "--horizon", "40", "--out-dir", str(tmp_path))
        assert code == 0
        ctrl = json.loads((tmp_path / "controller.json").read_text())
        assert ctrl == {"p": 1, "psi": "-(y1^2+u0)^2", "w0": [0.0, 0.0]}
        co = json.loads((tmp_path / "coincidence.json").read_text())
        assert co["coincident_from"] == 1
        assert co["verdict"] != "fail"
        header = (tmp_path / "closed_loop.csv").read_text().splitlines()[0]
        assert header == "t,x1,x2,x3,d1,u1,Y1,Y2,Y3,y1,w1,w2"


    @pytest.mark.parametrize("k", [0, 2])
    def test_plant_without_one_input_is_refused(self, tmp_path, capsys, k):
        # Psi gives one input: a plant with k = 2 would read a missing u2,
        # one with k = 0 has no input to drive
        sysfile = tmp_path / "s.json"
        sysfile.write_text(json.dumps({
            "n": 2, "m": 0, "k": k, "d_box": [],
            "f": [f"x{i} + u{i}" if i <= k else f"x{i}" for i in (1, 2)],
            "H": ["x1"], "name": f"s{k}"}))
        code = run("synthesize", "--system", str(sysfile), "--psi=-y1",
                   "--simulate", "--out-dir", str(tmp_path))
        err = capsys.readouterr().err
        assert code == 2
        assert err == (f"error: the delay-chain controller drives one input; "
                       f"the plant has k={k}\n")


class TestFalsifyCommand:
    def test_envelope_survives(self, tmp_path):
        code = run("falsify", "--example", "example_2_3", "--budget", "120",
                   "--out-dir", str(tmp_path))
        assert code == 0
        rep = json.loads((tmp_path / "falsify.json").read_text())
        assert rep["ratio"] <= 1.0

    def test_shrunken_envelope_found(self, tmp_path):
        code = run("falsify", "--example", "example_2_3", "--budget", "60",
                   "--shrink-C", "0.01", "--out-dir", str(tmp_path))
        assert code == 1


class TestIdempotence:
    def test_same_argv_and_seed_byte_identical(self, tmp_path):
        d1, d2 = tmp_path / "a", tmp_path / "b"
        for out in (d1, d2):
            assert run("verify", "--example", "example_2_3",
                       "--property", "kl-estimate", "--budget", "40",
                       "--out-dir", str(out)) == 0
        f1 = (d1 / "verify-kl-estimate.json").read_bytes()
        f2 = (d2 / "verify-kl-estimate.json").read_bytes()
        assert f1 == f2

    @pytest.mark.parametrize("argv, code", [
        (["certify", "--example", "example_4_7", "--r", "0.5",
          "--check", "contraction", "--t-max", "2", "--d-random", "8"], 0),
        (["certify", "--example", "example_4_7", "--r", "0.5",
          "--check", "rofs-static"], 1),
        (["verify", "--example", "example_3_4", "--property", "ios-estimate",
          "--budget", "20", "--horizon", "20"], 0),
        (["falsify", "--example", "example_2_3", "--budget", "40",
          "--horizon", "20"], 0),
        (["synthesize", "--example", "example_4_7", "--r", "0.5",
          "--simulate", "--horizon", "20"], 0),
    ], ids=["certify-contraction", "certify-rofs-static", "verify-ios-estimate",
            "falsify", "synthesize-simulate"])
    def test_every_report_file_byte_identical(self, tmp_path, argv, code):
        files = []
        for out in (tmp_path / "a", tmp_path / "b"):
            assert run(*argv, "--seed", "3", "--out-dir", str(out)) == code
            files.append({p.relative_to(out): p.read_bytes()
                          for p in sorted(out.rglob("*")) if p.is_file()})
        assert files[0] and files[0] == files[1]


class TestVerifyStabilityCommand:
    def test_output_stability_report(self, tmp_path):
        code = run("verify", "--example", "example_2_3",
                   "--property", "output-stability", "--eps", "1",
                   "--budget", "16", "--horizon", "40",
                   "--out-dir", str(tmp_path))
        assert code == 0
        rep = json.loads((tmp_path / "verify-output-stability.json")
                         .read_text())
        assert 0.2 <= rep["delta"] <= 0.25


class TestSimulateWithInput:
    def test_constant_input_policy(self, tmp_path):
        code = run("simulate", "--example", "example_3_4", "--x0", "0,0",
                   "--u-policy", "constant", "--u-value", "3",
                   "--horizon", "10", "--out-dir", str(tmp_path))
        assert code == 0
        lines = (tmp_path / "trajectory.csv").read_text().splitlines()
        assert lines[0] == "t,x1,x2,d1,u1,Y1,y1"
        assert lines[2].split(",")[2] == "3"  # x2(1) = u(0)


class TestCounterexampleEmission:
    def test_failing_stability_writes_trajectory_csv(self, tmp_path):
        sysfile = tmp_path / "doubling.json"
        sysfile.write_text(json.dumps({
            "n": 1, "m": 0, "k": 0, "d_box": [],
            "f": ["2*x1"], "H": ["x1"], "name": "doubling"}))
        # horizon long enough that even the smallest tested delta doubles
        # past eps, so no delta passes and the worst run is dumped
        code = run("verify", "--system", str(sysfile),
                   "--property", "output-stability", "--eps", "1",
                   "--budget", "8", "--horizon", "50",
                   "--out-dir", str(tmp_path))
        assert code == 1
        csv = (tmp_path / "counterexample.csv").read_text().splitlines()
        assert csv[0] == "t,x1,Y1,y1"
        assert len(csv) == 52
