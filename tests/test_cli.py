"""End-to-end CLI tests through the installed console script."""

import dataclasses
import subprocess
import sys

import pytest

import craoi.cli
from craoi import (
    PuRates,
    SystemModel,
    SystemParams,
    age_optimal_policy,
    average_aoi_series,
    collision_probability,
)


def run_cli(*args, **kwargs):
    return subprocess.run(
        [sys.executable, "-m", "craoi.cli", *args],
        capture_output=True,
        text=True,
        **kwargs,
    )


def parse_kv(stdout: str) -> dict:
    out = {}
    for line in stdout.splitlines():
        key, _, value = line.partition(" ")
        out[key] = value
    return out


class TestSolve:
    def test_matches_closed_form_module(self):
        res = run_cli(
            "solve", "--alpha", "0.02", "--beta", "0.4", "--phi-s", "0.2", "--eta-s", "0.0005"
        )
        assert res.returncode == 0
        got = parse_kv(res.stdout)
        pol = age_optimal_policy(
            SystemParams(rates=PuRates(0.02, 0.4), phi_s=0.2, eta_s=0.0005)
        )
        assert int(got["gamma1"]) == pol.gamma1
        assert int(got["gamma2"]) == pol.gamma2
        assert float(got["mu"]) == pytest.approx(pol.mu, rel=1e-9)
        assert float(got["avg_aoi"]) == pytest.approx(pol.avg_aoi, rel=1e-9)

    def test_eta_p_budget(self):
        res = run_cli(
            "solve", "--alpha", "0.002", "--beta", "0.006", "--phi-s", "0.2", "--eta-p", "0.01"
        )
        assert res.returncode == 0
        got = parse_kv(res.stdout)
        assert float(got["psi_p"]) == pytest.approx(0.01, rel=1e-6)

    def test_both_budgets_rejected(self):
        res = run_cli(
            "solve",
            "--alpha", "0.02", "--beta", "0.4", "--phi-s", "0.2",
            "--eta-s", "0.0005", "--eta-p", "0.01",
        )
        assert res.returncode == 2

    def test_invalid_rates_exit_one(self):
        res = run_cli(
            "solve", "--alpha", "-1", "--beta", "0.4", "--phi-s", "0.2", "--eta-s", "0.0005"
        )
        assert res.returncode == 1
        assert "error" in res.stderr

    @pytest.mark.parametrize("alpha,beta,message", [
        ("30", "0.4", "past 2**53"),
        ("38", "0.4", "past 2**53"),
        ("700", "0.4", "past 2**53"),
        ("702", "0.4", "threshold overflows"),
        ("709", "0.4", "success probability"),
        ("746", "0.4", "success probability"),
        ("1000", "0.4", "success probability"),
        ("inf", "0.4", "positive and finite"),
        ("0.02", "inf", "positive and finite"),
    ])  # fmt: skip
    def test_extreme_rates_exit_one(self, alpha, beta, message, capsys):
        # one error line that names the problem: no traceback, NaN output or
        # unrelated conversion error
        argv = ["solve", "--alpha", alpha, "--beta", beta, "--phi-s", "0.2", "--eta-s", "0.0005"]
        assert craoi.cli.main(argv) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert len(err.splitlines()) == 1
        assert err.startswith("error: ") and message in err

    def test_verify_agrees(self):
        res = run_cli(
            "solve",
            "--alpha", "0.02", "--beta", "0.4", "--phi-s", "0.2",
            "--eta-s", "0.002", "--verify",
        )
        assert res.returncode == 0
        assert "rvi_agreement ok" in res.stdout

    def test_verify_agrees_at_integer_threshold(self):
        # eta_s = psi_s(6): the closed form names the threshold-6 policy
        # (5, 6, mu=0) and the solver may name it (6, 7, mu=1).
        res = run_cli(
            "solve",
            "--alpha", "0.1", "--beta", "0.9", "--phi-s", "0.2",
            "--eta-s", "0.019593510606146523", "--verify",
        )
        assert res.returncode == 0
        assert "rvi_agreement ok" in res.stdout

    @pytest.mark.parametrize("gamma", [20_000, 50_000, 200_000])
    def test_verify_agrees_at_deep_threshold(self, gamma, capsys):
        # thresholds gamma and gamma + 1 on a slow PU, the budget halfway
        # between their collision probabilities: the solver's achieved metrics
        # agree with the closed form's within the CLI's 1e-12 at any depth
        model = SystemModel(rates=PuRates(1e-4, 3e-4), phi_s=0.2)
        eta = 0.5 * (collision_probability(gamma, model) + collision_probability(gamma + 1, model))
        argv = ["solve", "--alpha", "0.0001", "--beta", "0.0003", "--phi-s", "0.2",
                "--eta-s", repr(eta), "--verify"]  # fmt: skip
        assert craoi.cli.main(argv) == 0
        out = capsys.readouterr().out
        assert f"gamma1 {gamma}\n" in out
        assert "rvi_agreement ok" in out

    DEEP = ["solve", "--alpha", "0.002", "--beta", "0.006", "--phi-s", "0.2",
            "--eta-p", "0.01", "--verify"]  # fmt: skip

    def test_verify_sizes_truncation(self):
        # the solver's policy head grows to threshold 138 and past it
        res = run_cli(*self.DEEP)
        assert res.returncode == 0
        assert "rvi_agreement ok (rvi gamma1=138 gamma2=139" in res.stdout

    def test_delta_max_is_ignored(self, capsys):
        # older command lines pass --delta-max; the value changes nothing
        assert craoi.cli.main(self.DEEP) == 0
        plain = capsys.readouterr().out
        assert craoi.cli.main(self.DEEP + ["--delta-max", "40"]) == 0
        assert capsys.readouterr().out == plain
        assert "rvi_agreement ok (rvi gamma1=138 gamma2=139" in plain

    def test_verify_compares_metrics(self, monkeypatch, capsys):
        # the same policy with an average age off by 1e-9 relative must not pass
        solve = craoi.cli.lambda_bisection

        def skewed(model):
            sol = solve(model)
            policy = sol.policy._replace(avg_aoi=sol.policy.avg_aoi * (1.0 + 1e-9))
            return dataclasses.replace(sol, policy=policy)

        monkeypatch.setattr(craoi.cli, "lambda_bisection", skewed)
        rc = craoi.cli.main(
            ["solve", "--alpha", "0.02", "--beta", "0.4", "--phi-s", "0.2",
             "--eta-s", "0.002", "--verify"]
        )  # fmt: skip
        assert rc == 1
        assert "rvi_agreement MISMATCH (rvi gamma1=" in capsys.readouterr().out

    @pytest.mark.parametrize("evaluator", ["age_optimal_policy", "policy_cost_evaluate"])
    def test_verify_compares_forward_walk(self, evaluator, monkeypatch, capsys):
        # the closed form and the solver both sum renewals backward, so the
        # solver's metrics are also held to a forward walk of the closed-form
        # policy's table: an average age off by 1e-9 relative on either side
        # must not pass
        evaluate = getattr(craoi.cli, evaluator)

        def skewed(*args):
            out = evaluate(*args)
            if evaluator == "age_optimal_policy":
                return out._replace(avg_aoi=out.avg_aoi * (1.0 + 1e-9))
            return out[0] * (1.0 + 1e-9), out[1]

        monkeypatch.setattr(craoi.cli, evaluator, skewed)
        rc = craoi.cli.main(
            ["solve", "--alpha", "0.02", "--beta", "0.4", "--phi-s", "0.2",
             "--eta-s", "0.002", "--verify"]
        )  # fmt: skip
        assert rc == 1
        assert "rvi_agreement MISMATCH (rvi gamma1=" in capsys.readouterr().out

    def test_verify_compares_policies(self, monkeypatch, capsys):
        # a mixing probability off by 2e-6 names another policy, even with the
        # achieved metrics left as they were
        solve = craoi.cli.lambda_bisection

        def shifted(model):
            sol = solve(model)
            return dataclasses.replace(sol, policy=sol.policy._replace(mu=sol.policy.mu + 2e-6))

        monkeypatch.setattr(craoi.cli, "lambda_bisection", shifted)
        rc = craoi.cli.main(
            ["solve", "--alpha", "0.02", "--beta", "0.4", "--phi-s", "0.2",
             "--eta-s", "0.002", "--verify"]
        )  # fmt: skip
        assert rc == 1
        assert "rvi_agreement MISMATCH (rvi gamma1=" in capsys.readouterr().out

    def test_csv_output(self, tmp_path):
        out = tmp_path / "solve.csv"
        res = run_cli(
            "solve",
            "--alpha", "0.02", "--beta", "0.4", "--phi-s", "0.2",
            "--eta-s", "0.0005", "--out", str(out),
        )
        assert res.returncode == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("alpha,beta,phi_s,eta_s,gamma1")
        assert len(lines) == 2


class TestSimulate:
    BASE = ["simulate", "--alpha", "0.02", "--beta", "0.4", "--phi-s", "0.2"]

    def test_threshold_matches_analysis(self):
        res = run_cli(*self.BASE, "--policy", "threshold:20", "--slots", "200000", "--seed", "42")
        assert res.returncode == 0
        got = parse_kv(res.stdout)
        params = SystemModel(rates=PuRates(0.02, 0.4), phi_s=0.2)
        assert float(got["avg_aoi"]) == pytest.approx(average_aoi_series(20, params), rel=0.02)

    def test_same_seed_identical_bytes(self):
        args = self.BASE + ["--policy", "mixed:20,0.5", "--slots", "50000", "--seed", "9"]
        a, b = run_cli(*args), run_cli(*args)
        assert a.stdout == b.stdout
        assert a.returncode == b.returncode == 0

    def test_invalid_threshold_rejected(self):
        res = run_cli(*self.BASE, "--policy", "threshold:0", "--slots", "1000")
        assert res.returncode != 0
        message = "invalid policy 'threshold:0': threshold must be an integer >= 1, got 0"
        assert message in res.stderr

    def test_unknown_policy_rejected(self):
        res = run_cli(*self.BASE, "--policy", "sos:1", "--slots", "1000")
        assert res.returncode == 2

    def test_horizon_required(self):
        res = run_cli(*self.BASE, "--policy", "threshold:5")
        assert res.returncode == 2

    def test_csv_output(self, tmp_path):
        out = tmp_path / "sim.csv"
        res = run_cli(
            *self.BASE, "--policy", "bernoulli:0.1", "--slots", "10000", "--out", str(out)
        )
        assert res.returncode == 0
        assert out.read_text().splitlines()[0].startswith("avg_aoi,psi_s_hat")

    def test_csv_matches_stdout(self, tmp_path):
        out = tmp_path / "sim.csv"
        res = run_cli(
            *self.BASE, "--policy", "mixed:9,0.37", "--slots", "30000", "--seed", "5",
            "--out", str(out),
        )  # fmt: skip
        assert res.returncode == 0
        printed = parse_kv(res.stdout)
        assert list(printed)[-1] == "aoi_divergence"
        del printed["aoi_divergence"]
        header, values = (line.split(",") for line in out.read_text().splitlines())
        assert header == list(printed)
        # the CSV keeps 6 significant digits of what stdout prints to 10
        assert [f"{float(v):.6g}" for v in values] == [
            f"{float(v):.6g}" for v in printed.values()
        ]


class TestExperiment:
    def test_table1_written(self, tmp_path):
        res = run_cli("experiment", "table1", "--out", str(tmp_path))
        assert res.returncode == 0
        lines = (tmp_path / "table1.csv").read_text().splitlines()
        assert len(lines) == 9  # header + 8 cells

    def test_unknown_preset_rejected(self, tmp_path):
        res = run_cli("experiment", "fig99", "--out", str(tmp_path))
        assert res.returncode == 2

    def test_deterministic_bytes(self, tmp_path):
        for sub in ("a", "b"):
            d = tmp_path / sub
            d.mkdir()
            assert run_cli("experiment", "fig6", "--out", str(d)).returncode == 0
        assert (tmp_path / "a" / "fig6.csv").read_bytes() == (
            tmp_path / "b" / "fig6.csv"
        ).read_bytes()
