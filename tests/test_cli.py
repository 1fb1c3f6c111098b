import json

import pytest

import vem.cli as cli
from conftest import (blowing_up, growing_horizon, saddle_benchmark,
                      shrinking_horizon, unreachable_benchmark)
from vem import IntegratorOptions, assemble_ivp, problems, solve_benchmark
from vem.cli import main
from vem.errors import (NonFiniteDynamics, SingularSystem, StepFailure,
                        TfCollapse, VemError)


def _read_csv_header(path):
    return path.read_text().splitlines()[0].split(",")


class TestSolve:
    def test_short_run_writes_all_outputs(self, tmp_path):
        code = main(["solve", "--problem", "double-integrator",
                     "--method", "third", "--tau-end", "5",
                     "--outdir", str(tmp_path)])
        assert code == 0
        for name in ("trajectory.csv", "history.json", "report.json"):
            assert (tmp_path / name).exists()

        header = _read_csv_header(tmp_path / "trajectory.csv")
        assert header == ["tau", "t", "x1", "x2", "u1", "lambda1", "lambda2"]
        body = (tmp_path / "trajectory.csv").read_text().splitlines()[1:]
        taus = {line.split(",")[0] for line in body}
        # 41 rows per recorded snapshot
        assert len(body) == 41 * len(taus)

        history = json.loads((tmp_path / "history.json").read_text())
        for key in ("tau", "J", "tf", "pi", "residual_optimality",
                    "residual_constraint", "residual_transversality",
                    "termination_reason"):
            assert key in history
        assert history["tau"][0] == 0.0
        assert history["tau"][-1] == 5.0

        report = json.loads((tmp_path / "report.json").read_text())
        assert report["ivp_dimension"] == 41
        assert report["problem"] == "double-integrator"
        assert "wall_seconds" not in report

    def test_zero_span_keeps_initial_guess_only(self, tmp_path):
        code = main(["solve", "--problem", "double-integrator",
                     "--tau-end", "0", "--outdir", str(tmp_path)])
        assert code == 0
        body = (tmp_path / "trajectory.csv").read_text().splitlines()[1:]
        assert len(body) == 41
        assert all(line.split(",")[0] == "0" for line in body)
        # Zero initial control guess in every row.
        assert all(float(line.split(",")[4]) == 0.0 for line in body)

    # Warnings are errors here: pytest would otherwise catch a numpy
    # RuntimeWarning that the command line prints to stderr.
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("command", ["solve", "compare"])
    @pytest.mark.parametrize("option", [
        ["--gain-ktf", "nan"], ["--gain-ktf", "inf"], ["--gain-k", "nan"],
        ["--gain-k", "inf"], ["--gain-kg", "nan"], ["--gain-kg", "inf"],
        ["--rtol", "nan"], ["--rtol", "inf"],
        ["--atol", "nan"], ["--atol", "inf"], ["--tau-end", "nan"],
        ["--tau-end", "inf"], ["--tau-end", "-1"], ["--nodes", "3"]],
        ids=" ".join)
    def test_bad_run_option_is_usage_error(self, command, option, tmp_path,
                                           capsys):
        target = (["--problem", "brachistochrone"] if command == "solve" else
                  ["--problems", "double-integrator", "brachistochrone"])
        code = main([command, *target, *option, "--outdir", str(tmp_path)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("invalid run option: ")
        assert len(err.splitlines()) == 1
        if option[0] == "--tau-end":
            assert "tau_end" in err

    @pytest.mark.parametrize("problem", ["double-integrator", "brachistochrone"])
    def test_feasible_mode_from_infeasible_start_is_usage_error(
            self, problem, tmp_path, capsys):
        code = main(["solve", "--problem", problem, "--method", "second",
                     "--mode", "feasible", "--outdir", str(tmp_path)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("invalid run option: feasible mode needs a start")
        assert len(err.splitlines()) == 1
        assert not (tmp_path / "report.json").exists()

    def test_unknown_problem_is_usage_error(self, tmp_path):
        code = main(["solve", "--problem", "pendulum",
                     "--outdir", str(tmp_path)])
        assert code == 2

    def test_deterministic_outputs(self, tmp_path):
        args = ["solve", "--problem", "double-integrator", "--tau-end", "5"]
        d1, d2 = tmp_path / "a", tmp_path / "b"
        assert main(args + ["--outdir", str(d1)]) == 0
        assert main(args + ["--outdir", str(d2)]) == 0
        for name in ("report.json", "history.json", "trajectory.csv"):
            assert (d1 / name).read_bytes() == (d2 / name).read_bytes()

    def test_gain_override_changes_result(self, tmp_path):
        base, alt = tmp_path / "base", tmp_path / "alt"
        main(["solve", "--problem", "double-integrator", "--tau-end", "5",
              "--outdir", str(base)])
        main(["solve", "--problem", "double-integrator", "--tau-end", "5",
              "--gain-k", "0.2", "--outdir", str(alt)])
        j1 = json.loads((base / "report.json").read_text())["J"]
        j2 = json.loads((alt / "report.json").read_text())["J"]
        assert j1 != j2

    def test_output_dir_env_default(self, tmp_path, monkeypatch):
        monkeypatch.setenv("VEM_OUTPUT_DIR", str(tmp_path / "envout"))
        code = main(["solve", "--problem", "double-integrator",
                     "--tau-end", "0"])
        assert code == 0
        assert (tmp_path / "envout" / "report.json").exists()

    def test_full_span_run_reaches_expected_accuracy(self, tmp_path):
        code = main(["solve", "--problem", "double-integrator",
                     "--method", "third", "--no-early-stop",
                     "--outdir", str(tmp_path)])
        assert code == 0
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["e_J"] <= 1e-4
        assert max(report["e_u"]) <= 1e-3


class TestFailureExitCodes:
    @pytest.mark.parametrize("error,code,message", [
        (StepFailure, 3, "integration failed"),
        (TfCollapse, 4, "terminal time collapsed"),
        (SingularSystem, 5, "singular system"),
        (VemError, 6, "solver error"),
    ])
    def test_solve_maps_failure_to_exit_code(self, tmp_path, monkeypatch,
                                             capsys, error, code, message):
        def failing(*args, **kwargs):
            raise error("injected")

        monkeypatch.setattr(cli, "solve_benchmark", failing)
        assert main(["solve", "--problem", "double-integrator",
                     "--outdir", str(tmp_path)]) == code
        assert f"{message}: injected" in capsys.readouterr().err
        assert not (tmp_path / "report.json").exists()

    def test_compare_reports_one_failed_combination(self, tmp_path,
                                                    monkeypatch, capsys):
        real = cli.solve_benchmark

        def second_fails(bench, method, **kwargs):
            if method == "second":
                raise TfCollapse("injected")
            return real(bench, method, **kwargs)

        monkeypatch.setattr(cli, "solve_benchmark", second_fails)
        code = main(["compare", "--problems", "double-integrator",
                     "--methods", "second", "third", "--tau-end", "1",
                     "--outdir", str(tmp_path)])
        assert code == 6
        assert "TfCollapse: injected" in capsys.readouterr().out
        rows = (tmp_path / "comparison.csv").read_text().splitlines()[1:]
        assert rows[0].startswith("double-integrator,second,error: TfCollapse")
        assert rows[1].split(",")[:3] == ["double-integrator", "third", "41"]


class TestRealFailures:
    """Each failure class raised by a real solve: the exception with its
    partial history, and the exit code and message of ``vem solve``."""

    @staticmethod
    def _cli(monkeypatch, tmp_path, factory, *extra):
        monkeypatch.setitem(problems._REGISTRY, factory().name, factory)
        code = main(["solve", "--problem", factory().name, *extra,
                     "--outdir", str(tmp_path)])
        assert not (tmp_path / "report.json").exists()
        return code

    @staticmethod
    def _history(error, bench, method, **kwargs):
        with pytest.raises(error) as info:
            solve_benchmark(bench, method, early_stop=False, **kwargs)
        history = info.value.history
        assert history.termination_reason == error.__name__
        assert len(history.snapshots) >= 2
        assert history.snapshots[0].tau == 0.0
        return info.value, history

    @pytest.mark.parametrize("method", ["third", "second"])
    def test_horizon_collapse(self, monkeypatch, tmp_path, capsys, method):
        exc, history = self._history(TfCollapse, shrinking_horizon(), method)
        assert "horizon width" in str(exc)
        assert history.snapshots[-1].tf < history.snapshots[0].tf
        assert self._cli(monkeypatch, tmp_path, shrinking_horizon,
                         "--method", method) == 4
        assert "terminal time collapsed: horizon width" in capsys.readouterr().err

    def test_non_finite_dynamics(self, monkeypatch, tmp_path, capsys):
        exc, history = self._history(NonFiniteDynamics, blowing_up(), "third")
        assert "non-finite" in str(exc)
        assert history.snapshots[-1].states[-1, 0] < 2.0
        assert self._cli(monkeypatch, tmp_path, blowing_up) == 6
        assert "solver error: field returned non-finite" in capsys.readouterr().err

    def test_interval_stencil_budget(self, monkeypatch, tmp_path, capsys):
        # 10 intervals and a budget of 40 substeps: the stencil may refine
        # to 4 substeps per interval, which stops sufficing once the
        # growing horizon stretches the intervals.  The default budget
        # solves the same problem.
        budget = IntegratorOptions(max_steps=40)
        exc, history = self._history(StepFailure, growing_horizon(), "second",
                                     opts=budget)
        assert "interval stencil needs more than max_steps=40" in str(exc)
        assert history.snapshots[-1].tf > 2.0
        _, report = solve_benchmark(growing_horizon(), "second",
                                    early_stop=False)
        assert report.tf > 30.0
        monkeypatch.setattr(cli, "_opts_from_args", lambda args: budget)
        assert self._cli(monkeypatch, tmp_path, growing_horizon,
                         "--method", "second") == 3
        assert ("integration failed: interval stencil needs more than "
                "max_steps=40") in capsys.readouterr().err

    def test_forward_transition_guard(self, monkeypatch, tmp_path, capsys):
        # Saddle dynamics with a = 20 fail the conditioning guard of the
        # fused sweep while the IVP is assembled, before any history.
        assert self._cli(monkeypatch, tmp_path, saddle_benchmark) == 5
        err = capsys.readouterr().err
        assert err.startswith("singular system: forward transition matrix "
                              "condition estimate")
        assert "multiplier" not in err

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("method", ["third", "second"])
    def test_unreachable_constraint(self, monkeypatch, tmp_path, capsys, method):
        # No control moves x2, so the multiplier matrix is zero and its
        # system singular while the IVP is assembled, before any history.
        bench = unreachable_benchmark()
        with pytest.raises(SingularSystem,
                           match=r"^condition estimate inf exceeds 1e\+12$"):
            assemble_ivp(bench.problem, method, bench.default_nodes, bench.gains)
        assert self._cli(monkeypatch, tmp_path, unreachable_benchmark,
                         "--method", method) == 5
        err = capsys.readouterr().err
        assert err.startswith("singular system: condition estimate")
        assert len(err.splitlines()) == 1


class TestCompare:
    def test_single_run_rejected(self, tmp_path):
        code = main(["compare", "--problems", "double-integrator",
                     "--methods", "third", "--outdir", str(tmp_path)])
        assert code == 2

    def test_two_method_comparison(self, tmp_path):
        code = main(["compare", "--problems", "double-integrator",
                     "--methods", "second", "third", "--tau-end", "5",
                     "--outdir", str(tmp_path)])
        assert code == 0
        lines = (tmp_path / "comparison.csv").read_text().splitlines()
        header = lines[0].split(",")
        assert header[:6] == ["problem", "method", "ivp_dimension",
                              "wall_seconds", "e_J", "e_u"]
        dims = {row.split(",")[1]: int(row.split(",")[2]) for row in lines[1:]}
        assert dims == {"second": 123, "third": 41}


class TestCheck:
    def test_derivative_suite_passes(self, capsys):
        assert main(["check", "derivatives"]) == 0
        out = capsys.readouterr().out
        assert "[ok]" in out and "FAIL" not in out

    def test_unknown_suite_is_usage_error(self):
        with pytest.raises(SystemExit) as info:
            main(["check", "everything"])
        assert info.value.code == 2
