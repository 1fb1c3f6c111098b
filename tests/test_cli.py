import dataclasses
import json

import numpy as np
import pytest

import vem.cli as cli
from conftest import (blowing_up, growing_horizon, growing_saddle,
                      saddle_benchmark, shrinking_horizon, unreachable_benchmark)
from vem import IntegratorOptions, assemble_ivp, driver, problems, solve_benchmark
from vem.cli import main
from vem.errors import (NonFiniteDynamics, SingularSystem, StepFailure,
                        TfCollapse, VemError)
from vem.numerics import COND_LIMIT


def _read_csv_header(path):
    return path.read_text().splitlines()[0].split(",")


def _assert_outdir_rejected(argv, outdir, monkeypatch, capsys):
    """``argv`` with ``--outdir`` naming an existing file exits 2 before
    any solve, with argparse's usage and one error line naming the
    option."""
    def no_solve(*args, **kwargs):
        raise AssertionError("solve started")

    monkeypatch.setattr(cli, "solve_benchmark", no_solve)
    outdir.write_text("not a directory\n")
    with pytest.raises(SystemExit) as info:
        main([*argv, "--outdir", str(outdir)])
    assert info.value.code == 2
    err = capsys.readouterr().err.splitlines()
    assert err[-1].startswith("vem ") and "error: argument --outdir: " in err[-1]
    assert str(outdir) in err[-1]
    assert outdir.read_text() == "not a directory\n"


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
        ["--tau-end", "inf"], ["--tau-end", "-1"], ["--tau-end", "1e-14"],
        ["--tau-end", "5e-14"], ["--nodes", "3"]],
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

    def test_file_as_outdir_is_usage_error(self, tmp_path, monkeypatch, capsys):
        _assert_outdir_rejected(["solve", "--problem", "double-integrator"],
                                tmp_path / "taken", monkeypatch, capsys)

    def test_unknown_problem_is_usage_error(self, tmp_path, capsys):
        code = main(["solve", "--problem", "pendulum",
                     "--outdir", str(tmp_path)])
        assert code == 2
        # The KeyError's message, as str() of a KeyError quotes it.
        assert capsys.readouterr().err == (
            f"\"unknown problem 'pendulum'; known: "
            f"{problems.benchmark_names()}\"\n")

    def test_report_names_the_benchmark(self, tmp_path, monkeypatch):
        # Two registered variants of one problem are told apart in their
        # reports: the report names the benchmark asked for.
        monkeypatch.setitem(problems._REGISTRY, "di-noref", lambda: dataclasses.replace(
            problems.double_integrator(), name="di-noref", reference=None))
        assert main(["solve", "--problem", "di-noref", "--tau-end", "1",
                     "--outdir", str(tmp_path)]) == 0
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["problem"] == "di-noref"
        assert report["e_J"] is None

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

    @pytest.mark.parametrize("command", ["solve", "compare"])
    def test_linear_algebra_error_propagates(self, tmp_path, monkeypatch,
                                             command):
        # LinAlgError is a ValueError, but a solver fault: it is re-raised
        # before a bad option would be reported, by both commands.
        def failing(*args, **kwargs):
            raise np.linalg.LinAlgError("injected")

        monkeypatch.setattr(cli, "solve_benchmark", failing)
        target = (["--problem", "double-integrator"] if command == "solve" else
                  ["--problems", "double-integrator", "brachistochrone"])
        with pytest.raises(np.linalg.LinAlgError, match="^injected$"):
            main([command, *target, "--outdir", str(tmp_path)])

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

    def test_non_finite_horizon(self, monkeypatch, tmp_path, capsys):
        # A free horizon that turns NaN mid-run is a solver error, not a
        # bad run option.
        rhs, calls = driver.EvolutionSystem.rhs, [0]

        def poisoned(system, tau, vec):
            calls[0] += 1
            if calls[0] == 40:
                vec = vec.copy()
                vec[-1] = np.nan
            return rhs(system, tau, vec)

        monkeypatch.setattr(driver.EvolutionSystem, "rhs", poisoned)
        assert main(["solve", "--problem", "brachistochrone", "--nodes", "21",
                     "--outdir", str(tmp_path)]) == 6
        assert ("solver error: horizon end nan is not finite"
                in capsys.readouterr().err)

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
        # The CLI builds its options from --rtol and --atol; here with the
        # budget's max_steps.
        @dataclasses.dataclass
        class Budget(IntegratorOptions):
            max_steps: int = 40

        monkeypatch.setattr(cli, "IntegratorOptions", Budget)
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

    def test_forward_transition_guard_mid_run(self, monkeypatch, tmp_path,
                                              capsys):
        # The growing saddle passes the guard at its starting horizon and
        # fails it once cond(Phi(tf, t0)) = exp(20 tf) passes the limit,
        # though its f_x and L_x rows never change: the substep widths key
        # the kept tangents, so every new horizon rebuilds them and checks
        # the condition afresh, and no accepted step gets past the limit.
        exc, history = self._history(SingularSystem, growing_saddle(), "third")
        assert str(exc).startswith("forward transition matrix condition "
                                   "estimate")
        assert (history.snapshots[0].tf < history.snapshots[-1].tf
                < np.log(COND_LIMIT) / 20.0)
        assert self._cli(monkeypatch, tmp_path, growing_saddle) == 5
        assert capsys.readouterr().err.startswith(
            "singular system: forward transition matrix condition estimate")

    @pytest.mark.parametrize("tau_end", ["inf", "-1"])
    def test_bad_tau_end_named_before_assembly(self, monkeypatch, tmp_path,
                                               capsys, tau_end):
        # The saddle would fail the conditioning guard while the IVP is
        # assembled; the bad span is reported first.
        assert self._cli(monkeypatch, tmp_path, saddle_benchmark,
                         "--tau-end", tau_end) == 2
        err = capsys.readouterr().err
        assert err == ("invalid run option: tau_end must be finite and "
                       "non-negative\n")

    @pytest.mark.parametrize("tau_end", ["1e-14", "5e-14"])
    def test_short_tau_end_named_before_assembly(self, monkeypatch, tmp_path,
                                                 capsys, tau_end):
        # A positive span too short for the tau-integrator's default step
        # cap to step is a bad option, reported before the saddle's
        # assembly would fail.
        assert self._cli(monkeypatch, tmp_path, saddle_benchmark,
                         "--tau-end", tau_end) == 2
        err = capsys.readouterr().err
        assert err == (f"invalid run option: tau_end {tau_end} is too short "
                       "to step; use 0 or >= 1e-13\n")

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

    def test_file_as_outdir_is_usage_error(self, tmp_path, monkeypatch, capsys):
        _assert_outdir_rejected(["compare", "--problems", "double-integrator",
                                 "brachistochrone"],
                                tmp_path / "taken", monkeypatch, capsys)

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


    def test_run_without_reference_prints_blank_errors(self, tmp_path,
                                                       monkeypatch, capsys):
        # A registered benchmark may have no reference; its error cells
        # are blank in the table as in the CSV.
        monkeypatch.setitem(problems._REGISTRY, "di-noref", lambda: dataclasses.replace(
            problems.double_integrator(), name="di-noref", reference=None))
        code = main(["compare", "--problems", "double-integrator", "di-noref",
                     "--methods", "third", "--tau-end", "1",
                     "--outdir", str(tmp_path)])
        assert code == 0
        table = capsys.readouterr().out.splitlines()
        assert table[2].startswith(f"{'di-noref':<20}{'third':<8}{41:>5}")
        assert table[2][42:] == " " * 26     # blank e_J, e_u, no e_x
        assert table[1][42:54].strip() != ""
        rows = (tmp_path / "comparison.csv").read_text().splitlines()
        assert rows[2].split(",")[:3] == ["di-noref", "third", "41"]
        assert rows[2].split(",")[4:] == ["", "", "", ""]

    @pytest.mark.parametrize("option", [
        ["--gain-k", "inf"], ["--gain-kg", "nan"], ["--rtol", "nan"],
        ["--tau-end", "-1"], ["--tau-end", "1e-20"], ["--nodes", "3"]],
        ids=" ".join)
    def test_bad_option_makes_no_run(self, option, tmp_path, monkeypatch, capsys):
        # Every run's options are checked before the first solve starts.
        solves = []
        monkeypatch.setattr(cli, "solve_benchmark",
                            lambda *args, **kwargs: solves.append(args))
        code = main(["compare", "--problems", "double-integrator", "brachistochrone",
                     *option, "--outdir", str(tmp_path)])
        assert code == 2
        assert capsys.readouterr().err.startswith("invalid run option: ")
        assert solves == []
        assert not (tmp_path / "comparison.csv").exists()

    def test_failed_start_check_is_an_error_row(self, tmp_path, capsys):
        # The coupled run's feasible-mode start check fails on this start;
        # the finished control-only run is kept and the table written.
        code = main(["compare", "--problems", "double-integrator",
                     "--methods", "third", "second", "--mode", "feasible",
                     "--tau-end", "1", "--outdir", str(tmp_path)])
        assert code == 6
        rows = (tmp_path / "comparison.csv").read_text().splitlines()
        assert rows[1].split(",")[:3] == ["double-integrator", "third", "41"]
        assert rows[2].startswith("double-integrator,second,error: ValueError: "
                                  "feasible mode needs a start")
        assert "feasible mode needs a start" in capsys.readouterr().out


class TestCheck:
    def test_derivative_suite_passes(self, capsys):
        assert main(["check", "derivatives"]) == 0
        out = capsys.readouterr().out
        assert "[ok]" in out and "FAIL" not in out

    def test_unknown_suite_is_usage_error(self):
        with pytest.raises(SystemExit) as info:
            main(["check", "everything"])
        assert info.value.code == 2

    def test_invariant_suite_names_in_order(self, capsys):
        assert main(["check", "invariants", "--seed", "1"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert [line.split(":")[0] for line in lines[:-1]] == [
            f"[ok] {name}" for name in (
                "integrator-order", "spline-cubic", "quadrature-cumulative",
                "dense-solve", "pack-roundtrip", "psi-forward-backward",
                "gradient-forms", "fused-vs-backward", "banded-vs-products",
                "stencil-doubling", "stationarity", "convolution-vs-variational",
                "mode-reduction", "multiplier-projection")]
        assert lines[-1] == "14/14 checks passed"

    @pytest.mark.parametrize("seed", ["-1", "x"])
    def test_bad_seed_is_usage_error(self, seed, capsys):
        with pytest.raises(SystemExit) as info:
            main(["check", "invariants", "--seed", seed])
        assert info.value.code == 2
        assert "--seed" in capsys.readouterr().err
