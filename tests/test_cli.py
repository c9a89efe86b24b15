import csv
import re
from pathlib import Path

import numpy as np
import pytest

from mltc import cli, cross, driver, fem
from mltc.cli import main
from mltc.config import ExperimentConfig, load_config
from mltc.errors import BudgetError, ConfigError, EllipticityError
from mltc.fields import CoefficientModel

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


MODEL_KEYS = ("kind", "decay", "terms", "mean")


def write_config(path, **overrides):
    base = {
        "kind": "affine", "decay": "exponential", "terms": "2", "mean": "2.0",
        "max_level": "1", "ref_level": "2", "eps0": "0.25", "samples": "5",
        "seed": "7", "tree": "balanced", "out_dir": "out",
    }
    base.update({k: str(v) for k, v in overrides.items()})
    text = "[model]\n" + "".join(f"{k} = {base[k]}\n" for k in MODEL_KEYS)
    text += "[run]\n" + "".join(
        f"{k} = {v}\n" for k, v in base.items() if k not in MODEL_KEYS)
    path.write_text(text)
    return path


def unconverged_at(call):
    """driver.approximate_tensor, with the result of its `call`-th call (from 1)
    marked unconverged at a validation residual of 0.75."""
    approximate = driver.approximate_tensor
    calls = []

    def wrapped(*args, **kwargs):
        result = approximate(*args, **kwargs)
        calls.append(result)
        if len(calls) == call:
            result.cross_diag.converged = False
            result.cross_diag.validation_residual = 0.75
        return result

    return wrapped


def failing_at(call, failure, monkeypatch):
    """driver.approximate_tensor whose `call`-th call (from 1) fails numerically:
    its fibers are NaN ("fiber"), or every pivot block it factorizes has a zero
    on the diagonal ("pivot")."""
    approximate = driver.approximate_tensor
    calls = []

    def wrapped(source, *args, **kwargs):
        calls.append(source)
        if len(calls) == call and failure == "fiber":
            source._fetch = lambda j: np.full(source.n_spatial, np.nan)
        elif len(calls) == call:
            factorize = cross.PivotMatrix.__init__

            def singular(self, M):
                factorize(self, M)
                self._singular = True

            monkeypatch.setattr(cross.PivotMatrix, "__init__", singular)
        return approximate(source, *args, **kwargs)

    return wrapped


def failing_banded_solve(at_level):
    """fem._banded_solve that fails like a factorization that is not positive
    definite at `at_level` and solves every other level."""
    banded_solve = fem._banded_solve

    def wrapped(y, level, model):
        if level == at_level:
            raise ArithmeticError("banded factorization failed (dpbtrf info 3)")
        return banded_solve(y, level, model)

    return wrapped


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


class TestConfig:
    def test_bundled_config_parses(self):
        cfg = load_config(CONFIGS / "exp-decay-small.ini")
        assert cfg.terms == 5 and cfg.max_level == 4

    def test_missing_file(self):
        with pytest.raises(ConfigError):
            load_config("/no/such/file.ini")

    @pytest.mark.parametrize("name", ["exp-decay-small", "exp-decay-full",
                                      "lambda-zero", "log-uniform-small"])
    def test_every_bundled_config_loads(self, name):
        assert load_config(CONFIGS / f"{name}.ini").source.endswith(f"{name}.ini")

    @pytest.mark.parametrize("key, value", [("eval_budjet", "200000000"),
                                            ("threads", "2")])
    def test_unknown_key_rejected(self, tmp_path, key, value):
        path = write_config(tmp_path / "c.ini", **{key: value})
        with pytest.raises(ConfigError, match=rf"{key}.*\[run\]"):
            load_config(path)
        assert main(["run", str(path)]) == 2

    def test_unknown_section_rejected(self, tmp_path):
        path = write_config(tmp_path / "c.ini")
        path.write_text(path.read_text() + "[solver]\nkind = direct\n")
        with pytest.raises(ConfigError, match="solver"):
            load_config(path)

    def test_bad_values(self, tmp_path):
        path = write_config(tmp_path / "bad.ini", decay="sqrt")
        with pytest.raises(ConfigError):
            load_config(path)
        path = write_config(tmp_path / "bad2.ini", max_level="3", ref_level="1")
        with pytest.raises(ConfigError):
            load_config(path)

    @pytest.mark.parametrize("key, value", [("max_level", "13"), ("max_level", "-1"),
                                            ("ref_level", "13"), ("rank_cap", "0"),
                                            ("eval_budget", "0"), ("eval_budget", "-1"),
                                            ("seed", "-1"), ("eps0", "nan"),
                                            ("eps0", "inf"), ("mean", "nan"),
                                            ("mean", "inf")])
    def test_out_of_range_rejected(self, tmp_path, monkeypatch, key, value):
        builds = []
        monkeypatch.setattr(cli, "run_ml", lambda *a, **k: builds.append(a))
        path = write_config(tmp_path / "c.ini", out_dir=tmp_path / "out", **{key: value})
        with pytest.raises(ConfigError, match=key):
            load_config(path)
        assert main(["run", str(path)]) == 2
        assert builds == []

    def test_undecodable_file_rejected(self, tmp_path, monkeypatch, capsys):
        builds = []
        monkeypatch.setattr(cli, "run_ml", lambda *a, **k: builds.append(a))
        path = tmp_path / "c.ini"
        path.write_bytes(b"\xff\xfe")
        with pytest.raises(ConfigError, match="cannot parse"):
            load_config(path)
        assert main(["run", str(path), "--out-dir", str(tmp_path / "out")]) == 2
        assert "config error: cannot parse" in capsys.readouterr().err
        assert builds == []

    def test_seed_override_out_of_range(self, tmp_path, monkeypatch, capsys):
        builds = []
        monkeypatch.setattr(cli, "run_ml", lambda *a, **k: builds.append(a))
        path = write_config(tmp_path / "c.ini", out_dir=tmp_path / "out")
        assert main(["run", str(path), "--seed=-1"]) == 2
        assert "seed must be nonnegative" in capsys.readouterr().err
        assert builds == []

    # terms = 40 fits the build to level 1 (2^40 x 25 entries at level 0) but
    # not the reference build to level 3 (3^40 x 25)
    @pytest.mark.parametrize("terms, max_level", [(60, 3), (40, 1)])
    def test_index_overflow_builds_nothing(self, tmp_path, monkeypatch, capsys,
                                           terms, max_level):
        builds = []
        monkeypatch.setattr(cli, "run_ml", lambda *a, **k: builds.append(a))
        path = write_config(tmp_path / "c.ini", terms=terms, max_level=max_level,
                            ref_level=3, out_dir=tmp_path / "out")
        assert main(["run", str(path)]) == 2
        err = capsys.readouterr().err
        assert f"terms = {terms} is too many at level 0 of the build to level 3" in err
        assert builds == []
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("terms", [58, 59])
    def test_index_range_bound_is_exact(self, terms):
        # level 0 of a build to level 1 has degree 1 and 25 nodes
        shape = (2,) * terms + (25,)
        cfg = ExperimentConfig(terms=terms, max_level=1)
        if terms == 58:
            cli._check_index_range(cfg, [1])
            np.ravel_multi_index(tuple(np.array(shape) - 1), shape)
        else:
            with pytest.raises(ConfigError, match="terms = 59"):
                cli._check_index_range(cfg, [1])
            with pytest.raises(ValueError):
                np.ravel_multi_index(tuple(np.array(shape) - 1), shape)


class TestRun:
    def test_small_run_outputs(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
        monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
        cfg = write_config(tmp_path / "c.ini", out_dir=tmp_path / "out")
        assert main(["run", str(cfg)]) == 0
        out = tmp_path / "out"
        with open(out / "levels.csv") as fh:
            header = fh.readline().strip().split(",")
        assert header == ["level", "degree", "n", "r_eff", "r_max", "step1",
                          "step2", "pde_solves", "time_s", "eps_level"]
        levels = list(csv.DictReader(open(out / "levels.csv")))
        assert len(levels) == 2                       # rows 0..max_level
        assert [r["degree"] for r in levels] == ["1", "0"]
        assert levels[-1]["r_max"] == "1"
        for row in levels:                            # finite, nonnegative
            for key in ("r_eff", "step1", "step2", "pde_solves", "time_s",
                        "eps_level"):
                value = float(row[key])
                assert value >= 0 and value == value
        with open(out / "errors.csv") as fh:
            header = fh.readline().strip().split(",")
        assert header == ["max_level", "eps_ml_u", "eps_e_u", "eps_ml_psi",
                          "eps_e_psi"]
        errors = list(csv.DictReader(open(out / "errors.csv")))
        assert len(errors) == 1
        report = (out / "report.txt").read_text()
        # levels 0 and 1 are factorized, in the build and in validation
        assert "build pcg iterations per level (0 LU, -1 fell back to LU): 0 0\n" \
            in report
        assert "validation pcg iterations per level (0 LU, -1 fell back to LU): 0 0\n" \
            in report
        assert ("BLAS threads: OPENBLAS_NUM_THREADS=1 OMP_NUM_THREADS=unset "
                "MKL_NUM_THREADS=unset\n") in report
        # the BLAS builds behind numpy and scipy, each by name and version
        assert re.search(r"^BLAS builds: numpy \S.*, scipy \S.*$", report, re.M)
        # one line per step, one wall time per level
        for step in ("1 \\(column basis\\)", "2 \\(cross approximation\\)"):
            assert re.search(rf"^build step {step} seconds per level: "
                             r"\d+\.\d{3} \d+\.\d{3}$", report, re.M)
        # the fibers fetched in step 2, whose FE solves its time includes: a
        # fiber takes one solve at level 0 and two above it
        fibers = [int(r["pde_solves"]) // min(level + 1, 2) for level, r in enumerate(levels)]
        step2 = " ".join(str(f - int(r["step1"])) for f, r in zip(fibers, levels))
        assert f"build fibers fetched in step 2 per level: {step2}\n" in report

    def test_lambda_zero_run_is_exact(self, tmp_path):
        cfg = write_config(tmp_path / "c.ini", decay="zero", max_level="2",
                           ref_level="2", out_dir=tmp_path / "out")
        assert main(["run", str(cfg)]) == 0
        errors = list(csv.DictReader(open(tmp_path / "out" / "errors.csv")))
        assert float(errors[0]["eps_ml_u"]) < 1e-10
        # ref_level == max_level: no reference build, so no expectation errors
        assert errors[0]["eps_e_u"] == errors[0]["eps_e_psi"] == ""
        assert "eps_E" not in (tmp_path / "out" / "report.txt").read_text()

    def test_missing_config_exit_code(self, capsys):
        assert main(["run", "/no/such/file.ini"]) == 2

    def test_unparsable_budget_exit_code(self, tmp_path):
        cfg = write_config(tmp_path / "c.ini", out_dir=tmp_path / "out",
                           eval_budget="und")
        assert main(["run", str(cfg)]) == 2

    def test_budget_abort_exit_code(self, tmp_path):
        cfg = write_config(tmp_path / "c.ini", out_dir=tmp_path / "out",
                           eval_budget="10")
        assert main(["run", str(cfg)]) == 3
        assert (tmp_path / "out" / "levels.csv").exists()

    def test_ellipticity_failure_exit_code(self, tmp_path, monkeypatch):
        # make_model rejects this model; forcing the relaxation lets run_ml
        # build level 0 and fail on level 1
        relaxed = CoefficientModel("affine", "slow-algebraic", 3, 0.85,
                                   relaxed_ellipticity=True)
        monkeypatch.setattr(cli, "make_model", lambda *args: relaxed)
        path = write_config(tmp_path / "c.ini", decay="slow-algebraic", terms=3,
                            mean=0.85, max_level=2, ref_level=2,
                            out_dir=tmp_path / "out")
        assert cli.cmd_run(load_config(path)) == 4
        levels = list(csv.DictReader(open(tmp_path / "out" / "levels.csv")))
        assert [r["level"] for r in levels] == ["0", "1"]
        assert [r["pde_solves"] for r in levels] == ["8", "0"]

    @pytest.mark.parametrize("error, code", [(BudgetError, 3), (EllipticityError, 4)])
    def test_failed_reference_keeps_levels(self, tmp_path, monkeypatch, error, code):
        # the main build (first call) finishes; the reference build fails
        run_ml = cli.run_ml
        calls = []

        def second_call_fails(*args, **kwargs):
            calls.append(args[2])
            if len(calls) == 2:
                raise error("reference build failed")
            return run_ml(*args, **kwargs)

        monkeypatch.setattr(cli, "run_ml", second_call_fails)
        path = write_config(tmp_path / "c.ini", out_dir=tmp_path / "out")
        assert main(["run", str(path)]) == code
        assert calls == [1, 2]                        # max_level, then ref_level
        levels = read_rows(tmp_path / "out" / "levels.csv")
        assert [r["level"] for r in levels] == ["0", "1"]
        assert all(int(r["pde_solves"]) > 0 for r in levels)
        assert [r["eps_level"] for r in levels] == ["", ""]
        assert not (tmp_path / "out" / "errors.csv").exists()

    def test_failed_validation_keeps_levels(self, tmp_path, monkeypatch):
        # a validation sample may leave the ellipticity range of a relaxed model
        def fails(*args, **kwargs):
            raise EllipticityError("coefficient is nonpositive at a quadrature point")

        monkeypatch.setattr(cli, "error_metrics", fails)
        path = write_config(tmp_path / "c.ini", out_dir=tmp_path / "out")
        assert main(["run", str(path)]) == 4
        levels = read_rows(tmp_path / "out" / "levels.csv")
        assert [r["level"] for r in levels] == ["0", "1"]
        assert all(int(r["pde_solves"]) > 0 for r in levels)
        assert [r["eps_level"] for r in levels] == ["", ""]
        assert not (tmp_path / "out" / "errors.csv").exists()

    @pytest.mark.parametrize("failure", ["fiber", "pivot"])
    def test_numerical_failure_keeps_levels(self, tmp_path, monkeypatch, capsys,
                                            failure):
        # approximate_tensor call 2 is level 1 of the main build
        monkeypatch.setattr(driver, "approximate_tensor",
                            failing_at(2, failure, monkeypatch))
        path = write_config(tmp_path / "c.ini", out_dir=tmp_path / "out")
        assert main(["run", str(path)]) == 5
        assert "numerical failure: " in capsys.readouterr().err
        levels = read_rows(tmp_path / "out" / "levels.csv")
        assert [r["level"] for r in levels] == ["0", "1"]
        assert int(levels[0]["pde_solves"]) > 0
        assert [r["eps_level"] for r in levels] == ["", ""]
        assert not (tmp_path / "out" / "errors.csv").exists()

    def test_failed_banded_validation_keeps_levels(self, tmp_path, monkeypatch, capsys):
        # validation solves levels 0-1 by banded Cholesky; the build does not
        monkeypatch.setattr(fem, "_banded_solve", failing_banded_solve(1))
        path = write_config(tmp_path / "c.ini", out_dir=tmp_path / "out")
        assert main(["run", str(path)]) == 5
        assert "numerical failure: banded factorization failed" in capsys.readouterr().err
        levels = read_rows(tmp_path / "out" / "levels.csv")
        assert [r["level"] for r in levels] == ["0", "1"]
        assert all(int(r["pde_solves"]) > 0 for r in levels)
        assert [r["eps_level"] for r in levels] == ["", ""]
        assert not (tmp_path / "out" / "errors.csv").exists()

    def test_step_times_are_reported(self, tmp_path, monkeypatch):
        # each level's step times reach report.txt, in level order
        approximate = driver.approximate_tensor
        calls = []

        def timed(*args, **kwargs):
            result = approximate(*args, **kwargs)
            calls.append(result)
            result.step1_time, result.step2_time = 0.25 * len(calls), 1.5 * len(calls)
            return result

        monkeypatch.setattr(driver, "approximate_tensor", timed)
        path = write_config(tmp_path / "c.ini", ref_level="1", out_dir=tmp_path / "out")
        assert main(["run", str(path)]) == 0
        report = (tmp_path / "out" / "report.txt").read_text()
        assert "build step 1 (column basis) seconds per level: 0.250 0.500\n" in report
        assert ("build step 2 (cross approximation) seconds per level: 1.500 3.000\n"
                in report)

    def test_unconverged_level_is_reported(self, tmp_path, monkeypatch, capsys):
        # approximate_tensor call 2 is level 1 of the main build
        monkeypatch.setattr(driver, "approximate_tensor", unconverged_at(2))
        path = write_config(tmp_path / "c.ini", out_dir=tmp_path / "out")
        assert main(["run", str(path)]) == 0
        warning = ("warning: level 1 did not converge: "
                   "cross_residual 7.500e-01 > eps_target 2.500e-01")
        err = capsys.readouterr().err
        assert err.count("did not converge") == 1 and warning in err
        report = (tmp_path / "out" / "report.txt").read_text()
        assert report.count("did not converge") == 1 and warning in report

    def test_unconverged_reference_level_is_reported(self, tmp_path, monkeypatch,
                                                     capsys):
        # calls: levels 0-1 of the main build (max_level 1), then levels 0-2 of
        # the reference build (ref_level 2); call 4 is the reference's level 1
        monkeypatch.setattr(driver, "approximate_tensor", unconverged_at(4))
        path = write_config(tmp_path / "c.ini", out_dir=tmp_path / "out")
        assert main(["run", str(path)]) == 0
        warning = ("warning: reference level 1 did not converge: "
                   "cross_residual 7.500e-01 > eps_target 1.250e-01")
        err = capsys.readouterr().err
        assert err.count("did not converge") == 1 and warning in err
        report = (tmp_path / "out" / "report.txt").read_text()
        assert report.count("did not converge") == 1 and warning in report
        assert (tmp_path / "out" / "errors.csv").exists()

    def test_converged_run_warns_nothing(self, tmp_path, capsys):
        path = write_config(tmp_path / "c.ini", out_dir=tmp_path / "out")
        assert main(["run", str(path)]) == 0
        assert "did not converge" not in capsys.readouterr().err
        assert "did not converge" not in (tmp_path / "out" / "report.txt").read_text()

    def test_threads_flag_rejected(self, tmp_path):
        cfg = write_config(tmp_path / "c.ini", out_dir=tmp_path / "out")
        with pytest.raises(SystemExit) as exit_info:
            main(["run", str(cfg), "--threads", "2"])
        assert exit_info.value.code == 2

    def test_nonelliptic_model_exit_code(self, tmp_path):
        cfg = write_config(tmp_path / "c.ini", decay="slow-algebraic", terms=3,
                           mean=0.85, out_dir=tmp_path / "out")
        assert main(["run", str(cfg)]) == 4

    def test_seed_override_changes_nothing_structural(self, tmp_path):
        cfg = write_config(tmp_path / "c.ini", out_dir=tmp_path / "out")
        assert main(["run", str(cfg), "--seed", "99"]) == 0

    def test_bundled_small_config(self, tmp_path):
        cfg = CONFIGS / "exp-decay-small.ini"
        assert main(["run", str(cfg), "--out-dir", str(tmp_path)]) == 0
        levels = list(csv.DictReader(open(tmp_path / "levels.csv")))
        assert len(levels) == 5
        assert [r["degree"] for r in levels] == ["2", "2", "1", "1", "0"]


class TestBlasBuild:
    def test_names_the_library_from_its_config(self):
        class Library:
            @staticmethod
            def show_config(mode):
                return {"Build Dependencies": {"blas": {"name": "openblas",
                                                        "version": "0.3.30"}}}

        assert cli._blas_build(Library) == "openblas 0.3.30"

    def test_unknown_without_a_dict_config(self):
        class Old:
            @staticmethod
            def show_config():
                pass

        class NoVersion:
            @staticmethod
            def show_config(mode):
                return {"Build Dependencies": {"blas": {"name": "openblas"}}}

        assert cli._blas_build(Old) == cli._blas_build(NoVersion) == "unknown"


class TestVerify:
    def test_passes_and_is_deterministic(self, capsys):
        assert main(["verify"]) == 0
        first = capsys.readouterr().out
        assert first.count("PASS") == 4 and "FAIL" not in first
        assert main(["verify"]) == 0
        assert capsys.readouterr().out == first

    def test_injected_failure_is_nonzero(self, capsys, monkeypatch):
        from mltc import verify
        monkeypatch.setattr(
            verify, "SUITES",
            verify.SUITES + [("injected", lambda: "tolerance corrupted")])
        assert main(["verify"]) == 1
        assert "FAIL injected" in capsys.readouterr().out


class TestSweep:
    def test_rows_and_exactness(self, tmp_path):
        cfg = write_config(tmp_path / "c.ini", max_level="2", ref_level="3",
                           out_dir=tmp_path / "out")
        assert main(["sweep", str(cfg), "--levels", "1,2"]) == 0
        rows = list(csv.DictReader(open(tmp_path / "out" / "errors.csv")))
        assert [r["max_level"] for r in rows] == ["1", "2"]
        assert all(float(r["eps_ml_u"]) > 0 for r in rows)

    def test_single_level_matches_run(self, tmp_path):
        out_run = tmp_path / "out-run"
        out_sweep = tmp_path / "out-sweep"
        cfg1 = write_config(tmp_path / "c1.ini", max_level="1", ref_level="2",
                            out_dir=out_run)
        cfg2 = write_config(tmp_path / "c2.ini", max_level="1", ref_level="2",
                            out_dir=out_sweep)
        assert main(["run", str(cfg1)]) == 0
        assert main(["sweep", str(cfg2), "--levels", "1"]) == 0
        a = list(csv.DictReader(open(out_run / "errors.csv")))[0]
        b = list(csv.DictReader(open(out_sweep / "errors.csv")))[0]
        assert a["eps_ml_u"] == b["eps_ml_u"]
        assert a["eps_e_u"] == b["eps_e_u"]

    def test_unconverged_reference_is_reported(self, tmp_path, monkeypatch, capsys):
        # calls: the reference build's levels 0-2, then the L=1 build's 0-1
        monkeypatch.setattr(driver, "approximate_tensor", unconverged_at(2))
        cfg = write_config(tmp_path / "c.ini", max_level="1", ref_level="2",
                           out_dir=tmp_path / "out")
        assert main(["sweep", str(cfg), "--levels", "1"]) == 0
        err = capsys.readouterr().err
        assert err.count("did not converge") == 1
        assert ("warning: reference level 1 did not converge: "
                "cross_residual 7.500e-01 > eps_target 1.250e-01") in err
        assert len(read_rows(tmp_path / "out" / "errors.csv")) == 1

    def test_unconverged_swept_level_is_reported(self, tmp_path, monkeypatch, capsys):
        # calls: the reference build's levels 0-2, then the L=1 build's 0-1
        monkeypatch.setattr(driver, "approximate_tensor", unconverged_at(5))
        cfg = write_config(tmp_path / "c.ini", max_level="1", ref_level="2",
                           out_dir=tmp_path / "out")
        assert main(["sweep", str(cfg), "--levels", "1"]) == 0
        err = capsys.readouterr().err
        assert err.count("did not converge") == 1
        assert ("warning: L=1 level 1 did not converge: "
                "cross_residual 7.500e-01 > eps_target 2.500e-01") in err
        assert len(read_rows(tmp_path / "out" / "errors.csv")) == 1

    @pytest.mark.parametrize("error, code", [(BudgetError, 3), (EllipticityError, 4)])
    def test_abort_keeps_finished_rows(self, tmp_path, monkeypatch, error, code):
        # calls: the reference (L=3), L=1, then L=2 fails
        run_ml = cli.run_ml
        calls = []

        def third_call_fails(*args, **kwargs):
            calls.append(args[2])
            if len(calls) == 3:
                raise error("level build failed")
            return run_ml(*args, **kwargs)

        monkeypatch.setattr(cli, "run_ml", third_call_fails)
        cfg = write_config(tmp_path / "c.ini", max_level="2", ref_level="3",
                           out_dir=tmp_path / "out")
        assert main(["sweep", str(cfg), "--levels", "1,2"]) == code
        assert calls == [3, 1, 2]
        rows = read_rows(tmp_path / "out" / "errors.csv")
        assert [r["max_level"] for r in rows] == ["1"]
        assert float(rows[0]["eps_ml_u"]) > 0

    @pytest.mark.parametrize("failure", ["fiber", "pivot", "banded"])
    def test_numerical_failure_keeps_finished_rows(self, tmp_path, monkeypatch,
                                                   capsys, failure):
        # approximate_tensor calls: the reference build's levels 0-3, the L=1
        # build's 0-1, then call 7 is level 0 of the L=2 build; only L=2's
        # validation solves level 2 by banded Cholesky
        if failure == "banded":
            monkeypatch.setattr(fem, "_banded_solve", failing_banded_solve(2))
        else:
            monkeypatch.setattr(driver, "approximate_tensor",
                                failing_at(7, failure, monkeypatch))
        cfg = write_config(tmp_path / "c.ini", max_level="2", ref_level="3",
                           out_dir=tmp_path / "out")
        assert main(["sweep", str(cfg), "--levels", "1,2"]) == 5
        assert "numerical failure: " in capsys.readouterr().err
        rows = read_rows(tmp_path / "out" / "errors.csv")
        assert [r["max_level"] for r in rows] == ["1"]
        assert float(rows[0]["eps_ml_u"]) > 0

    def test_failed_reference_writes_header_only(self, tmp_path, monkeypatch):
        def fails(*args, **kwargs):
            raise BudgetError("reference build failed")

        monkeypatch.setattr(cli, "run_ml", fails)
        cfg = write_config(tmp_path / "c.ini", out_dir=tmp_path / "out")
        assert main(["sweep", str(cfg), "--levels", "1"]) == 3
        with open(tmp_path / "out" / "errors.csv") as fh:
            assert fh.read().strip() == ",".join(cli.ERROR_COLUMNS)

    def test_empty_levels(self, tmp_path):
        cfg = write_config(tmp_path / "c.ini", out_dir=tmp_path / "out")
        assert main(["sweep", str(cfg), "--levels", ""]) == 2

    def test_descending_levels(self, tmp_path):
        cfg = write_config(tmp_path / "c.ini", out_dir=tmp_path / "out")
        assert main(["sweep", str(cfg), "--levels", "2,1"]) == 2

    @pytest.mark.parametrize("levels", ["-1,0", "2,2", "11,13"])
    def test_bad_levels_build_nothing(self, tmp_path, monkeypatch, capsys, levels):
        builds = []
        monkeypatch.setattr(cli, "run_ml", lambda *a, **k: builds.append(a))
        cfg = write_config(tmp_path / "c.ini", ref_level="3", out_dir=tmp_path / "out")
        assert main(["sweep", str(cfg), f"--levels={levels}"]) == 2
        assert "sweep levels must be" in capsys.readouterr().err
        assert builds == []

    def test_index_overflow_builds_nothing(self, tmp_path, monkeypatch, capsys):
        builds = []
        monkeypatch.setattr(cli, "run_ml", lambda *a, **k: builds.append(a))
        cfg = write_config(tmp_path / "c.ini", terms=60, max_level=3, ref_level=3,
                           out_dir=tmp_path / "out")
        # the build to level 0 fits (1^60 parameter indices), the one to level 1 not
        assert main(["sweep", str(cfg), "--levels", "0,1"]) == 2
        assert "terms = 60 is too many at level 0 of the build to level 1" \
            in capsys.readouterr().err
        assert builds == []
