import csv
from pathlib import Path

import pytest

from mltc import cli
from mltc.cli import main
from mltc.config import load_config
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


class TestRun:
    def test_small_run_outputs(self, tmp_path, capsys):
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
        assert (out / "report.txt").exists()

    def test_lambda_zero_run_is_exact(self, tmp_path):
        cfg = write_config(tmp_path / "c.ini", decay="zero", max_level="2",
                           ref_level="2", out_dir=tmp_path / "out")
        assert main(["run", str(cfg)]) == 0
        errors = list(csv.DictReader(open(tmp_path / "out" / "errors.csv")))
        assert float(errors[0]["eps_ml_u"]) < 1e-10
        assert float(errors[0]["eps_e_u"]) < 1e-14

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
