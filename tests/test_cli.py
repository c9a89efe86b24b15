import csv
from pathlib import Path

import pytest

from mltc import cli
from mltc.cli import main
from mltc.config import load_config
from mltc.errors import ConfigError
from mltc.fields import CoefficientModel

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


MODEL_KEYS = ("kind", "decay", "terms", "mean")


def write_config(path, **overrides):
    base = {
        "kind": "affine", "decay": "exponential", "terms": "2", "mean": "2.0",
        "max_level": "1", "ref_level": "2", "eps0": "0.25", "samples": "5",
        "seed": "7", "tree": "balanced", "threads": "1", "out_dir": "out",
    }
    base.update({k: str(v) for k, v in overrides.items()})
    text = "[model]\n" + "".join(f"{k} = {base[k]}\n" for k in MODEL_KEYS)
    text += "[run]\n" + "".join(
        f"{k} = {v}\n" for k, v in base.items() if k not in MODEL_KEYS)
    path.write_text(text)
    return path


class TestConfig:
    def test_bundled_config_parses(self):
        cfg = load_config(CONFIGS / "exp-decay-small.ini")
        assert cfg.terms == 5 and cfg.max_level == 4

    def test_missing_file(self):
        with pytest.raises(ConfigError):
            load_config("/no/such/file.ini")

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

    def test_empty_levels(self, tmp_path):
        cfg = write_config(tmp_path / "c.ini", out_dir=tmp_path / "out")
        assert main(["sweep", str(cfg), "--levels", ""]) == 2

    def test_descending_levels(self, tmp_path):
        cfg = write_config(tmp_path / "c.ini", out_dir=tmp_path / "out")
        assert main(["sweep", str(cfg), "--levels", "2,1"]) == 2
