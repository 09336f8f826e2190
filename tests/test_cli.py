import hashlib
import json
import math
import multiprocessing
import os
import re
import resource
import subprocess
import sys
from pathlib import Path

import pytest

from gaussprg import harness
from gaussprg.cli import main


def run_cli(args):
    return main(args)


class TestPlanCommand:
    def test_prints_plan(self, tmp_path, capsys):
        cfg = tmp_path / "plan.json"
        cfg.write_text(json.dumps({"n": 4, "d": 1, "k": 2, "epsilon": 0.25, "ell_cap": 50}))
        assert run_cli(["plan", "--config", str(cfg)]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["ell"] == 21
        assert obj["design_order"] == 90
        assert obj["seed"]["total_seed_bits"] == obj["ell"] * obj["seed"]["K"] * obj["seed"]["block_bits"]

    def test_write_to_file(self, tmp_path):
        cfg = tmp_path / "plan.json"
        cfg.write_text(json.dumps({"n": 2, "d": 1, "k": 1, "epsilon": 0.4, "ell_cap": 3}))
        out = tmp_path / "out.json"
        assert run_cli(["plan", "--config", str(cfg), "--out", str(out)]) == 0
        assert json.loads(out.read_text())["n"] == 2


class TestSampleCommand:
    def test_jsonl_deterministic_across_jobs(self, tmp_path):
        cfg = tmp_path / "gen.json"
        cfg.write_text(json.dumps({"generator": {"n": 3, "d": 1, "k": 1, "epsilon": 0.4, "ell_cap": 4}}))
        out1, out2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        a1 = ["sample", "--config", str(cfg), "--seed", "f00d", "--samples", "9000", "--out", str(out1)]
        a2 = ["sample", "--config", str(cfg), "--seed", "f00d", "--samples", "9000", "--out", str(out2), "--jobs", "3"]
        assert run_cli(a1) == 0
        assert run_cli(a2) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_seed_changes_output(self, tmp_path):
        cfg = tmp_path / "gen.json"
        cfg.write_text(json.dumps({"generator": {"n": 3, "d": 1, "k": 1, "epsilon": 0.4, "ell_cap": 4}}))
        out1, out2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        run_cli(["sample", "--config", str(cfg), "--seed", "01", "--samples", "10", "--out", str(out1)])
        run_cli(["sample", "--config", str(cfg), "--seed", "02", "--samples", "10", "--out", str(out2)])
        assert out1.read_bytes() != out2.read_bytes()


class TestCheckCommands:
    def test_prop4_exit_zero(self, tmp_path):
        cfg = tmp_path / "p4.json"
        cfg.write_text(json.dumps({"samples": {"k": 3}}))
        out = tmp_path / "p4.csv"
        assert run_cli(["check", "prop4", "--config", str(cfg), "--out", str(out)]) == 0
        assert out.exists() and (tmp_path / "p4.csv.spec.json").exists()

    def test_cw_small(self, tmp_path):
        cfg = tmp_path / "cw.json"
        cfg.write_text(json.dumps({
            "ensemble": {"degrees": [2], "count": 1, "num_vars": 2},
            "samples": {"epsilons": [0.01], "n_samples": 20000},
        }))
        out = tmp_path / "cw.csv"
        assert run_cli(["check", "cw", "--config", str(cfg), "--out", str(out)]) == 0

    def test_deriv_small(self, tmp_path):
        cfg = tmp_path / "dv.json"
        cfg.write_text(json.dumps({
            "ensemble": {"count": 1, "num_vars": 2, "degree": 2},
            "samples": {"ells": [1], "n_samples": 50000, "tol": 0.2},
        }))
        out = tmp_path / "dv.csv"
        assert run_cli(["check", "deriv", "--config", str(cfg), "--out", str(out)]) == 0

    @pytest.mark.parametrize(
        "command, samples, explicit",
        [
            ("cw", {"epsilons": [0.1, 0.01], "n_samples": 1000}, {"count": 1, "num_vars": 3, "degrees": [2]}),
            ("tail", {"N_list": [2.0], "n_samples": 1000}, {"count": 1, "num_vars": 3, "degrees": [2]}),
            ("deriv", {"ells": [1], "n_samples": 20_000, "tol": 0.5}, {"count": 1, "num_vars": 3, "degree": 2}),
        ],
    )
    def test_no_ensemble_section_runs_one_polynomial(self, tmp_path, command, samples, explicit):
        # With no ensemble section the defaults give one polynomial, the
        # one the same keys given explicitly give.
        csvs = []
        configs = {"default": {"samples": samples}, "explicit": {"ensemble": explicit, "samples": samples}}
        for name, config in configs.items():
            cfg = tmp_path / f"{name}.json"
            cfg.write_text(json.dumps(config))
            out = tmp_path / f"{name}.csv"
            assert run_cli(["check", command, "--config", str(cfg), "--out", str(out)]) == 0
            csvs.append(out.read_text())
        header, *rows = csvs[0].splitlines()
        assert header.startswith("poly,") and rows and {row.split(",")[0] for row in rows} == {"0"}
        assert csvs[0] == csvs[1]

    def test_deriv_explicit_poly(self, tmp_path):
        cfg = tmp_path / "dv.json"
        cfg.write_text(json.dumps({
            "ensemble": {"poly": {"num_vars": 1, "terms": [{"exps": [2], "coef": 1.0}]}},
            "samples": {"ells": [1], "n_samples": 50000, "tol": 0.2},
        }))
        out = tmp_path / "dv.csv"
        assert run_cli(["check", "deriv", "--config", str(cfg), "--out", str(out)]) == 0
        row = out.read_text().splitlines()[1].split(",")
        assert float(row[4]) == 4.0  # exact value for d/dx of x^2 squared in L2


class TestFoolCommand:
    def test_runs_and_writes(self, tmp_path):
        cfg = tmp_path / "fool.json"
        cfg.write_text(json.dumps({
            "ensemble": {"count": 1, "num_vars": 2, "degree": 1},
            "generator": {"k": 1, "epsilons": [0.4], "ell_cap": 3},
            "samples": {"n_gen": 1000, "baseline": "analytic"},
        }))
        out = tmp_path / "fool.csv"
        assert run_cli(["fool", "--config", str(cfg), "--seed", "aa", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 2


class TestResultFiles:
    """Golden SHA-256 digests pin the bytes of the files ``sample`` and
    ``fool`` write; ``--jobs`` never changes them."""

    SAMPLE = {"generator": {"n": 3, "d": 1, "k": 2, "epsilon": 0.3, "ell_cap": 50}}
    SAMPLE_DIGEST = "47061331edd919b4dbe4a47ba1e622fc7956d0a8e6a723e3e976247e91c2d0d1"
    # Two epsilons with different chain lengths (ell 7 and 29), so units
    # of unequal cost run side by side.
    FOOL = {
        "ensemble": {"count": 2, "num_vars": 3, "degree": 1},
        "generator": {"k": 2, "epsilons": [0.5, 0.2]},
        "samples": {"n_gen": 3000, "baseline": "analytic", "max_gap_stderr": 3, "max_gap_slack": 0.02},
    }
    FOOL_DIGEST = "621c2d4ac09d226e0e9ce21ec8c662f078c36cd45f128e2921306c770c509042"
    # Degree 2 against the Monte-Carlo baseline: the generator and the
    # Gaussian baseline streams both end in a partial unit.
    FOOL_MC = {
        "ensemble": {"count": 2, "num_vars": 3, "degree": 2},
        "generator": {"k": 1, "epsilons": [0.5]},
        "samples": {"n_gen": 30_001, "n_baseline": 55_555},
    }
    FOOL_MC_DIGEST = "034f1293c75b65b72144a1538181b764dd8d3dcd90989d9c6fc8c70bcf894cbd"

    @staticmethod
    def _digest(*paths) -> str:
        h = hashlib.sha256()
        for path in paths:
            h.update(path.read_bytes())
        return h.hexdigest()

    def test_sample_jsonl(self, tmp_path):
        cfg = tmp_path / "gen.json"
        cfg.write_text(json.dumps(self.SAMPLE))
        out = tmp_path / "y.jsonl"
        argv = ["sample", "--config", str(cfg), "--seed", "5eed", "--samples", "5000", "--out", str(out)]
        assert run_cli(argv) == 0
        assert self._digest(out) == self.SAMPLE_DIGEST

    @pytest.mark.parametrize("jobs", [1, 2, 3])
    def test_fool_csv(self, tmp_path, jobs):
        cfg = tmp_path / "fool.json"
        cfg.write_text(json.dumps(self.FOOL))
        out = tmp_path / "fool.csv"
        argv = ["fool", "--config", str(cfg), "--seed", "5eed", "--out", str(out), "--jobs", str(jobs)]
        assert run_cli(argv) == 0
        assert self._digest(out, tmp_path / "fool.csv.spec.json") == self.FOOL_DIGEST

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_fool_mc_csv(self, tmp_path, jobs):
        cfg = tmp_path / "fool.json"
        cfg.write_text(json.dumps(self.FOOL_MC))
        out = tmp_path / "fool.csv"
        argv = ["fool", "--config", str(cfg), "--seed", "5eed", "--out", str(out), "--jobs", str(jobs)]
        assert run_cli(argv) == 0
        assert self._digest(out, tmp_path / "fool.csv.spec.json") == self.FOOL_MC_DIGEST

    def test_fool_csv_thread_path(self, tmp_path, monkeypatch):
        # Where the fork start method is missing, --jobs runs threads.
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
        self.test_fool_csv(tmp_path, 2)


class TestArgumentErrors:
    """Unusable arguments exit 2 with one ``gaussprg: error:`` line and
    write nothing."""

    def _rejects(self, argv, capsys, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run_cli(argv)
        assert exc.value.code == 2
        errors = [ln for ln in capsys.readouterr().err.splitlines() if ln.startswith("gaussprg: error: ")]
        assert len(errors) == 1
        assert not (tmp_path / "out.jsonl").exists()
        return errors[0]

    def test_sample_without_config(self, tmp_path, capsys):
        out = tmp_path / "out.jsonl"
        line = self._rejects(["sample", "--out", str(out)], capsys, tmp_path)
        assert "config is missing generator.n" in line

    def test_negative_samples(self, tmp_path, capsys):
        cfg = tmp_path / "gen.json"
        cfg.write_text(json.dumps({"generator": {"n": 3, "d": 1, "k": 1, "epsilon": 0.4, "ell_cap": 4}}))
        out = tmp_path / "out.jsonl"
        line = self._rejects(
            ["sample", "--config", str(cfg), "--samples", "-5", "--out", str(out)], capsys, tmp_path
        )
        assert "--samples" in line

    def test_missing_config_file(self, tmp_path, capsys):
        missing = tmp_path / "missing.json"
        out = tmp_path / "out.jsonl"
        line = self._rejects(
            ["sample", "--config", str(missing), "--samples", "5", "--out", str(out)], capsys, tmp_path
        )
        assert "missing.json" in line
        self._rejects(["plan", "--config", str(missing)], capsys, tmp_path)

    def test_non_hex_seed(self, tmp_path, capsys):
        cfg = tmp_path / "gen.json"
        cfg.write_text(json.dumps({"generator": {"n": 3, "d": 1, "k": 1, "epsilon": 0.4, "ell_cap": 4}}))
        out = tmp_path / "out.jsonl"
        line = self._rejects(
            ["sample", "--config", str(cfg), "--seed", "zz", "--samples", "5", "--out", str(out)],
            capsys, tmp_path,
        )
        assert "--seed" in line

    def test_config_sample_count_below_one(self, tmp_path, capsys):
        cfg = tmp_path / "gen.json"
        cfg.write_text(json.dumps({
            "generator": {"n": 3, "d": 1, "k": 1, "epsilon": 0.4, "ell_cap": 4},
            "samples": {"count": -5},
        }))
        out = tmp_path / "out.jsonl"
        line = self._rejects(["sample", "--config", str(cfg), "--out", str(out)], capsys, tmp_path)
        assert "samples.count" in line

    def test_plan_config_missing_key(self, tmp_path, capsys):
        cfg = tmp_path / "plan.json"
        cfg.write_text(json.dumps({"n": 4, "d": 1}))
        line = self._rejects(["plan", "--config", str(cfg)], capsys, tmp_path)
        assert "missing k" in line

    def test_sample_config_missing_count(self, tmp_path, capsys):
        cfg = tmp_path / "gen.json"
        cfg.write_text(json.dumps({"generator": {"n": 3, "d": 1, "k": 1, "epsilon": 0.4, "ell_cap": 4}}))
        out = tmp_path / "out.jsonl"
        line = self._rejects(["sample", "--config", str(cfg), "--out", str(out)], capsys, tmp_path)
        assert "missing samples.count" in line

    @pytest.mark.parametrize("jobs", ["0", "-4"])
    def test_jobs_below_one(self, tmp_path, capsys, jobs):
        cfg = tmp_path / "fool.json"
        cfg.write_text(json.dumps(TestResultFiles.FOOL))
        out = tmp_path / "out.jsonl"
        for command in (["fool"], ["check", "cw"]):
            line = self._rejects(
                command + ["--config", str(cfg), "--out", str(out), "--jobs", jobs], capsys, tmp_path
            )
            assert "jobs must be >= 1" in line

    def test_value_error_in_worker(self, tmp_path, capsys, monkeypatch):
        # The baseline is read inside each unit, so the error is raised
        # in a worker and must still reach the command line as exit 2.
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        cfg = tmp_path / "fool.json"
        cfg.write_text(json.dumps({
            "ensemble": {"count": 2, "num_vars": 2, "degree": 1},
            "generator": {"k": 1, "epsilons": [0.4], "ell_cap": 3},
            "samples": {"n_gen": 1000, "baseline": "bogus"},
        }))
        out = tmp_path / "out.jsonl"
        line = self._rejects(
            ["fool", "--config", str(cfg), "--out", str(out), "--jobs", "2"], capsys, tmp_path
        )
        assert "unknown baseline 'bogus'" in line
        assert "config samples.baseline" in line

    @pytest.mark.parametrize(
        "samples, message",
        [
            ({"mode": "mc", "n_samples": 1}, "n_samples must be >= 2"),
            ({"mode": "mc", "n_samples": 0}, "n_samples must be >= 2"),
            ({"mode": "mc", "n_samples": -5}, "n_samples must be >= 2"),
            ({"mode": "exhaustive", "max_order": 0}, "max_order must be >= 1"),
            ({"mode": "mc", "n_samples": 100, "max_order": -1}, "max_order must be >= 1"),
            ({"mode": "monte_carlo", "n_samples": 100}, "unknown mode 'monte_carlo'"),
        ],
    )
    def test_bad_moments_samples(self, tmp_path, capsys, samples, message):
        cfg = tmp_path / "moments.json"
        cfg.write_text(json.dumps({
            "generator": {"M": 3, "K": 4, "n": 2, "tv_budget": 0.06}, "samples": samples,
        }))
        out = tmp_path / "out.jsonl"
        line = self._rejects(["moments", "--config", str(cfg), "--out", str(out)], capsys, tmp_path)
        assert message in line
        assert not (tmp_path / "out.jsonl.spec.json").exists()

    @pytest.mark.parametrize(
        "config, key",
        [
            ([1, 2], "top level"),
            ({"samples": 5}, "samples"),
            ({"ensemble": [1]}, "ensemble"),
            ({"generator": "x", "samples": {"count": 5}}, "generator"),
            ({"samples": None}, "samples"),
        ],
    )
    def test_config_section_not_an_object(self, tmp_path, capsys, config, key):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps(config))
        out = tmp_path / "out.jsonl"
        for command in (["sample"], ["fool"], ["check", "cw"]):
            line = self._rejects(command + ["--config", str(cfg), "--out", str(out)], capsys, tmp_path)
            assert "bad.json" in line and f"{key} must be a JSON object" in line
        if key == "top level":
            line = self._rejects(["plan", "--config", str(cfg)], capsys, tmp_path)
            assert "bad.json" in line and "top level must be a JSON object" in line

    def test_unusable_out(self, tmp_path, capsys, monkeypatch):
        # The path is checked before any sample or Gaussian is drawn.
        def no_sampling(*args, **kwargs):
            raise AssertionError("a sample or a Gaussian was drawn")

        monkeypatch.setattr(harness, "sample_batch", no_sampling)
        monkeypatch.setattr(harness, "_unit_rng", no_sampling)
        afile = tmp_path / "afile"
        afile.write_text("keep\n")
        plan_cfg = tmp_path / "plan.json"
        plan_cfg.write_text(json.dumps({"n": 2, "d": 1, "k": 1, "epsilon": 0.4, "ell_cap": 2}))
        sample_cfg = tmp_path / "gen.json"
        sample_cfg.write_text(json.dumps({"generator": json.loads(plan_cfg.read_text())}))
        cw_cfg = tmp_path / "cw.json"
        cw_cfg.write_text(json.dumps({"ensemble": {"count": 1}, "samples": {"epsilons": [0.1], "n_samples": 100}}))
        for out in (afile / "x.json", tmp_path):
            for argv in (
                ["plan", "--config", str(plan_cfg), "--out", str(out)],
                ["sample", "--config", str(sample_cfg), "--samples", "5", "--out", str(out)],
                ["check", "cw", "--config", str(cw_cfg), "--out", str(out)],
            ):
                line = self._rejects(argv, capsys, tmp_path)
                assert f"cannot write {out}" in line
        assert afile.read_text() == "keep\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["afile", "cw.json", "gen.json", "plan.json"]

    @pytest.mark.parametrize(
        "command, config, key",
        [
            (["fool"], {**TestResultFiles.FOOL, "generator": {"k": 2, "epsilons": 0.4}}, "generator.epsilons"),
            (["check", "cw"], {"ensemble": {"degrees": 2, "count": 1},
                               "samples": {"epsilons": [0.1], "n_samples": 100}}, "ensemble.degrees"),
            (["check", "cw"], {"ensemble": {"count": 1},
                               "samples": {"epsilons": 0.1, "n_samples": 100}}, "samples.epsilons"),
            (["check", "tail"], {"ensemble": {"count": 1},
                                 "samples": {"N_list": "4", "n_samples": 100}}, "samples.N_list"),
            (["check", "deriv"], {"ensemble": {"count": 1, "num_vars": 2, "degree": 2},
                                  "samples": {"ells": 1, "n_samples": 100}}, "samples.ells"),
            (["check", "prop4"], {"samples": {"k": 2, "shells": 0.1}}, "samples.shells"),
            (["check", "deriv"], {"ensemble": {"count": 1, "num_vars": 2, "degree": 2},
                                  "samples": {"ells": [None], "n_samples": 100}}, "samples.ells"),
        ],
    )
    def test_config_key_not_a_list(self, tmp_path, capsys, command, config, key):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps(config))
        out = tmp_path / "out.jsonl"
        line = self._rejects(command + ["--config", str(cfg), "--out", str(out)], capsys, tmp_path)
        assert key in line

    FOOL_SMALL = {
        "ensemble": {"count": 1, "num_vars": 2, "degree": 1},
        "generator": {"k": 1, "epsilons": [0.4], "ell_cap": 3},
    }

    @pytest.mark.parametrize(
        "command, config, message",
        [
            (["check", "cw"], {"ensemble": {"count": 1}, "samples": {"epsilons": [0.1], "n_samples": 0}},
             "sample count must be >= 1"),
            (["check", "cw"], {"ensemble": {"count": 1}, "samples": {"epsilons": [0.1], "n_samples": -5}},
             "sample count must be >= 1"),
            (["check", "tail"], {"ensemble": {"count": 1}, "samples": {"N_list": [4.0], "n_samples": 0}},
             "sample count must be >= 1"),
            (["check", "deriv"], {"ensemble": {"count": 1, "num_vars": 2, "degree": 2},
                                  "samples": {"ells": [1], "n_samples": 0}}, "sample count must be >= 1"),
            (["fool"], {**FOOL_SMALL, "samples": {"n_gen": 0}}, "sample count must be >= 1"),
            (["fool"], {**FOOL_SMALL, "samples": {"n_gen": -3}}, "sample count must be >= 1"),
            (["fool"], {**FOOL_SMALL, "samples": {"n_gen": 100, "baseline": "mc", "n_baseline": 0}},
             "sample count must be >= 1"),
            (["check", "cw"], {"ensemble": {"count": -1}, "samples": {"epsilons": [0.1], "n_samples": 100}},
             "ensemble.count must be >= 1"),
            (["check", "tail"], {"ensemble": {"count": -2}, "samples": {"N_list": [4.0], "n_samples": 100}},
             "ensemble.count must be >= 1"),
            (["check", "deriv"], {"ensemble": {"count": -1, "num_vars": 2, "degree": 2},
                                  "samples": {"ells": [1], "n_samples": 100}}, "ensemble.count must be >= 1"),
            (["fool"], {**FOOL_SMALL, "ensemble": {"count": -1, "num_vars": 2}, "samples": {"n_gen": 100}},
             "ensemble.count must be >= 1"),
            (["check", "cw"], {"ensemble": {"count": 1},
                               "samples": {"epsilons": [0.1, -0.01], "n_samples": 100}}, "epsilons must be >= 0"),
            # An empty ensemble is rejected, ahead of the sample counts.
            (["fool"], {**FOOL_SMALL, "ensemble": {"count": 0}, "samples": {"n_gen": -3}},
             "config ensemble.count must be >= 1, got 0"),
            (["check", "cw"], {"ensemble": {"count": 0}, "samples": {"epsilons": [0.1], "n_samples": 0}},
             "config ensemble.count must be >= 1, got 0"),
        ],
    )
    def test_count_or_epsilon_out_of_range(self, tmp_path, capsys, command, config, message):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps(config))
        out = tmp_path / "out.jsonl"
        line = self._rejects(command + ["--config", str(cfg), "--out", str(out)], capsys, tmp_path)
        assert message in line

    POLY = {"num_vars": 1, "terms": [{"exps": [2], "coef": 1.0}]}
    GEN = {"n": 2, "d": 1, "k": 1, "epsilon": 0.4, "ell_cap": 2}

    @pytest.mark.parametrize(
        "command, config, key",
        [
            # keys the command does not read
            (["fool"], {**FOOL_SMALL, "samples": {"n_gen": 100, "max_gap_sterr": 0.0001}}, "samples.max_gap_sterr"),
            (["check", "tail"], {"ensemble": {"count": 1},
                                 "samples": {"N_list": [4.0], "n_samples": 100, "cosnt": 3}}, "samples.cosnt"),
            (["sample"], {"generator": {**GEN, "epsilons": [0.4]}, "samples": {"count": 5}}, "generator.epsilons"),
            (["sample"], {"generator": GEN, "samples": {"count": 5, "n_gen": 5}}, "samples.n_gen"),
            (["plan"], {**GEN, "ell_cpa": 3}, "ell_cpa"),
            (["check", "cw"], {"ensemble": {"count": 1}, "sampels": {"n_samples": 10},
                               "samples": {"epsilons": [0.1], "n_samples": 100}}, "sampels"),
            # values of the wrong type or below their lowest value
            (["fool"], {**FOOL_SMALL, "samples": {"n_gen": 1.9}}, "samples.n_gen"),
            (["sample"], {"generator": GEN, "samples": {"count": True}}, "samples.count"),
            (["check", "cw"], {"ensemble": {"count": 1},
                               "samples": {"epsilons": [0.1], "n_samples": "100"}}, "samples.n_samples"),
            (["fool"], {**FOOL_SMALL, "samples": {"n_gen": 100, "max_gap_stderr": "x"}}, "samples.max_gap_stderr"),
            (["fool"], {**FOOL_SMALL, "samples": {"n_gen": 100, "max_gap_stderr": -1}}, "samples.max_gap_stderr"),
            (["fool"], {**FOOL_SMALL, "samples": {"n_gen": 100, "max_gap_stderr": 3, "max_gap_slack": -0.1}},
             "samples.max_gap_slack"),
            # keys cw and tail do not read: ensemble.degrees: [d] sets one degree
            (["check", "cw"], {"ensemble": {"count": 1, "degree": 2, "degrees": [3]},
                               "samples": {"epsilons": [0.1], "n_samples": 100}}, "unknown key ensemble.degree"),
            (["check", "tail"], {"ensemble": {"count": 1, "degree": 2},
                                 "samples": {"N_list": [4.0], "n_samples": 100}}, "unknown key ensemble.degree"),
            # keys that exclude each other
            (["check", "deriv"], {"ensemble": {"poly": POLY, "count": 1},
                                  "samples": {"ells": [1], "n_samples": 100}}, "ensemble.count"),
            (["check", "deriv"], {"ensemble": {"poly": POLY, "num_vars": 2},
                                  "samples": {"ells": [1], "n_samples": 100}}, "ensemble.num_vars"),
            (["check", "deriv"], {"ensemble": {"poly": POLY, "degree": 2},
                                  "samples": {"ells": [1], "n_samples": 100}}, "ensemble.degree"),
            # check prop4 has no sample count for --samples to set
            (["check", "prop4", "--samples", "5"], {"samples": {"k": 2}}, "--samples"),
            # a value above the quadrature table's 64 points
            (["moments"], {"generator": {"M": 65, "K": 4, "n": 2, "tv_budget": 0.06}}, "generator.M"),
            # values out of the range that the library checks
            (["fool"], {**FOOL_SMALL, "generator": {"k": 1, "epsilons": [0.4, 1.5], "ell_cap": 3},
                        "samples": {"n_gen": 100}}, "generator.epsilons"),
            (["sample"], {"generator": {**GEN, "epsilon": 1.5}, "samples": {"count": 5}}, "generator.epsilon"),
            (["moments"], {"generator": {"M": 3, "K": 4, "n": 2, "tv_budget": 0}}, "generator.tv_budget"),
            (["moments"], {"generator": {"M": 3, "K": 4, "n": 2, "tv_budget": 0.06},
                           "samples": {"mode": "bogus"}}, "samples.mode"),
            (["check", "prop4"], {"samples": {"k": 2, "shells": [0.7]}}, "samples.shells"),
            # keys the command does not read: prop4's fit grid is fixed
            (["check", "prop4"], {"samples": {"k": 2, "inner_scale": 0}}, "samples.inner_scale"),
            (["check", "prop4"], {"samples": {"k": 2, "inner_scale": math.inf}}, "samples.inner_scale"),
            # values out of the range that the library checks
            (["moments"], {"generator": {"M": 3, "K": 4, "n": 2, "tv_budget": 0.06},
                           "samples": {"mode": "mc", "n_samples": 1}}, "config samples.n_samples: n_samples"),
            # numbers that are not finite: json reads NaN and Infinity
            (["check", "tail"], {"ensemble": {"count": 1}, "samples": {"N_list": [math.nan], "n_samples": 100}},
             "config samples.N_list must be a finite number"),
            (["check", "cw"], {"ensemble": {"count": 1}, "samples": {"epsilons": [math.inf], "n_samples": 100}},
             "config samples.epsilons must be a finite number"),
            (["moments"], {"generator": {"M": 3, "K": 4, "n": 2, "tv_budget": math.nan}},
             "config generator.tv_budget must be a finite number"),
            (["moments"], {"generator": {"M": 3, "K": 4, "n": 2, "tv_budget": math.inf}},
             "config generator.tv_budget must be a finite number"),
            (["check", "prop4"], {"samples": {"k": 2, "shells": [math.nan, 0.1]}},
             "config samples.shells must be a finite number"),
            (["check", "cw"], {"ensemble": {"count": 1}, "samples": {"epsilons": [10**400], "n_samples": 100}},
             "config samples.epsilons must be a finite number"),
            # a log-log slope needs two distinct radii
            (["check", "prop4"], {"samples": {"k": 2, "shells": [0.1]}},
             "config samples.shells: need at least two distinct shell radii"),
            (["check", "prop4"], {"samples": {"k": 2, "shells": [0.1, 0.1]}},
             "config samples.shells: need at least two distinct shell radii"),
            # the envelope constants are library keywords, not config keys
            (["check", "cw"], {"samples": {"epsilons": [0.1], "n_samples": 100, "const": 3.0}},
             "unknown key samples.const"),
            (["check", "tail"], {"samples": {"N_list": [4.0], "n_samples": 100, "const": 10.0}},
             "unknown key samples.const"),
        ],
    )
    def test_config_key_rejected(self, tmp_path, capsys, command, config, key):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps(config))
        out = [] if command == ["plan"] else ["--out", str(tmp_path / "out.jsonl")]
        line = self._rejects(command + ["--config", str(cfg)] + out, capsys, tmp_path)
        assert key in line
        assert not (tmp_path / "out.jsonl.spec.json").exists()

    # Configs that would run no unit exit 2 naming their key and write no
    # file. An empty list is rejected; fool with no ensemble section runs
    # one PTF, so it needs ensemble.num_vars and generator.k.
    @pytest.mark.parametrize(
        "command, config, message",
        [
            (["check", "cw"], {"ensemble": {"degrees": []}, "samples": {"epsilons": [0.1], "n_samples": 100}},
             "config ensemble.degrees must not be empty"),
            (["check", "cw"], {"samples": {"epsilons": [], "n_samples": 100}},
             "config samples.epsilons must not be empty"),
            (["check", "tail"], {"samples": {"N_list": [], "n_samples": 100}},
             "config samples.N_list must not be empty"),
            (["check", "deriv"], {"samples": {"ells": [], "n_samples": 100}},
             "config samples.ells must not be empty"),
            (["fool"], {"ensemble": {"num_vars": 2}, "generator": {"k": 1, "epsilons": []},
                        "samples": {"n_gen": 100}}, "config generator.epsilons must not be empty"),
            (["fool"], {"generator": {"k": 1, "epsilons": [0.4], "ell_cap": 3}, "samples": {"n_gen": 100}},
             "config is missing ensemble.num_vars"),
            (["fool"], {"ensemble": {"num_vars": 2}, "generator": {"epsilons": [0.4], "ell_cap": 3},
                        "samples": {"n_gen": 100}}, "config is missing generator.k"),
            (["check", "prop4"], {"samples": {"k": 2, "shells": []}}, "config samples.shells must not be empty"),
        ],
    )
    def test_empty_run_rejected(self, tmp_path, capsys, command, config, message):
        cfg = tmp_path / "empty.json"
        cfg.write_text(json.dumps(config))
        out = tmp_path / "out.jsonl"
        line = self._rejects(command + ["--config", str(cfg), "--out", str(out)], capsys, tmp_path)
        assert message in line
        assert sorted(p.name for p in tmp_path.iterdir()) == ["empty.json"]

    # Errors that only the library raises, once the schema is checked: each
    # names the key it is about, and no file is written.
    @pytest.mark.parametrize(
        "command, config, key",
        [
            # the chain length overflows without ell_cap
            (["sample"], {"generator": {"n": 2, "d": 1, "k": 1, "epsilon": 1e-300}, "samples": {"count": 5}},
             "config generator.epsilon: chain length overflows"),
            # and with it: no cap makes such a plan meet its budget
            (["sample"], {"generator": {"n": 2, "d": 1, "k": 1, "epsilon": 1e-300, "ell_cap": 2},
                          "samples": {"count": 5}},
             "config generator.epsilon: chain length overflows"),
            # the budget epsilon^k / (n ell) needs a prime beyond 2^62
            (["sample"], {"generator": {**GEN, "k": 3, "epsilon": 1e-7}, "samples": {"count": 5}},
             "config generator.epsilon: tv_budget"),
            (["fool"], {**FOOL_SMALL, "generator": {"k": 1, "epsilons": [0.4, 1e-300]}, "samples": {"n_gen": 100}},
             "config generator.epsilons: chain length overflows"),
            # a 136-term fit on the 15 x 15 grid is singular
            (["check", "prop4"], {"samples": {"k": 16}}, "config samples.k: singular fit matrix"),
            (["fool"], {**FOOL_SMALL, "samples": {"n_gen": 100, "baseline": "bogus"}},
             "config samples.baseline: unknown baseline 'bogus'"),
            (["fool"], {**FOOL_SMALL, "ensemble": {"count": 1, "num_vars": 2, "degree": 2},
                        "samples": {"n_gen": 100, "baseline": "analytic"}},
             "config samples.baseline: analytic baseline exists only for degree-1 PTFs"),
        ],
        ids=["sample-chain", "sample-chain-capped", "sample-budget", "fool-chain", "prop4-k", "fool-baseline", "fool-analytic"],
    )
    def test_library_error_names_key(self, tmp_path, capsys, command, config, key):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps(config))
        out = tmp_path / "out.jsonl"
        line = self._rejects(command + ["--config", str(cfg), "--out", str(out)], capsys, tmp_path)
        assert key in line
        assert sorted(p.name for p in tmp_path.iterdir()) == ["bad.json"]

    # A degree-2 design at k = 2 has order 180, which needs 91 Gauss-Hermite
    # points; the rule has at most 64.
    @pytest.mark.parametrize(
        "command, config, keys",
        [
            (["fool"], {"ensemble": {"count": 1, "num_vars": 3, "degree": 2},
                        "generator": {"k": 2, "epsilons": [0.4], "ell_cap": 20},
                        "samples": {"n_gen": 20000, "n_baseline": 20000}}, "ensemble.degree and generator.k"),
            (["sample"], {"generator": {**GEN, "d": 2, "k": 2}, "samples": {"count": 5}},
             "generator.d and generator.k"),
            (["plan"], {**GEN, "d": 2, "k": 2}, "(d, k) = (2, 2)"),
        ],
    )
    def test_design_beyond_quadrature(self, tmp_path, capsys, command, config, keys):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps(config))
        out = [] if command == ["plan"] else ["--out", str(tmp_path / "out.jsonl")]
        line = self._rejects(command + ["--config", str(cfg)] + out, capsys, tmp_path)
        assert keys in line and "needs a 91-point Gauss-Hermite rule; the limit is 64" in line

    # n above 2^16, the cap on n: 10^16 made numpy try to allocate 71 PiB,
    # and 2^61 or 2^62 leaves no prime q > n below 2^62.
    @pytest.mark.parametrize(
        "command, config, key",
        [
            (["plan"], {**GEN, "n": 10**16}, "n must be <= 65536"),
            (["sample"], {"generator": {**GEN, "n": 10**16}, "samples": {"count": 5}}, "config generator.n"),
            (["sample"], {"generator": {**GEN, "n": 2**62}, "samples": {"count": 5}}, "config generator.n"),
            (["sample"], {"generator": {**GEN, "n": 2**61}, "samples": {"count": 5}}, "config generator.n"),
            (["sample"], {"generator": {**GEN, "n": 2**16 + 1}, "samples": {"count": 5}}, "config generator.n"),
            (["moments"], {"generator": {"M": 3, "K": 4, "n": 10**16, "tv_budget": 0.06}}, "config generator.n"),
            (["fool"], {**FOOL_SMALL, "ensemble": {"count": 1, "num_vars": 10**16}, "samples": {"n_gen": 100}},
             "config ensemble.num_vars"),
        ],
        ids=["plan", "sample", "sample-2^62", "sample-2^61", "sample-cap+1", "moments", "fool"],
    )
    def test_n_beyond_cap(self, tmp_path, capsys, command, config, key):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps(config))
        out = [] if command == ["plan"] else ["--out", str(tmp_path / "out.jsonl")]
        line = self._rejects(command + ["--config", str(cfg)] + out, capsys, tmp_path)
        assert key in line and "must be <= 65536" in line
        assert sorted(p.name for p in tmp_path.iterdir()) == ["bad.json"]

    # Sizes above the bounds on a random ensemble (2^22 exponent entries),
    # Monte-Carlo moments (2^25 samples) and derivative orders (num_vars**ell
    # of 2^11, num_vars**max(ell, 1) for an explicit polynomial). Each died
    # with a MemoryError traceback and exit 1, so each runs as its own
    # process, limited to a 2 GB address space. An ensemble's size is set by
    # num_vars and its degree together, and the error names both keys,
    # whichever of them is large. Degrees and orders above 170 either raised
    # OverflowError from sqrt(171!) or ran for minutes.
    @pytest.mark.parametrize(
        "command, config, key, bound",
        [
            (["fool"], {**FOOL_SMALL, "ensemble": {"count": 1, "num_vars": 65536}, "samples": {"n_gen": 100}},
             "config ensemble.num_vars and ensemble.degree:", "must be <= 4194304"),
            (["check", "cw"], {"ensemble": {"num_vars": 10**16}, "samples": {"epsilons": [0.1], "n_samples": 100}},
             "config ensemble.num_vars and ensemble.degrees:", "must be <= 4194304"),
            (["check", "cw"], {"ensemble": {"num_vars": 1, "degrees": [2**22]},
                               "samples": {"epsilons": [0.1], "n_samples": 100}},
             "config ensemble.num_vars and ensemble.degrees:", "must be <= 4194304"),
            (["check", "deriv"], {"ensemble": {"num_vars": 65536, "degree": 1}, "samples": {"ells": [1], "n_samples": 100}},
             "config ensemble.num_vars and ensemble.degree:", "must be <= 4194304"),
            (["check", "deriv"], {"ensemble": {"num_vars": 1, "degree": 2**22}, "samples": {"ells": [1], "n_samples": 100}},
             "config ensemble.num_vars and ensemble.degree:", "must be <= 4194304"),
            (["moments"], {"generator": {"M": 3, "K": 4, "n": 2, "tv_budget": 0.06},
                           "samples": {"mode": "mc", "n_samples": 10**12}},
             "config samples.n_samples", "must be <= 33554432"),
            (["check", "deriv"], {"samples": {"ells": [25], "n_samples": 100}},
             "config samples.ells", "must be <= 2048, got 3**25"),
            (["check", "deriv"], {"ensemble": {"poly": {"num_vars": 10**16, "terms": []}},
                                  "samples": {"ells": [0], "n_samples": 100}},
             "config ensemble.poly:", "num_vars must be <= 2048"),
            (["check", "cw"], {"ensemble": {"num_vars": 1, "degrees": [171]},
                               "samples": {"epsilons": [0.1], "n_samples": 100}},
             "config ensemble.num_vars and ensemble.degrees:", "degree must be <= 170, got 171"),
            (["check", "cw"], {"ensemble": {"num_vars": 1, "degrees": [10**6]},
                               "samples": {"epsilons": [0.1], "n_samples": 100}},
             "config ensemble.num_vars and ensemble.degrees:", "degree must be <= 170, got 1000000"),
            (["check", "deriv"], {"ensemble": {"poly": {"num_vars": 1, "terms": [{"exps": [171], "coef": 1.0}]}},
                                  "samples": {"ells": [1], "n_samples": 100}},
             "config ensemble.poly:", "degree must be <= 170, got 171"),
            (["check", "deriv"], {"ensemble": {"poly": {"num_vars": 1, "terms": [{"exps": [10**5], "coef": 1.0}]}},
                                  "samples": {"ells": [0], "n_samples": 100}},
             "config ensemble.poly:", "degree must be <= 170, got 100000"),
            (["check", "deriv"], {"ensemble": {"poly": {"num_vars": 1, "terms": [{"exps": [2], "coef": 1.0}]}},
                                  "samples": {"ells": [10**7], "n_samples": 100}},
             "config samples.ells:", "ells must be <= 170, got 10000000"),
            # Exact values whose square overflows wrote inf or nan rows with
            # numpy's RuntimeWarning and exited 1.
            (["check", "deriv"], {"ensemble": {"poly": {"num_vars": 1, "terms": [{"exps": [170], "coef": 1.0}]}},
                                  "samples": {"ells": [0, 1], "n_samples": 100}},
             "config samples.ells:", "exact value inf at ell 0 squares beyond the float range"),
            (["check", "deriv"], {"ensemble": {"poly": {"num_vars": 1, "terms": [{"exps": [120], "coef": 1.0}]}},
                                  "samples": {"ells": [0], "n_samples": 100}},
             "config samples.ells:", "exact value 4.57e+233 at ell 0 squares beyond the float range"),
        ],
        ids=[
            "fool", "cw", "cw-degree", "deriv-ensemble", "deriv-degree", "moments-mc", "deriv-ells",
            "deriv-num_vars-ell-0", "cw-degree-171", "cw-degree-10^6", "deriv-poly-degree-171",
            "deriv-poly-degree-10^5", "deriv-ells-10^7", "deriv-poly-x^170", "deriv-poly-x^120",
        ],
    )
    def test_size_beyond_bound(self, tmp_path, command, config, key, bound):
        def limit_memory():
            resource.setrlimit(resource.RLIMIT_AS, (2 * 10**9, 2 * 10**9))

        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps(config))
        argv = [sys.executable, "-m", "gaussprg.cli", *command, "--config", str(cfg), "--out", str(tmp_path / "out.csv")]
        env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
        proc = subprocess.run(
            argv, capture_output=True, text=True, env=env, preexec_fn=limit_memory, timeout=60
        )
        assert proc.returncode == 2, proc.stderr
        assert "Traceback" not in proc.stdout + proc.stderr
        assert "RuntimeWarning" not in proc.stdout + proc.stderr
        errors = [ln for ln in proc.stderr.splitlines() if ln.startswith("gaussprg: error: ")]
        assert len(errors) == 1 and key in errors[0] and bound in errors[0]
        assert sorted(p.name for p in tmp_path.iterdir()) == ["bad.json"]

    @pytest.mark.parametrize(
        "poly",
        [
            {},
            {"num_vars": 2},
            {"terms": [{"exps": [1], "coef": 1.0}]},
            {"num_vars": 2, "terms": [{"exps": [1, 0]}]},
            {"num_vars": 2, "terms": 5},
            {"num_vars": 2, "terms": [5]},
            {"num_vars": 2, "terms": [{"exps": 1, "coef": 1.0}]},
            {"num_vars": [2], "terms": []},
            {"num_vars": 1, "terms": [{"exps": [1], "coef": 2.0}, {"exps": [1], "coef": 3.0}]},
            {"num_vars": 1, "terms": [{"exps": [1.7], "coef": 1.0}]},
            {"num_vars": 1, "terms": [{"exps": [True], "coef": 1.0}]},
            {"num_vars": 1.9, "terms": [{"exps": [1], "coef": 1.0}]},
            {"num_vars": 1, "terms": [{"exps": [1], "coef": "3"}]},
        ],
    )
    def test_deriv_malformed_poly(self, tmp_path, capsys, poly):
        cfg = tmp_path / "dv.json"
        cfg.write_text(json.dumps({"ensemble": {"poly": poly}, "samples": {"ells": [1], "n_samples": 100}}))
        out = tmp_path / "out.jsonl"
        line = self._rejects(["check", "deriv", "--config", str(cfg), "--out", str(out)], capsys, tmp_path)
        assert "ensemble.poly" in line

    @pytest.mark.parametrize("inner_scale", [0, -1])
    def test_prop4_removed_key_one_error_line(self, tmp_path, capfd, inner_scale):
        # samples.inner_scale is a key check prop4 does not read (its fit
        # grid is fixed): the run exits 2 with one error line, and nothing
        # reaches stdout, captured at the file descriptor, where a numerical
        # library's own prints would show.
        cfg = tmp_path / "prop4.json"
        cfg.write_text(json.dumps({"samples": {"k": 2, "inner_scale": inner_scale}}))
        out = tmp_path / "out.csv"
        with pytest.raises(SystemExit) as exc:
            run_cli(["check", "prop4", "--config", str(cfg), "--out", str(out)])
        assert exc.value.code == 2
        captured = capfd.readouterr()
        assert captured.out == ""
        err = captured.err.splitlines()
        errors = [ln for ln in err if ln.startswith("gaussprg: error: ")]
        assert len(errors) == 1 and "inner_scale" in errors[0]
        # argparse's usage line and the error line, nothing else
        assert [ln for ln in err if not ln.startswith("usage: ")] == errors
        assert not out.exists()

    def test_integral_float_counts(self, tmp_path):
        # 1e1 is an integer count; the JSONL header echoes it as given.
        cfg = tmp_path / "gen.json"
        cfg.write_text(json.dumps({"generator": self.GEN, "samples": {"count": 1e1}}))
        out = tmp_path / "y.jsonl"
        assert run_cli(["sample", "--config", str(cfg), "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 11 and json.loads(lines[0])["spec"]["samples"] == {"count": 10.0}

    def test_string_ell_cap(self, tmp_path, capsys):
        cfg = tmp_path / "plan.json"
        cfg.write_text(json.dumps({"n": 4, "d": 1, "k": 2, "epsilon": 0.25, "ell_cap": "50"}))
        line = self._rejects(["plan", "--config", str(cfg)], capsys, tmp_path)
        assert "ell_cap" in line


class TestConfigSchemaDocs:
    def test_readme_names_every_schema_key(self):
        # Each "- `command`:" entry of README's Config schemas section
        # names exactly the keys harness._SCHEMA lists for that command:
        # dotted section keys, or plain top-level keys for plan.
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        section = readme.split("### Config schemas\n", 1)[1].split("\n### ", 1)[0]
        entries = re.findall(r"^- `([a-z0-9 ]+)`:(.*?)(?=^- `|\Z)", section, re.M | re.S)
        documented = {}
        for command, text in entries:
            kind = command.removeprefix("check ")
            pattern = r"^\w+$" if kind == "plan" else r"^(?:ensemble|generator|samples)\.\w+$"
            documented[kind] = {t for t in re.findall(r"`([^`]+)`", text) if re.match(pattern, t)}
        schema = {
            kind: {f"{s}.{key}".lstrip(".") for s, table in sections.items() for key in table}
            for kind, sections in harness._SCHEMA.items()
        }
        assert documented == schema


class TestConsoleEntry:
    def test_module_invocation(self, tmp_path):
        cfg = tmp_path / "plan.json"
        cfg.write_text(json.dumps({"n": 2, "d": 1, "k": 1, "epsilon": 0.4, "ell_cap": 2}))
        proc = subprocess.run(
            [sys.executable, "-m", "gaussprg.cli", "plan", "--config", str(cfg)],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["ell"] == 2

    def test_commands_run_without_scipy(self, tmp_path):
        # The package depends on numpy only. With sys.modules["scipy"] set
        # to None, any scipy import raises ImportError, so every command
        # must import and run without it.
        configs = {
            "plan": {"n": 2, "d": 1, "k": 1, "epsilon": 0.4, "ell_cap": 2},
            "sample": {"generator": {"n": 2, "d": 1, "k": 1, "epsilon": 0.4, "ell_cap": 2}},
            "fool": {
                "ensemble": {"count": 1, "num_vars": 2, "degree": 1},
                "generator": {"k": 1, "epsilons": [0.4], "ell_cap": 3},
                "samples": {"n_gen": 200, "baseline": "analytic"},
            },
            "moments": {
                "generator": {"M": 3, "K": 4, "n": 2, "tv_budget": 0.06},
                "samples": {"mode": "exhaustive"},
            },
            "cw": {
                "ensemble": {"degrees": [2], "count": 1, "num_vars": 2},
                "samples": {"epsilons": [0.01], "n_samples": 2000},
            },
            "tail": {
                "ensemble": {"degrees": [2], "count": 1, "num_vars": 2},
                "samples": {"N_list": [2.0], "n_samples": 2000},
            },
            "deriv": {
                "ensemble": {"count": 1, "num_vars": 2, "degree": 2},
                "samples": {"ells": [1], "n_samples": 20_000, "tol": 0.5},
            },
            "prop4": {"samples": {"k": 2}},
        }
        commands = []
        for name, cfg in configs.items():
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps(cfg))
            command = ["check", name] if name in ("cw", "tail", "deriv", "prop4") else [name]
            argv = command + ["--config", str(path), "--out", str(tmp_path / f"{name}.out")]
            commands.append(argv + (["--samples", "10"] if name == "sample" else []))
        code = (
            "import json, sys\n"
            "sys.modules['scipy'] = None\n"
            "from gaussprg.cli import main\n"
            "print(json.dumps([main(argv) for argv in json.loads(sys.argv[1])]))\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code, json.dumps(commands)], capture_output=True, text=True
        )
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout.splitlines()[-1]) == [0] * len(commands)


def test_every_public_name_resolves():
    # Each module's __all__ is the index of its public names; the package
    # itself re-exports none.
    import importlib
    import pkgutil

    import gaussprg

    assert not hasattr(gaussprg, "__all__")
    modules = [m.name for m in pkgutil.iter_modules(gaussprg.__path__) if not m.name.startswith("_")]
    assert {"designs", "generator", "harness", "hermite", "ptf"} <= set(modules)
    for name in modules:
        module = importlib.import_module(f"gaussprg.{name}")
        public = getattr(module, "__all__", [])
        assert len(set(public)) == len(public), name
        missing = [attr for attr in public if not hasattr(module, attr)]
        assert missing == [], name
