import hashlib
import json
import multiprocessing
import os
import subprocess
import sys

import pytest

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

    @pytest.mark.parametrize(
        "samples, message",
        [
            ({"mode": "mc", "n_samples": 1}, "n_samples must be >= 2"),
            ({"mode": "mc", "n_samples": 0}, "n_samples must be >= 2"),
            ({"mode": "mc", "n_samples": -5}, "n_samples must be >= 2"),
            ({"mode": "exhaustive", "max_order": 0}, "max_order must be >= 1"),
            ({"mode": "mc", "n_samples": 100, "max_order": -1}, "max_order must be >= 1"),
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

    def test_string_ell_cap(self, tmp_path, capsys):
        cfg = tmp_path / "plan.json"
        cfg.write_text(json.dumps({"n": 4, "d": 1, "k": 2, "epsilon": 0.25, "ell_cap": "50"}))
        line = self._rejects(["plan", "--config", str(cfg)], capsys, tmp_path)
        assert "ell_cap" in line


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

    def test_import_leaves_scipy_special_out(self):
        # scipy.special is imported only where check prop4 needs erf
        code = "import sys, gaussprg.cli; print('scipy.special' in sys.modules)"
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"
