import hashlib
import json
import math
import multiprocessing
import os
from pathlib import Path

import numpy as np
import pytest

from gaussprg import harness
from gaussprg.generator import plan
from gaussprg.harness import (
    ExperimentSpec,
    check_carbery_wright,
    check_derivative_identity,
    check_prop4_1d,
    check_tail_bound,
    estimate_gap,
    run_experiment,
    _smooth_expectation,
)
from gaussprg.hermite import SparsePolynomial
from gaussprg.ptf import PTF, RandomPolyConfig, random_ptf

X_POLY = PTF(SparsePolynomial(1, {(1,): 1.0}))


class TestEstimateGap:
    def test_analytic_baseline_value(self):
        f = PTF(SparsePolynomial(1, {(1,): 1.0, (0,): -1.0}))  # sgn(x - 1)
        est = estimate_gap(f, "gaussian", 4000, "analytic", master_seed="07")
        assert est.e_baseline == pytest.approx(-0.6826894921370859, abs=1e-12)
        assert est.n_samples_baseline == 0

    def test_same_distribution_within_noise(self):
        # true-Gaussian control stream vs analytic oracle
        f = PTF(SparsePolynomial(2, {(1, 0): 1.0, (0, 1): -0.5, (0, 0): 0.3}))
        est = estimate_gap(f, "gaussian", 1_000_000, "analytic", master_seed="31")
        assert abs(est.gap) <= 4 * est.stderr

    def test_identical_streams_give_zero_gap(self):
        f = random_ptf(RandomPolyConfig(3, 2, 11))
        est = estimate_gap(
            f,
            "gaussian",
            20_000,
            "mc",
            n_baseline=20_000,
            master_seed="42",
            gen_stream="shared",
            baseline_stream="shared",
        )
        assert est.gap == 0.0
        assert est.e_gen == est.e_baseline

    def test_ci_structure(self):
        f = random_ptf(RandomPolyConfig(2, 1, 3))
        est = estimate_gap(f, "gaussian", 10_000, "analytic", master_seed="00")
        assert est.ci95[0] == pytest.approx(est.gap - 1.96 * est.stderr)
        assert est.ci95[1] == pytest.approx(est.gap + 1.96 * est.stderr)

    def test_analytic_rejected_for_degree_two(self):
        f = random_ptf(RandomPolyConfig(2, 2, 5))
        with pytest.raises(ValueError):
            estimate_gap(f, "gaussian", 1000, "analytic")

    def test_calibration_coverage(self):
        # generator == baseline distribution: 95% CI covers 0 at least
        # 40 of 50 repetitions
        f = PTF(SparsePolynomial(2, {(1, 0): 0.8, (0, 1): -0.6, (0, 0): 0.25}))
        covered = 0
        for rep in range(50):
            est = estimate_gap(f, "gaussian", 4000, "analytic", master_seed=f"{rep:02x}")
            if est.ci95[0] <= 0.0 <= est.ci95[1]:
                covered += 1
        assert covered >= 40

    def test_generator_jobs_do_not_change_result(self):
        cfg = plan(3, 1, 1, 0.4, ell_cap=5)
        f = random_ptf(RandomPolyConfig(3, 1, 9))
        a = estimate_gap(f, cfg, 60_000, "analytic", master_seed="aa", jobs=1)
        b = estimate_gap(f, cfg, 60_000, "analytic", master_seed="aa", jobs=3)
        assert a == b


class TestCarberyWright:
    def test_pure_linear_example(self):
        # p = x, eps = 0.01: empirical ~ 2*phi(0)*eps ~ 0.00798, ratio ~ 0.8
        rep = check_carbery_wright(1, [0.01], 1, 2_000_000, polys=[X_POLY], master_seed="05")
        row = rep.rows[0]
        assert row["empirical"] == pytest.approx(0.00798, rel=0.08)
        assert 0.6 <= row["ratio"] <= 1.0
        assert rep.passed

    def test_zero_epsilon(self):
        rep = check_carbery_wright(1, [0.0], 1, 50_000, polys=[X_POLY])
        assert rep.rows[0]["empirical"] == 0.0

    def test_random_quadratics(self):
        rep = check_carbery_wright(2, [1e-2, 1e-3], 3, 200_000, master_seed="cc")
        assert rep.passed
        assert len(rep.rows) == 6

    def test_jobs_invariance(self):
        a = check_carbery_wright(2, [1e-2], 2, 100_000, master_seed="dd", jobs=1)
        b = check_carbery_wright(2, [1e-2], 2, 100_000, master_seed="dd", jobs=3)
        assert a.rows == b.rows


class TestTailBound:
    def test_pure_linear_n3(self):
        # p = x, N = 3: true tail 0.0027, bound 2^(-2.25) with const 1
        rep = check_tail_bound(1, [3.0], 1, 2_000_000, polys=[X_POLY], const=1.0, master_seed="09")
        row = rep.rows[0]
        assert row["empirical"] == pytest.approx(0.0027, rel=0.15)
        assert row["empirical"] <= row["bound"]
        assert rep.passed

    def test_monotone_tails(self):
        rep = check_tail_bound(2, [2.0, 4.0, 6.0], 1, 300_000, master_seed="10")
        emp = [r["empirical"] for r in rep.rows]
        assert emp[0] >= emp[1] >= emp[2]

    def test_zero_threshold_trivial(self):
        rep = check_tail_bound(1, [0.0], 1, 10_000, polys=[X_POLY], const=1.0)
        assert rep.rows[0]["empirical"] <= 1.0
        assert rep.rows[0]["bound"] == 1.0


class TestDerivativeIdentity:
    def test_x_squared_one_derivative(self):
        p = SparsePolynomial(1, {(2,): 1.0})
        rep = check_derivative_identity(p, [1], 300_000, master_seed="21")
        row = rep.rows[0]
        assert row["exact"] == pytest.approx(4.0, rel=1e-12)
        assert row["rel_error"] <= 0.05
        assert rep.passed

    def test_zero_derivatives_match_l2(self):
        p = SparsePolynomial(2, {(1, 1): 1.0, (0, 0): 0.5})
        rep = check_derivative_identity(p, [0], 100_000, master_seed="22")
        row = rep.rows[0]
        assert row["exact"] == pytest.approx(1.25, rel=1e-12)
        assert row["rel_error"] <= 0.05

    def test_beyond_degree_both_zero(self):
        p = SparsePolynomial(1, {(1,): 1.0})
        rep = check_derivative_identity(p, [2], 10_000, master_seed="23")
        row = rep.rows[0]
        assert row["exact"] == 0.0
        assert row["estimate"] == 0.0
        assert row["rel_error"] == 0.0


class TestProp4:
    def test_origin_exact_zero(self):
        rep = check_prop4_1d(3)
        assert rep.meta["origin_value"] == 0.0

    def test_slope_cubic_residual(self):
        rep = check_prop4_1d(3, shells=(0.2, 0.1, 0.05))
        assert rep.meta["slope"] >= 2.5
        assert rep.passed

    def test_linear_coefficient(self):
        # d/db E[sgn(X + b)] at 0 is 2*phi(0) = sqrt(2/pi)
        h = 1e-6
        g = _smooth_expectation(np.array([0.0, 0.0]), np.array([h, -h]))
        slope = (g[0] - g[1]) / (2 * h)
        assert slope == pytest.approx(math.sqrt(2 / math.pi), rel=1e-6)

    def test_shell_validation(self):
        with pytest.raises(ValueError):
            check_prop4_1d(3, shells=(0.6,))
        with pytest.raises(ValueError):
            check_prop4_1d(0)


class TestRunExperiment:
    def test_unknown_kind(self):
        spec = ExperimentSpec("bogus", {}, {}, {}, "00", "/tmp/x.csv")
        with pytest.raises(ValueError):
            run_experiment(spec)

    def test_empty_ensemble_header_only(self, tmp_path):
        out = str(tmp_path / "fool.csv")
        spec = ExperimentSpec(
            "fool", {"count": 0}, {"k": 1, "epsilons": [0.4], "ell_cap": 4},
            {"n_gen": 100}, "00", out,
        )
        result = run_experiment(spec)
        assert result.passed
        lines = Path(out).read_text().splitlines()
        assert len(lines) == 1 and lines[0].startswith("ptf_index,")

    def test_fool_rows_and_determinism(self, tmp_path):
        out1, out2 = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
        base = dict(
            kind="fool",
            ensemble={"count": 2, "num_vars": 3, "degree": 1},
            generator={"k": 1, "epsilons": [0.5, 0.3], "ell_cap": 4},
            samples={"n_gen": 2000, "baseline": "analytic"},
            seed="beef",
        )
        r1 = run_experiment(ExperimentSpec(out=out1, **base))
        r2 = run_experiment(ExperimentSpec(out=out2, jobs=3, **base))
        assert Path(out1).read_bytes() == Path(out2).read_bytes()
        assert len(r1.rows) == 4
        assert {row["epsilon"] for row in r1.rows} == {0.5, 0.3}

    def test_sample_jsonl(self, tmp_path):
        out = str(tmp_path / "y.jsonl")
        spec = ExperimentSpec(
            "sample", {}, {"n": 2, "d": 1, "k": 1, "epsilon": 0.4, "ell_cap": 3},
            {"count": 10}, "cafe", out,
        )
        run_experiment(spec)
        lines = Path(out).read_text().splitlines()
        assert len(lines) == 11  # spec echo + 10 rows
        assert "spec" in json.loads(lines[0])
        row = json.loads(lines[1])
        assert row["seed_index"] == 0 and len(row["y"]) == 2

    @pytest.mark.parametrize("count", [0, -5])
    def test_sample_count_below_one(self, tmp_path, count):
        out = tmp_path / "y.jsonl"
        spec = ExperimentSpec(
            "sample", {}, {"n": 2, "d": 1, "k": 1, "epsilon": 0.4, "ell_cap": 3},
            {"count": count}, "cafe", str(out),
        )
        with pytest.raises(ValueError):
            run_experiment(spec)
        assert not out.exists()

    @pytest.mark.parametrize(
        "kind, generator, samples, missing",
        [
            ("sample", {"n": 2, "d": 1, "k": 1, "epsilon": 0.4}, {}, "samples.count"),
            ("sample", {"n": 2, "d": 1, "epsilon": 0.4}, {"count": 5}, "generator.k"),
            ("moments", {"M": 3, "K": 4, "n": 2}, {}, "generator.tv_budget"),
        ],
    )
    def test_missing_config_key(self, tmp_path, kind, generator, samples, missing):
        out = tmp_path / "y.out"
        spec = ExperimentSpec(kind, {}, generator, samples, "cafe", str(out))
        with pytest.raises(ValueError, match=f"missing {missing}"):
            run_experiment(spec)
        assert not out.exists()

    def test_moments_csv(self, tmp_path):
        out = str(tmp_path / "m.csv")
        spec = ExperimentSpec(
            "moments", {}, {"M": 3, "K": 4, "n": 2, "tv_budget": 0.06},
            {"mode": "exhaustive", "max_order": 4}, "00", out,
        )
        result = run_experiment(spec)
        assert result.passed
        header = Path(out).read_text().splitlines()[0]
        assert header == "scope,orders,empirical,target,tolerance,passed"

    # SHA-256 of the moments CSV followed by its .spec.json sidecar. The
    # exhaustive run reads the exact seed-space law at q = 53 (53^4 seeds);
    # the Monte-Carlo run draws 200,000 seeds at q = 211.
    MOMENTS_GOLDEN = {
        "exhaustive": (
            {"M": 3, "K": 4, "n": 2, "tv_budget": 0.06},
            {"mode": "exhaustive", "max_order": 4},
            "fc1202f338d9875a3a3c370fa2acd15f7a40ecfb3600d65fb65407a190b55db4",
        ),
        "mc": (
            {"M": 3, "K": 4, "n": 2, "tv_budget": 3 / 211},
            {"mode": "mc", "max_order": 4, "n_samples": 200_000},
            "97e4a925b0ec62eebab20d4a91e0b3c1d051c8175e38e8e3d6b571f1d7d5a4ac",
        ),
    }

    @pytest.mark.parametrize("mode", sorted(MOMENTS_GOLDEN))
    def test_moments_golden_digest(self, tmp_path, mode):
        generator, samples, digest = self.MOMENTS_GOLDEN[mode]
        out = tmp_path / "m.csv"
        result = run_experiment(ExperimentSpec("moments", {}, generator, samples, "5eed", str(out)))
        assert result.passed
        data = out.read_bytes() + Path(str(out) + ".spec.json").read_bytes()
        assert hashlib.sha256(data).hexdigest() == digest

    def test_spec_json_round_trip(self):
        spec = ExperimentSpec("cw", {"count": 1}, {}, {"epsilons": [0.1], "n_samples": 10}, "01", "x.csv", 2)
        again = ExperimentSpec.from_json(spec.to_json())
        assert again == spec


HAS_FORK = "fork" in multiprocessing.get_all_start_methods()


class _RecordingPool:
    """Stands in for ProcessPoolExecutor: records ``max_workers`` and runs
    the units in this process."""

    def __init__(self, seen, max_workers, mp_context=None, initializer=None, initargs=()):
        seen.append(max_workers)
        initializer(*initargs)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items):
        return map(fn, items)


class TestRunUnits:
    @pytest.mark.parametrize("jobs", [0, -4])
    def test_jobs_below_one(self, tmp_path, jobs):
        with pytest.raises(ValueError, match="jobs must be >= 1"):
            harness._run_units(3, lambda u: u, jobs)
        with pytest.raises(ValueError, match="jobs must be >= 1"):
            estimate_gap(X_POLY, "gaussian", 100, "analytic", jobs=jobs)
        with pytest.raises(ValueError, match="jobs must be >= 1"):
            check_carbery_wright(1, [0.1], 1, 100, polys=[X_POLY], jobs=jobs)
        out = tmp_path / "m.csv"
        spec = ExperimentSpec(
            "moments", {}, {"M": 3, "K": 4, "n": 2, "tv_budget": 0.06}, {}, "00", str(out), jobs
        )
        with pytest.raises(ValueError, match="jobs must be >= 1"):
            run_experiment(spec)
        assert not out.exists()

    @pytest.mark.skipif(not HAS_FORK, reason="needs the fork start method")
    def test_units_run_in_worker_processes(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        pids = harness._run_units(4, lambda u: os.getpid(), 2, processes=True)
        assert len(pids) == 4 and os.getpid() not in pids

    def test_units_run_in_threads_by_default(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        assert harness._run_units(4, lambda u: os.getpid(), 2) == [os.getpid()] * 4

    def test_thread_path_without_fork(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
        assert harness._run_units(3, lambda u: (u, os.getpid()), 2, processes=True) == [
            (u, os.getpid()) for u in range(3)
        ]

    @pytest.mark.parametrize(
        "jobs, count, cpus, workers",
        [(1000, 5, 64, 5), (3, 10, 64, 3), (8, 10, 2, 2), (8, 10, None, None), (2, 1, 64, None)],
    )
    def test_worker_count_bound(self, monkeypatch, jobs, count, cpus, workers):
        import concurrent.futures.process

        seen = []
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["fork"])
        monkeypatch.setattr(
            concurrent.futures.process,
            "ProcessPoolExecutor",
            lambda **kw: _RecordingPool(seen, **kw),
        )
        monkeypatch.setattr(harness, "_unit_fn", None)
        order = list(range(count))[::-1]
        squares = harness._run_units(count, lambda u: u * u, jobs, order, processes=True)
        assert squares == [u * u for u in range(count)]
        assert seen == ([] if workers is None else [workers])


class TestAtomicWrites:
    """A result file appears whole or not at all."""

    def test_csv_failing_midway(self, tmp_path, monkeypatch):
        out = tmp_path / "r.csv"
        rows = [{"a": 1}, {"a": 2}, {"a": object()}]
        real = harness._fmt_cell

        def fmt(v):
            if not isinstance(v, int):
                raise RuntimeError("disk full")
            return real(v)

        monkeypatch.setattr(harness, "_fmt_cell", fmt)
        with pytest.raises(RuntimeError):
            harness._write_csv(str(out), ["a"], rows)
        assert list(tmp_path.iterdir()) == []
        out.write_text("old\n")
        with pytest.raises(RuntimeError):
            harness._write_csv(str(out), ["a"], rows)
        assert out.read_text() == "old\n"
        assert list(tmp_path.iterdir()) == [out]

    def test_jsonl_failing_midway(self, tmp_path, monkeypatch):
        class BadChunk:
            def tolist(self):
                raise RuntimeError("disk full")

        monkeypatch.setattr(
            harness, "_run_units", lambda count, fn, jobs, **kw: [fn(0), BadChunk()]
        )
        out = tmp_path / "y.jsonl"
        out.write_text("old\n")
        spec = ExperimentSpec(
            "sample", {}, {"n": 2, "d": 1, "k": 1, "epsilon": 0.4, "ell_cap": 3},
            {"count": 5000}, "cafe", str(out),
        )
        with pytest.raises(RuntimeError):
            run_experiment(spec)
        assert out.read_text() == "old\n"
        assert list(tmp_path.iterdir()) == [out]

    def test_writes_replace_whole_files(self, tmp_path):
        out = tmp_path / "sub" / "m.csv"
        spec = ExperimentSpec(
            "moments", {}, {"M": 3, "K": 4, "n": 2, "tv_budget": 0.06},
            {"mode": "exhaustive", "max_order": 2}, "00", str(out),
        )
        run_experiment(spec)
        first = out.read_bytes(), Path(str(out) + ".spec.json").read_bytes()
        out.write_text("stale and longer than the real file " * 100)
        run_experiment(spec)
        assert (out.read_bytes(), Path(str(out) + ".spec.json").read_bytes()) == first
        assert sorted(p.name for p in out.parent.iterdir()) == ["m.csv", "m.csv.spec.json"]
