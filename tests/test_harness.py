import concurrent.futures
import hashlib
import json
import math
import multiprocessing
import os
import warnings
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


def ensemble(count, degree, seed_hex):
    """``count`` random PTFs of ``degree`` in 3 variables, as a config's
    ensemble section with that seed gives them."""
    return harness._ensemble_ptfs({"count": count, "num_vars": 3}, degree, seed_hex)


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

    def test_ci_structure(self):
        f = random_ptf(RandomPolyConfig(2, 1, 3))
        est = estimate_gap(f, "gaussian", 10_000, "analytic", master_seed="00")
        assert est.ci_lo == pytest.approx(est.gap - 1.96 * est.stderr)
        assert est.ci_hi == pytest.approx(est.gap + 1.96 * est.stderr)

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
            if est.ci_lo <= 0.0 <= est.ci_hi:
                covered += 1
        assert covered >= 40

    def test_generator_jobs_do_not_change_result(self):
        cfg = plan(3, 1, 1, 0.4, ell_cap=5)
        f = random_ptf(RandomPolyConfig(3, 1, 9))
        a = estimate_gap(f, cfg, 60_000, "analytic", master_seed="aa", jobs=1)
        b = estimate_gap(f, cfg, 60_000, "analytic", master_seed="aa", jobs=3)
        assert a == b

    def test_chain_length_negative_control(self):
        # One k-wise independent design does not fool the halfspace
        # sign(x0 - 0.3): its exact gap is -0.1222. The planned blend of
        # 21 designs does. Both are judged by fool's rule
        # |gap| <= 3 * stderr + 0.02.
        f = PTF(SparsePolynomial(8, {(1,) + (0,) * 7: 1.0, (0,) * 8: -0.3}))
        passed = {}
        for ell_cap in (1, None):
            cfg = plan(8, 1, 2, 0.25, ell_cap=ell_cap)
            est = estimate_gap(f, cfg, 25_000, "analytic", master_seed="0a")
            passed[cfg.ell] = abs(est.gap) <= 3 * est.stderr + 0.02
        assert passed == {1: False, 21: True}

    def test_gaussian_stream_values(self):
        # Both Gaussian streams, each ending in a partial unit (30,001 and
        # 55,555 samples): 2 * positives / samples - 1, exactly.
        f = ensemble(1, 2, "5eed")[0]
        est = estimate_gap(f, "gaussian", 30_001, "mc", n_baseline=55_555, master_seed="5eed")
        assert est.e_gen == -0.6966101129962334
        assert est.e_baseline == -0.6919449194491945

    @pytest.mark.parametrize("gen", ["gaussian", plan(2, 1, 1, 0.4, ell_cap=2)], ids=["gaussian", "plan"])
    def test_zero_counts_as_positive(self, gen):
        # sgn(0) = +1 on the generator rows and on the Monte-Carlo
        # baseline's rows, each ending in a partial unit.
        est = estimate_gap(PTF(SparsePolynomial(2, {})), gen, 5000, "mc", n_baseline=70_000)
        assert (est.e_gen, est.e_baseline, est.gap, est.stderr) == (1.0, 1.0, 0.0, 0.0)

    @pytest.mark.parametrize(
        "gen, baseline, message",
        [
            (plan(4, 1, 1, 0.4, ell_cap=3), "bad", "unknown baseline 'bad'"),
            ("foo", "analytic", "gen must be a GeneratorConfig or 'gaussian'"),
            (None, "mc", "gen must be a GeneratorConfig or 'gaussian'"),
            (plan(2, 1, 1, 0.4, ell_cap=3), "mc", "the PTF has 4 variables but the plan has n=2"),
        ],
        ids=["baseline", "gen-str", "gen-none", "plan-n"],
    )
    def test_bad_input_rejected_before_sampling(self, monkeypatch, gen, baseline, message):
        def no_rows(*args, **kwargs):
            raise AssertionError("a generator row was drawn")

        monkeypatch.setattr(harness, "sample_batch", no_rows)
        f = random_ptf(RandomPolyConfig(4, 1, 3))
        with pytest.raises(ValueError, match=message):
            estimate_gap(f, gen, 100_000, baseline)


class TestCarberyWright:
    def test_pure_linear_example(self):
        # p = x, eps = 0.01: empirical ~ 2*phi(0)*eps ~ 0.00798, ratio ~ 0.8
        rep = check_carbery_wright([X_POLY], [0.01], 2_000_000, master_seed="05")
        row = rep.rows[0]
        assert row["empirical"] == pytest.approx(0.00798, rel=0.08)
        assert 0.6 <= row["ratio"] <= 1.0
        assert rep.passed

    def test_zero_epsilon(self):
        rep = check_carbery_wright([X_POLY], [0.0], 50_000)
        assert rep.rows[0]["empirical"] == 0.0

    def test_random_quadratics(self):
        rep = check_carbery_wright(ensemble(3, 2, "cc"), [1e-2, 1e-3], 200_000, master_seed="cc")
        assert rep.passed
        assert len(rep.rows) == 6

    def test_jobs_invariance(self):
        a = check_carbery_wright(ensemble(2, 2, "dd"), [1e-2], 100_000, master_seed="dd", jobs=1)
        b = check_carbery_wright(ensemble(2, 2, "dd"), [1e-2], 100_000, master_seed="dd", jobs=3)
        assert a.rows == b.rows


class TestTailBound:
    def test_pure_linear_n3(self):
        # p = x, N = 3: true tail 0.0027, bound 2^(-2.25) with const 1
        rep = check_tail_bound([X_POLY], [3.0], 2_000_000, const=1.0, master_seed="09")
        row = rep.rows[0]
        assert row["empirical"] == pytest.approx(0.0027, rel=0.15)
        assert row["empirical"] <= row["bound"]
        assert rep.passed

    def test_monotone_tails(self):
        rep = check_tail_bound(ensemble(1, 2, "10"), [2.0, 4.0, 6.0], 300_000, master_seed="10")
        emp = [r["empirical"] for r in rep.rows]
        assert emp[0] >= emp[1] >= emp[2]

    def test_zero_threshold_trivial(self):
        rep = check_tail_bound([X_POLY], [0.0], 10_000, const=1.0)
        assert rep.rows[0]["empirical"] <= 1.0
        assert rep.rows[0]["bound"] == 1.0


CONSTANT = PTF(SparsePolynomial(1, {(0,): 1.0}))


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: check_carbery_wright([X_POLY], [], 100), "at least one polynomial and one threshold"),
        (lambda: check_carbery_wright([], [0.1], 100), "at least one polynomial and one threshold"),
        (lambda: check_tail_bound([X_POLY], [], 100), "at least one polynomial and one threshold"),
        (lambda: check_tail_bound([], [2.0], 100), "at least one polynomial and one threshold"),
        (lambda: check_carbery_wright([X_POLY, CONSTANT], [0.1], 100), "degree >= 1"),
        (lambda: check_tail_bound([CONSTANT], [2.0], 100), "degree >= 1"),
        (lambda: check_derivative_identity(X_POLY.poly, [], 100), "ells must not be empty"),
        (lambda: check_carbery_wright([X_POLY], [0.1, -0.1], 100), r"epsilons must be >= 0, got \[0.1, -0.1\]"),
        (lambda: estimate_gap(X_POLY, "gaussian", 0), "sample count must be >= 1, got 0"),
    ],
    ids=["cw-no-eps", "cw-no-poly", "tail-no-N", "tail-no-poly", "cw-degree-0", "tail-degree-0", "deriv-no-ell",
         "cw-negative-eps", "gap-no-rows"],
)
def test_check_rejects_empty_or_constant_input(monkeypatch, call, message):
    # A report of 0 rows would pass vacuously, and a degree-0 polynomial
    # would divide by its degree in the envelope or bound.
    def no_draws(*args, **kwargs):
        raise AssertionError("a Gaussian row was drawn")

    monkeypatch.setattr(harness, "_unit_rng", no_draws)
    with pytest.raises(ValueError, match=message):
        call()


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

    def test_negative_ell(self):
        # Was "repeat argument cannot be negative" from itertools.product.
        p = SparsePolynomial(1, {(2,): 1.0})
        with pytest.raises(ValueError, match=r"^ells must be >= 0, got \[-1\]$"):
            check_derivative_identity(p, [-1], 100)

    @pytest.mark.parametrize("n, last", [(2, 11), (4, 5), (45, 2), (2048, 1), (1, 170)])
    def test_tuple_cap(self, monkeypatch, n, last):
        # num_vars**ell ordered variable tuples, at most 2^11, for each order,
        # and no order above 170, the cap that one variable meets first.
        p = SparsePolynomial(n, {(1,) * min(n, 2) + (0,) * (n - 2): 1.0})
        if last > 1:
            rep = check_derivative_identity(p, [0, last], 3, master_seed="24")
            assert [row["ell"] for row in rep.rows] == [0, last]

        # The last accepted order goes on to take its derivatives, stubbed
        # out here: in 2,048 variables ell 1 evaluates 2,048 partials over
        # every variable, about 5 s even at 3 samples. Beyond the cap, rejected before
        # any derivative is taken or row drawn, whichever listed order it is.
        class Reached(Exception):
            pass

        def reached(*args):
            raise Reached

        monkeypatch.setattr(harness, "_mixed_partials", reached)
        monkeypatch.setattr(harness, "_unit_rng", None)
        with pytest.raises(Reached):
            check_derivative_identity(p, [last], 3)
        for ell in (last + 1, 10**18):
            if n == 1:
                message = rf"^ells must be <= 170, got {ell}$"
            else:
                message = rf"^num_vars\*\*ell must be <= 2048, got {n}\*\*{ell}$"
            with pytest.raises(ValueError, match=message):
                check_derivative_identity(p, [1, ell], 3)

    @pytest.mark.parametrize(
        "last, first, message",
        [
            # Every order draws num_vars normals a sample, ell 0 too.
            (SparsePolynomial(2048, {}), SparsePolynomial(2049, {}), "num_vars must be <= 2048, got 2049"),
            (SparsePolynomial(2048, {}), SparsePolynomial(10**16, {}), "num_vars must be <= 2048, got 10000000000000000"),
            # sqrt(171!) is beyond the float range. A small coefficient keeps
            # x^170's exact value within the next bound.
            (SparsePolynomial(1, {(170,): 1e-120}), SparsePolynomial(1, {(171,): 1.0}), "degree must be <= 170, got 171"),
            (SparsePolynomial(1, {(170,): 1e-120}), SparsePolynomial(1, {(100_000,): 1.0}), "degree must be <= 170, got 100000"),
            # The stderr sums D^4, whose mean is at least exact^2: x^85's
            # exact value is 6.7e152, its square 4.4e305; x^170's is inf.
            (SparsePolynomial(1, {(85,): 1.0}), SparsePolynomial(1, {(86,): 1.0}),
             r"exact value 1.14e\+155 at ell 0 squares beyond the float range"),
            (SparsePolynomial(1, {(85,): 1.0}), SparsePolynomial(1, {(170,): 1.0}),
             "exact value inf at ell 0 squares beyond the float range"),
        ],
        ids=["num_vars", "num_vars-huge", "degree", "degree-huge", "moment", "moment-inf"],
    )
    def test_poly_cap(self, monkeypatch, last, first, message):
        # The largest polynomial goes on to take its derivatives, stubbed out;
        # the next is rejected before any derivative is taken or row drawn.
        class Reached(Exception):
            pass

        def reached(*args):
            raise Reached

        monkeypatch.setattr(harness, "_mixed_partials", reached)
        monkeypatch.setattr(harness, "_unit_rng", None)
        with pytest.raises(Reached):
            check_derivative_identity(last, [0], 3)
        with pytest.raises(ValueError, match=f"^{message}$"):
            check_derivative_identity(first, [0], 3)

    def test_unit_draw_is_read_in_place(self, monkeypatch):
        # Each unit draws its Gaussian rows once in Fortran order, so the
        # X.T that evaluate_batch reads is contiguous: no partial copies it.
        seen = []
        evaluate = SparsePolynomial.evaluate_batch

        def spy(self, X):
            seen.append(X.flags.f_contiguous)
            return evaluate(self, X)

        monkeypatch.setattr(SparsePolynomial, "evaluate_batch", spy)
        p = SparsePolynomial(3, {(1, 1, 0): 1.0, (0, 0, 2): 0.5})
        check_derivative_identity(p, [0, 1, 2], 100, master_seed="25")
        assert len(seen) == 1 + 3 + 6 and all(seen)

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
        assert rep.rows[0]["origin_value"] == 0.0

    def test_slope_cubic_residual(self):
        rep = check_prop4_1d(3, shells=(0.2, 0.1, 0.05))
        assert rep.rows[0]["slope"] >= 2.5
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
        with pytest.raises(ValueError, match=r"must lie in \(0, 0.5\)"):
            check_prop4_1d(3, shells=(math.nan, 0.1))
        with pytest.raises(ValueError):
            check_prop4_1d(0)

    @pytest.mark.parametrize("shells", [(0.1,), (0.1, 0.1), (0.05, 0.05, 0.05)])
    def test_one_distinct_shell(self, shells):
        # One radius gave a polyfit RankWarning and a meaningless slope.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="two distinct shell radii"):
                check_prop4_1d(3, shells=shells)


@pytest.mark.parametrize(
    "rows, passed",
    [
        ((), True),
        (({"a": 1}, {"a": 2}), True),
        (({"passed": 1}, {"passed": 1}), True),
        (({"passed": 1}, {"passed": 0}, {"passed": 1}), False),
    ],
    ids=["no-rows", "no-column", "all-pass", "one-fails"],
)
def test_report_passed_is_derived_from_rows(rows, passed):
    assert harness.Report(("a",), rows).passed is passed


class TestRunExperiment:
    def test_unknown_kind(self):
        spec = ExperimentSpec("bogus", {}, {}, {}, "00", "/tmp/x.csv")
        with pytest.raises(ValueError):
            run_experiment(spec)

    @pytest.mark.parametrize("section", ["ensemble", "generator", "samples"])
    @pytest.mark.parametrize("value", [None, [1, 2]])
    def test_section_not_a_dict(self, tmp_path, section, value):
        sections = {"ensemble": {"count": 1}, "generator": {},
                    "samples": {"epsilons": [0.1], "n_samples": 10}, section: value}
        spec = ExperimentSpec("cw", **sections, seed="00", out=str(tmp_path / "cw.csv"))
        with pytest.raises(ValueError, match=f"config section {section} must be a dict"):
            run_experiment(spec)
        assert not (tmp_path / "cw.csv").exists()

    @pytest.mark.parametrize(
        "kind, generator, samples",
        [
            ("fool", {"k": 1, "epsilons": [0.4], "ell_cap": 4}, {"n_gen": 100}),
            ("cw", {}, {"epsilons": [0.1], "n_samples": 100}),
            ("tail", {}, {"N_list": [4.0], "n_samples": 100}),
            ("deriv", {}, {"ells": [1], "n_samples": 100}),
        ],
    )
    def test_empty_ensemble_rejected(self, tmp_path, kind, generator, samples):
        out = tmp_path / "out.csv"
        spec = ExperimentSpec(kind, {"count": 0, "num_vars": 2}, generator, samples, "00", str(out))
        with pytest.raises(ValueError, match=r"^config ensemble.count must be >= 1, got 0$"):
            run_experiment(spec)
        assert not out.exists()

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

    def test_sample_writes_each_unit_before_the_next(self, tmp_path, monkeypatch):
        # At jobs 1, when a 4,096-row unit after the first starts, the
        # temporary file holds the header and every earlier unit's lines:
        # no finished unit waits in memory.
        out = tmp_path / "y.jsonl"
        tmp = Path(f"{out}.{os.getpid()}.tmp")
        seen = []

        def spy(config, seed, count, start=0):
            seen.append((start, tmp.read_text().count("\n") if tmp.exists() else None))
            return real(config, seed, count, start=start)

        real = harness.sample_batch
        monkeypatch.setattr(harness, "sample_batch", spy)
        spec = ExperimentSpec(
            "sample", {}, {"n": 2, "d": 1, "k": 1, "epsilon": 0.4, "ell_cap": 3},
            {"count": 3 * 4096 + 5}, "cafe", str(out),
        )
        run_experiment(spec)
        assert [start for start, _ in seen] == [0, 4096, 8192, 12288]
        assert seen[1:] == [(4096, 4097), (8192, 8193), (12288, 12289)]
        assert len(out.read_text().splitlines()) == 1 + 3 * 4096 + 5

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
    # exhaustive run reads the exact law over all 53^4 seeds at q = 53 from
    # the thresholds; the Monte-Carlo run draws 200,000 seeds at q = 211.
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

    # SHA-256 of check prop4's CSV followed by its .spec.json sidecar, at
    # k = 3 with the default shells, fit grid, shell points and inner scale.
    PROP4_GOLDEN = "72f39bc07cf6c1d34b6fa53c58605ee2eb95edcb3c78c9785b29ec5a9ee5c18f"

    def test_prop4_golden_digest(self, tmp_path):
        out = tmp_path / "p.csv"
        result = run_experiment(ExperimentSpec("prop4", {}, {}, {"k": 3}, "5eed", str(out)))
        assert result.passed
        data = out.read_bytes() + Path(str(out) + ".spec.json").read_bytes()
        assert hashlib.sha256(data).hexdigest() == self.PROP4_GOLDEN

    # SHA-256 of each Gaussian check's CSV followed by its .spec.json
    # sidecar, 50,000 samples each. cw and tail evaluate degree-2 and
    # degree-3 polynomials (cubes of the coordinates); deriv takes first
    # and second directional derivatives of a cubic.
    CHECKS_GOLDEN = {
        "cw": (
            {"degrees": [2, 3], "count": 2, "num_vars": 3},
            {"epsilons": [0.01, 0.001], "n_samples": 50_000},
            "5f871c55a7dbf5e1da8c41bf5438f740d14d3cf57d9004a9a6442889ce7c8baf",
        ),
        "tail": (
            {"degrees": [2, 3], "count": 2, "num_vars": 3},
            {"N_list": [2.0, 4.0, 6.0], "n_samples": 50_000},
            "e59f2b63b1fc2d55d9792d9684d20b4311c4f8177fb00e1582a3be2c326f8855",
        ),
        "deriv": (
            {"count": 2, "num_vars": 3, "degree": 3},
            {"ells": [1, 2], "n_samples": 50_000, "tol": 0.05},
            "b0d7c2f12f6a1d5d2c86bb56f124b3e7ae7463d03229d16f6641d899f081a4c7",
        ),
    }

    @pytest.mark.parametrize("kind", sorted(CHECKS_GOLDEN))
    def test_checks_golden_digest(self, tmp_path, kind):
        ensemble, samples, digest = self.CHECKS_GOLDEN[kind]
        out = tmp_path / "c.csv"
        result = run_experiment(ExperimentSpec(kind, ensemble, {}, samples, "5eed", str(out)))
        assert result.passed
        data = out.read_bytes() + Path(str(out) + ".spec.json").read_bytes()
        assert hashlib.sha256(data).hexdigest() == digest

    # The same checks on two threads, and at 60,001 samples, whose last
    # unit holds one sample.
    CHECKS_GOLDEN_PARTIAL = {
        "cw": "b7844bc22aaf93df5df2c8095a50d37a86888dcdbca51b64be0ff511991eff10",
        "tail": "1a751b87dbdd4ca4bf1052a0e918128c98b2092582ba6ce72b74658ec8faca88",
        "deriv": "37247fc5f3272f9bbd58dfdc2925711cb0359d4fbb0c28ce7322fef64bfd74cb",
    }

    @pytest.mark.parametrize("n_samples, jobs", [(50_000, 2), (60_001, 1), (60_001, 2)])
    @pytest.mark.parametrize("kind", sorted(CHECKS_GOLDEN))
    def test_checks_golden_digest_threads_and_partial_unit(self, tmp_path, monkeypatch, kind, n_samples, jobs):
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        ensemble, samples, digest = self.CHECKS_GOLDEN[kind]
        if n_samples != samples["n_samples"]:
            digest = self.CHECKS_GOLDEN_PARTIAL[kind]
        out = tmp_path / "c.csv"
        spec = ExperimentSpec(kind, ensemble, {}, {**samples, "n_samples": n_samples}, "5eed", str(out), jobs)
        assert run_experiment(spec).passed
        data = out.read_bytes() + Path(str(out) + ".spec.json").read_bytes()
        assert hashlib.sha256(data).hexdigest() == digest


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

    def submit(self, fn, *args):
        future = concurrent.futures.Future()
        future.set_result(fn(*args))
        return future


class TestRunUnits:
    @pytest.mark.parametrize("jobs", [0, -4])
    def test_jobs_below_one(self, tmp_path, jobs):
        with pytest.raises(ValueError, match="jobs must be >= 1"):
            list(harness._run_units(3, lambda u: u, jobs))
        with pytest.raises(ValueError, match="jobs must be >= 1"):
            estimate_gap(X_POLY, "gaussian", 100, "analytic", jobs=jobs)
        with pytest.raises(ValueError, match="jobs must be >= 1"):
            check_carbery_wright([X_POLY], [0.1], 100, jobs=jobs)
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
        pids = list(harness._run_units(4, lambda u: os.getpid(), 2, processes=True))
        assert len(pids) == 4 and os.getpid() not in pids

    def test_units_run_in_threads_by_default(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        assert list(harness._run_units(4, lambda u: os.getpid(), 2)) == [os.getpid()] * 4

    def test_thread_path_without_fork(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
        assert list(harness._run_units(3, lambda u: (u, os.getpid()), 2, processes=True)) == [
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
        squares = list(harness._run_units(count, lambda u: u * u, jobs, order, processes=True))
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
            with harness._atomic_open(str(out), newline="") as fh:
                harness._write_csv(fh, ["a"], rows)
        assert list(tmp_path.iterdir()) == []
        out.write_text("old\n")
        with pytest.raises(RuntimeError):
            with harness._atomic_open(str(out), newline="") as fh:
                harness._write_csv(fh, ["a"], rows)
        assert out.read_text() == "old\n"
        assert list(tmp_path.iterdir()) == [out]

    def test_jsonl_failing_midway(self, tmp_path, monkeypatch):
        class BadChunk:
            def tolist(self):
                raise RuntimeError("disk full")

        monkeypatch.setattr(
            harness, "_run_units", lambda count, fn, jobs, **kw: (c for c in [fn(0), BadChunk()])
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

    def test_unwritable_path_is_a_value_error(self, tmp_path):
        afile = tmp_path / "afile"
        afile.write_text("keep\n")
        for path in (afile / "x.csv", tmp_path):
            with pytest.raises(ValueError, match="cannot write"):
                with harness._atomic_open(str(path)) as fh:
                    fh.write("new\n")
        # A failure in the middle of a write stays an OSError.
        out = tmp_path / "y.csv"
        out.write_text("old\n")
        with pytest.raises(OSError):
            with harness._atomic_open(str(out)) as fh:
                fh.write("new\n")
                raise OSError("disk full")
        assert afile.read_text() == "keep\n" and out.read_text() == "old\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["afile", "y.csv"]

    def test_failed_rename_is_a_value_error(self, tmp_path, monkeypatch):
        # The temporary file is complete but cannot replace the target.
        out = tmp_path / "y.csv"
        out.write_text("old\n")

        def no_replace(src, dst):
            raise OSError("read-only file system")

        monkeypatch.setattr(harness.os, "replace", no_replace)
        with pytest.raises(ValueError, match="^cannot write .*y.csv: read-only file system$"):
            with harness._atomic_open(str(out)) as fh:
                fh.write("new\n")
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
