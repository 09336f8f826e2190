import itertools
import math
import time

import numpy as np
import pytest

from gaussprg.hermite import SparsePolynomial, l2_norm, to_hermite
from gaussprg.ptf import (
    PTF,
    RandomPolyConfig,
    eval_ptf,
    eval_ptf_batch,
    halfspace_expectation,
    hermite_indices,
    linear_threshold_params,
    ptf_from_json,
    ptf_to_json,
    random_ptf,
)


class TestEvalPtf:
    def test_positive(self):
        f = PTF(SparsePolynomial(1, {(1,): 1.0}))
        assert eval_ptf(f, [2.0]) == 1

    def test_negative(self):
        f = PTF(SparsePolynomial(1, {(2,): 1.0, (0,): -1.0}))
        assert eval_ptf(f, [0.0]) == -1

    def test_zero_convention(self):
        f = PTF(SparsePolynomial(1, {(1,): 1.0}))
        assert eval_ptf(f, [0.0]) == 1

    def test_dimension_mismatch(self):
        f = PTF(SparsePolynomial(2, {(1, 0): 1.0}))
        with pytest.raises(ValueError):
            eval_ptf(f, [1.0])

    def test_batch_values_in_pm_one(self):
        rng = np.random.default_rng(0)
        f = random_ptf(RandomPolyConfig(3, 2, 42))
        out = eval_ptf_batch(f, rng.standard_normal((500, 3)))
        assert set(np.unique(out)) <= {-1, 1}

    def test_argsign_invariance(self):
        # 100 random PTFs x 100 points, any positive rescaling
        rng = np.random.default_rng(17)
        for trial in range(100):
            f = random_ptf(RandomPolyConfig(2, 2, trial))
            c = float(rng.uniform(0.1, 10.0))
            g = PTF(f.poly * c)
            X = rng.standard_normal((100, 2))
            assert np.array_equal(eval_ptf_batch(f, X), eval_ptf_batch(g, X))


class TestRandomPtf:
    def test_deterministic(self):
        a = random_ptf(RandomPolyConfig(3, 2, 987654321))
        b = random_ptf(RandomPolyConfig(3, 2, 987654321))
        assert a.poly.terms == b.poly.terms

    def test_degree_bound(self):
        for seed in range(20):
            f = random_ptf(RandomPolyConfig(3, 3, seed))
            assert f.poly.degree <= 3

    def test_unit_norm(self):
        for seed in range(20):
            f = random_ptf(RandomPolyConfig(2, 3, seed))
            assert l2_norm(f.poly) == pytest.approx(1.0, abs=1e-9)

    def test_index_count(self):
        # n=2, d=2: multi-indices with |a|_1 <= 2 number C(2+2, 2) = 6
        assert len(hermite_indices(2, 2)) == 6

    def test_indices_match_brute_force(self):
        # Every tuple of entries <= t with sum t, degree by degree, in
        # lexicographic order: the (d+1)^n walk hermite_indices replaced.
        for n in range(1, 7):
            for d in range(5):
                brute = [
                    a for t in range(d + 1) for a in itertools.product(range(t + 1), repeat=n) if sum(a) == t
                ]
                assert hermite_indices(n, d) == brute, (n, d)

    def test_many_variables(self):
        # C(202, 2) = 20,301 indices; the brute-force walk would take 3^200 steps.
        start = time.perf_counter()
        idx = hermite_indices(200, 2)
        assert time.perf_counter() - start < 10.0
        assert len(idx) == math.comb(202, 2)
        assert idx[:3] == [(0,) * 200, (0,) * 199 + (1,), (0,) * 198 + (1, 0)]
        assert idx[-1] == (2,) + (0,) * 199

    def test_hermite_isotropy(self):
        # 10^4 draws, n=2, d=2: normalized coefficient vectors are uniform on
        # the 5-sphere, so their covariance is I/6 (within 10%)
        dim = 6
        idx = hermite_indices(2, 2)
        coeffs = np.empty((10_000, dim))
        for s in range(10_000):
            he = to_hermite(random_ptf(RandomPolyConfig(2, 2, s)).poly)
            coeffs[s] = [he.coeffs.get(a, 0.0) for a in idx]
        cov = coeffs.T @ coeffs / coeffs.shape[0]
        scale = 1.0 / dim
        assert np.all(np.abs(np.diag(cov) - scale) <= 0.1 * scale)
        off = cov - np.diag(np.diag(cov))
        assert np.max(np.abs(off)) <= 0.1 * scale

    def test_bad_config(self):
        with pytest.raises(ValueError):
            RandomPolyConfig(0, 1, 0)
        with pytest.raises(ValueError):
            RandomPolyConfig(1, 0, 0)

    @pytest.mark.parametrize(
        "last, first",
        [((202, 2), (203, 2)), ((2047, 1), (2048, 1)), ((1, 2**22 - 1), (1, 2**22)), ((19, 6), (20, 6))],
    )
    def test_ensemble_size_cap(self, last, first):
        # 2^22 exponent entries, num_vars * C(num_vars + degree, degree), is the
        # most random_ptf builds: (200, 2) has 4.1M and builds in about 5 s.
        assert last[0] * math.comb(sum(last), last[1]) <= 2**22 < first[0] * math.comb(sum(first), first[1])
        assert RandomPolyConfig(*last, 0).num_vars == last[0]
        message = rf"^num_vars \* C\(num_vars \+ degree, degree\) must be <= 4194304, got num_vars={first[0]}, degree={first[1]}$"
        with pytest.raises(ValueError, match=message):
            RandomPolyConfig(*first, 0)

    def test_ensemble_size_cap_at_huge_sizes(self):
        # Rejected in a few steps, without C(num_vars + degree, degree) in full.
        start = time.perf_counter()
        for n, d in [(10**16, 1), (10**16, 2), (1, 10**16), (10**16, 10**16), (65536, 1)]:
            with pytest.raises(ValueError, match="must be <= 4194304"):
                RandomPolyConfig(n, d, 0)
        assert time.perf_counter() - start < 1.0


class TestHalfspaceExpectation:
    def test_symmetric(self):
        assert halfspace_expectation([1.0], 0.0) == 0.0

    def test_phi_one(self):
        assert halfspace_expectation([1.0], 1.0) == pytest.approx(-0.6826894921370859, abs=1e-12)

    def test_scale_invariance(self):
        w = np.array([0.3, -1.2, 0.5])
        assert halfspace_expectation(2 * w, 2 * 0.7) == pytest.approx(
            halfspace_expectation(w, 0.7), abs=1e-14
        )

    def test_zero_weight_rejected(self):
        with pytest.raises(ValueError):
            halfspace_expectation([0.0, 0.0], 1.0)

    def test_monte_carlo_consistency(self):
        # 20 random halfspaces, 10^6 Gaussian samples each, within 4 stderr
        rng = np.random.default_rng(2024)
        n = 4
        N = 1_000_000
        for _ in range(20):
            w = rng.standard_normal(n)
            theta = float(rng.standard_normal())
            X = rng.standard_normal((N, n))
            signs = np.where(X @ w - theta >= 0, 1.0, -1.0)
            emp = float(signs.mean())
            se = math.sqrt(max(1 - emp * emp, 1e-12) / N)
            assert abs(emp - halfspace_expectation(w, theta)) <= 4 * se


class TestLinearThresholdParams:
    def test_extraction(self):
        f = PTF(SparsePolynomial(2, {(1, 0): 2.0, (0, 1): -1.0, (0, 0): 3.0}))
        w, theta = linear_threshold_params(f)
        assert w.tolist() == [2.0, -1.0]
        assert theta == -3.0

    def test_rejects_degree_two(self):
        f = PTF(SparsePolynomial(1, {(2,): 1.0}))
        with pytest.raises(ValueError):
            linear_threshold_params(f)


class TestJson:
    def test_round_trip(self):
        f = random_ptf(RandomPolyConfig(2, 2, 5))
        g = ptf_from_json(ptf_to_json(f))
        assert g.poly.terms == f.poly.terms

    def test_kind_field_required(self):
        with pytest.raises(ValueError):
            ptf_from_json('{"num_vars": 1, "terms": []}')
