import itertools
import json
import math

import numpy as np
import pytest

from gaussprg.designs import (
    KWiseFamily,
    _power_table,
    _seed_space_counts,
    build_sampler,
    design_sample,
    design_sample_batch,
    design_sample_batch_f64,
    gauss_hermite,
    gaussian_moment,
    is_prime,
    kwise_eval,
    kwise_eval_batch,
    next_prime,
    sampler_to_json,
    seed_bits,
    thresholds_from_weights,
    verify_moments,
)


class TestPrimes:
    def test_small(self):
        assert [m for m in range(2, 30) if is_prime(m)] == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]

    def test_next_prime(self):
        assert next_prime(40) == 41
        assert next_prime(41) == 41
        assert next_prime(123650) == 123653

    def test_large(self):
        assert is_prime(2**61 - 1)
        assert not is_prime(2**62 - 1)


class TestGaussHermite:
    def test_one_point(self):
        quad = gauss_hermite(1)
        assert quad.nodes.tolist() == [0.0]
        assert quad.weights.tolist() == [1.0]

    def test_two_points(self):
        quad = gauss_hermite(2)
        assert quad.nodes == pytest.approx([-1.0, 1.0], abs=1e-12)
        assert quad.weights == pytest.approx([0.5, 0.5], abs=1e-12)

    def test_three_points(self):
        quad = gauss_hermite(3)
        root = math.sqrt(3.0)
        assert quad.nodes == pytest.approx([-root, 0.0, root], abs=1e-12)
        assert quad.weights == pytest.approx([1 / 6, 2 / 3, 1 / 6], abs=1e-12)
        # fourth moment comes out as 2 * (1/6) * 9 = 3
        assert float(quad.weights @ quad.nodes**4) == pytest.approx(3.0, abs=1e-12)

    @pytest.mark.parametrize("M", range(1, 9))
    def test_exactness_up_to_2M_minus_1(self, M):
        quad = gauss_hermite(M)
        for j in range(2 * M):
            got = float(quad.weights @ quad.nodes**j)
            assert abs(got - gaussian_moment(j)) <= 1e-9

    def test_symmetry_exact(self):
        for M in range(1, 12):
            quad = gauss_hermite(M)
            assert np.array_equal(quad.nodes, -quad.nodes[::-1])
            assert np.array_equal(quad.weights, quad.weights[::-1])

    def test_weights_sum_to_one(self):
        for M in range(1, 20):
            assert abs(gauss_hermite(M).weights.sum() - 1.0) <= 1e-12

    def test_range_check(self):
        with pytest.raises(ValueError):
            gauss_hermite(0)
        with pytest.raises(ValueError):
            gauss_hermite(65)


class TestKWiseFamily:
    def test_direct_evaluation(self):
        fam = KWiseFamily.standard(5, 2, 5)
        assert kwise_eval(fam, (2, 3), 4) == (2 + 3 * 4) % 5

    def test_degenerate_k1(self):
        fam = KWiseFamily.standard(7, 1, 4)
        for i in range(4):
            assert kwise_eval(fam, (5,), i) == 5

    def test_exhaustive_pair_uniform_q3(self):
        # q=3, K=2, n=2: the 9 seeds hit each pair of outputs exactly once
        fam = KWiseFamily.standard(3, 2, 2)
        seen = {}
        for seed in itertools.product(range(3), repeat=2):
            pair = (kwise_eval(fam, seed, 0), kwise_eval(fam, seed, 1))
            seen[pair] = seen.get(pair, 0) + 1
        assert seen == {p: 1 for p in itertools.product(range(3), repeat=2)}

    def test_exhaustive_pair_uniform_q5_n4(self):
        # (q, K, n) = (5, 2, 4): all 25 seeds, every coordinate pair uniform
        fam = KWiseFamily.standard(5, 2, 4)
        for i, j in itertools.combinations(range(4), 2):
            seen = {}
            for seed in itertools.product(range(5), repeat=2):
                pair = (kwise_eval(fam, seed, i), kwise_eval(fam, seed, j))
                seen[pair] = seen.get(pair, 0) + 1
            assert seen == {p: 1 for p in itertools.product(range(5), repeat=2)}

    def test_batch_matches_scalar(self):
        fam = KWiseFamily.standard(101, 4, 7)
        rng = np.random.default_rng(3)
        seeds = rng.integers(0, 101, size=(20, 4), dtype=np.int64)
        vals = kwise_eval_batch(fam, seeds)
        for b in range(20):
            for i in range(7):
                assert vals[b, i] == kwise_eval(fam, seeds[b], i)

    @pytest.mark.parametrize("q", [101, 488000017, 3903999999999999013])
    def test_power_table_is_exact(self, q):
        # q of plan(4,1,3,5e-6,2): x*(q-1) overflows int64 from x = 3 on
        fam = KWiseFamily(q, 120, 4, np.array([0, 1, 3, 97]))
        want = [[pow(x, t, q) for x in (0, 1, 3, 97)] for t in range(120)]
        assert _power_table(fam).tolist() == want

    def test_errors(self):
        fam = KWiseFamily.standard(5, 2, 4)
        with pytest.raises(ValueError):
            kwise_eval(fam, (1, 2), 4)
        with pytest.raises(ValueError):
            kwise_eval(fam, (1,), 0)
        with pytest.raises(ValueError):
            KWiseFamily.standard(6, 2, 4)  # composite modulus
        with pytest.raises(ValueError):
            KWiseFamily.standard(3, 2, 4)  # n > q


class TestThresholds:
    def test_spec_examples(self):
        # equal weights must reproduce the documented partitions
        assert thresholds_from_weights(np.array([0.5, 0.5]), 101).tolist() == [50, 101]
        assert thresholds_from_weights(np.array([0.5, 0.5]), 41).tolist() == [20, 41]

    def test_single_atom(self):
        assert thresholds_from_weights(np.array([1.0]), 7).tolist() == [7]

    def test_proportionality_within_one_unit(self):
        for M in range(1, 9):
            quad = gauss_hermite(M)
            for q in (101, 997, 10007):
                th = thresholds_from_weights(quad.weights, q)
                gaps = np.diff(np.concatenate(([0], th)))
                assert np.all(np.abs(gaps - quad.weights * q) <= 1.0 + 1e-9)

    def test_odd_atom_count_symmetric(self):
        for M in (1, 3, 5, 7):
            quad = gauss_hermite(M)
            th = thresholds_from_weights(quad.weights, 997)
            gaps = np.diff(np.concatenate(([0], th)))
            assert np.array_equal(gaps, gaps[::-1])

    def test_cumulative_cutoffs_track_weights(self):
        # cutoffs stay within one unit of the exact cumulative weights, so
        # the per-coordinate statistical distance is at most M/q
        for M in range(1, 9):
            quad = gauss_hermite(M)
            for q in (41, 101, 997, 10007):
                th = thresholds_from_weights(quad.weights, q)
                cum = np.cumsum(quad.weights) * q
                assert np.max(np.abs(th - cum)) < 1.0

    @pytest.mark.parametrize("q", [488000000000011, 2**53 + 5, 487999999999999901, 3903999999999999013])
    def test_exact_gaps_at_any_q(self, q):
        # above 2^53 float products w*q lose the exact gap sum; the gaps
        # must still partition [0, q), stay symmetric and keep every gap
        # within one unit of its exact target
        from fractions import Fraction

        quad = gauss_hermite(61)
        th = thresholds_from_weights(quad.weights, q)
        assert int(th[-1]) == q
        gaps = [int(g) for g in np.diff(np.concatenate(([0], th)))]
        assert gaps == gaps[::-1]
        exact = [Fraction(w) for w in quad.weights.tolist()]
        total = sum(exact)
        assert all(abs(g - w * q / total) <= 1 for g, w in zip(gaps, exact))

    def test_malformed_weights_raise_value_error(self):
        # weights summing to 0.2 cannot be spread over q units
        with pytest.raises(ValueError):
            thresholds_from_weights(np.array([0.1, 0.1]), 11)


class TestBuildSampler:
    def test_q_selection_example(self):
        s = build_sampler(2, 2, 4, tv_budget=0.05)
        assert s.q == 41
        assert s.thresholds.tolist() == [20, 41]
        assert s.tv_bound <= 2 / 41 + 1e-15

    def test_tv_budget_one(self):
        s = build_sampler(1, 2, 4, tv_budget=1.0)
        assert s.q == next_prime(5)
        assert s.thresholds.tolist() == [s.q]

    def test_exact_tv_below_bound(self):
        for M, K, n, tv in [(2, 2, 1, 2 / 101), (3, 4, 2, 0.06), (8, 4, 3, 1e-3)]:
            s = build_sampler(M, K, n, tv)
            assert s.exact_tv <= s.tv_bound <= tv + 1e-15

    def test_budget_infeasible(self):
        with pytest.raises(ValueError):
            build_sampler(4, 2, 2, tv_budget=1e-19)

    def test_json_fields(self):
        s = build_sampler(3, 4, 2, tv_budget=0.06)
        obj = json.loads(sampler_to_json(s))
        assert obj["q"] == 53 and obj["K"] == 4 and obj["n"] == 2
        assert obj["seed_bits"] == seed_bits(s)
        assert len(obj["nodes"]) == 3 and obj["thresholds"][-1] == 53


class TestDesignSample:
    def test_threshold_mapping_example(self):
        s = build_sampler(2, 2, 1, tv_budget=2 / 101)
        assert s.q == 101
        assert s.thresholds.tolist() == [50, 101]
        fam = s.family
        # seeds (v, 0) make coordinate 0 evaluate to v
        assert design_sample(s, (12, 0))[0] == -1.0
        assert design_sample(s, (77, 0))[0] == 1.0
        assert design_sample(s, (50, 0))[0] == 1.0  # boundary goes right

    def test_determinism(self):
        s = build_sampler(3, 4, 5, tv_budget=0.06)
        a = design_sample(s, (7, 11, 13, 17))
        b = design_sample(s, (7, 11, 13, 17))
        assert np.array_equal(a, b)

    def test_batch_f64_matches_int(self):
        s = build_sampler(3, 4, 4, tv_budget=0.01)
        rng = np.random.default_rng(0)
        seeds = rng.integers(0, s.q, size=(200, 4), dtype=np.int64)
        a = design_sample_batch(s, seeds)
        b = design_sample_batch_f64(s, seeds.astype(np.float64))
        assert np.array_equal(a, b)

    def test_exhaustive_second_moment_q101(self):
        # M=2, q=101, n=1, K=2: enumerate all 101^2 seeds
        s = build_sampler(2, 2, 1, tv_budget=2 / 101)
        total = 0.0
        count = 0
        for seed in itertools.product(range(101), repeat=2):
            y = design_sample(s, seed)[0]
            total += y * y
            count += 1
        emp = total / count
        assert abs(emp - 1.0) <= 2 * s.tv_bound

    def test_seed_validation(self):
        s = build_sampler(2, 2, 1, tv_budget=0.05)
        with pytest.raises(ValueError):
            design_sample(s, (1,))
        with pytest.raises(ValueError):
            design_sample(s, (1, s.q))


class TestSeedBits:
    def test_formula(self):
        s = build_sampler(2, 4, 4, tv_budget=2 / 17)
        assert s.q == 17
        # widened blocks: ceil(log2 17) + 16 = 21 bits per symbol
        assert s.block_bits == 5 + 16
        assert seed_bits(s) == 4 * 21

    def test_minimal_modulus(self):
        s = build_sampler(1, 1, 1, tv_budget=1.0)
        assert s.q == 2
        assert seed_bits(s) == 1 + 16

    def test_linear_in_k(self):
        a = build_sampler(2, 3, 4, tv_budget=0.05)
        b = build_sampler(2, 6, 4, tv_budget=0.05)
        assert seed_bits(b) == 2 * seed_bits(a)


def _enumerated_values(family: KWiseFamily, i: int) -> np.ndarray:
    """Values at point i over all q^k seeds, one seed at a time."""
    q = family.q
    x = int(family.eval_points[i])
    vals = np.zeros(1, dtype=np.int64)
    for t in range(family.k):
        step = (np.arange(q, dtype=np.int64) * pow(x, t, q)) % q
        vals = ((vals[None, :] + step[:, None]) % q).ravel()
    return vals


def _enumerated_tables(family: KWiseFamily):
    """Marginal count tables at points 0 and 1 and their pair table."""
    q = family.q
    v0, v1 = _enumerated_values(family, 0), _enumerated_values(family, 1)
    pair = np.bincount(v0 * q + v1, minlength=q * q).reshape(q, q)
    return np.bincount(v0, minlength=q), np.bincount(v1, minlength=q), pair


def _line_sums(steps, q: int) -> np.ndarray:
    """Count table of sum_t s_t * steps[t] by direct sums over each line."""
    m = len(steps[0])
    table = np.zeros((q,) * m, dtype=np.int64)
    table[(0,) * m] = 1
    for step in steps:
        table = sum(np.roll(table, [s * a for a in step], axis=tuple(range(m))) for s in range(q))
    return table


def _small_families():
    """Every (q <= 13, k <= 4) family with q^k <= 3*10^5 at point pairs that
    include 0 and q - 1."""
    for q in (2, 3, 5, 7, 11, 13):
        for k in range(1, 5):
            assert q**k <= 3 * 10**5
            pairs = {(0, q - 1), (q - 1, 0), (1, q - 1), (q - 1, q // 2)}
            for pts in sorted(p for p in pairs if p[0] != p[1]):
                yield KWiseFamily(q, k, 2, np.array(pts))


class TestSeedSpaceCounts:
    @pytest.mark.parametrize(
        "family", list(_small_families()), ids=lambda f: f"q{f.q}-k{f.k}-{f.eval_points.tolist()}"
    )
    def test_matches_enumeration(self, family):
        counts0, counts1, pair = _enumerated_tables(family)
        powers = _power_table(family)
        assert np.array_equal(_seed_space_counts(powers[:, :1], family.q), counts0)
        assert np.array_equal(_seed_space_counts(powers[:, 1:], family.q), counts1)
        assert np.array_equal(_seed_space_counts(powers, family.q), pair)

    def test_q53_k4_pair_table(self):
        family = build_sampler(3, 4, 2, tv_budget=0.06).family
        assert family.q == 53 and family.k == 4
        counts0, counts1, pair = _enumerated_tables(family)
        got = _seed_space_counts(_power_table(family), 53)
        assert got.dtype == np.int64 and got.sum() == 53**4
        assert np.array_equal(got, pair)
        assert np.array_equal(_seed_space_counts(_power_table(family)[:, :1], 53), counts0)

    @pytest.mark.parametrize("q", [2, 3, 5, 7])
    def test_random_steps_match_line_sums(self, q):
        # steps with many zero entries hit every branch: both zero, one
        # zero (either axis) and a shear
        rng = np.random.default_rng(q)
        for _ in range(50):
            k = int(rng.integers(1, 5))
            m = int(rng.integers(1, 3))
            steps = rng.integers(0, q, size=(k, m)) * (rng.random((k, m)) < 0.6)
            want = _line_sums(steps.tolist(), q)
            assert np.array_equal(_seed_space_counts(steps, q), want), steps.tolist()


class TestVerifyMoments:
    def test_exhaustive_small(self):
        s = build_sampler(3, 4, 2, tv_budget=0.06)
        assert s.q == 53
        report = verify_moments(s, max_order=4, mode="exhaustive")
        assert report.mode == "exhaustive"
        assert report.n_evaluated == 53**4
        assert report.passed
        by_scope = {(c.scope, c.orders): c for c in report.checks}
        # symmetric sampler: odd orders vanish identically
        assert by_scope[("coord 0", (1,))].empirical == 0.0
        assert by_scope[("coord 0", (3,))].empirical == 0.0
        # order-4 moment within the TV-propagated bound of 3
        c4 = by_scope[("coord 0", (4,))]
        assert abs(c4.empirical - 3.0) <= c4.tolerance
        # pairwise independence: cross product moment near 0
        c11 = by_scope[("cross (0,1)", (1, 1))]
        assert abs(c11.empirical) <= 2 * max(np.abs(s.quadrature.nodes)) ** 2 * s.tv_bound

    @pytest.mark.parametrize("M, K, tv", [(7, 2, 0.05), (7, 3, 0.05), (6, 2, 0.06)])
    def test_exhaustive_atoms_with_empty_intervals(self, M, K, tv):
        # the outermost atoms get no field values at these q; the pair
        # moments must still come out of the exact atom law
        s = build_sampler(M, K, 2, tv_budget=tv)
        gaps = np.diff(np.concatenate(([0], s.thresholds)))
        assert gaps[0] == gaps[-1] == 0
        report = verify_moments(s, 4, mode="exhaustive")
        _, _, pair = _enumerated_tables(s.family)
        atom_of = np.searchsorted(s.thresholds, np.arange(s.q), side="right")
        atom_pair = np.zeros((M, M))
        np.add.at(atom_pair, (atom_of[:, None], atom_of[None, :]), pair / s.q**K)
        nodes = s.quadrature.nodes
        c11 = next(c for c in report.checks if c.orders == (1, 1))
        assert c11.empirical == pytest.approx(float(nodes @ atom_pair @ nodes), abs=1e-12)
        assert report.passed

    def test_exhaustive_cap(self):
        s = build_sampler(3, 4, 2, tv_budget=3 / 211)
        assert s.q == 211
        with pytest.raises(ValueError):
            verify_moments(s, 4, mode="exhaustive")

    def test_mc_mode(self):
        s = build_sampler(3, 4, 2, tv_budget=3 / 211)
        report = verify_moments(s, max_order=4, mode="mc", n_samples=200_000, rng_seed=7)
        assert report.mode == "mc"
        assert report.passed

    @pytest.mark.parametrize("max_order", [0, -1])
    @pytest.mark.parametrize("mode", ["exhaustive", "mc"])
    def test_max_order_below_one(self, mode, max_order):
        s = build_sampler(3, 4, 2, tv_budget=0.06)
        with pytest.raises(ValueError, match="max_order must be >= 1"):
            verify_moments(s, max_order, mode=mode, n_samples=100)

    @pytest.mark.parametrize("n_samples", [1, 0, -5])
    def test_mc_samples_below_two(self, n_samples):
        s = build_sampler(3, 4, 2, tv_budget=0.06)
        with pytest.raises(ValueError, match="n_samples must be >= 2"):
            verify_moments(s, 4, mode="mc", n_samples=n_samples)

    def test_unknown_mode(self):
        s = build_sampler(2, 2, 2, tv_budget=0.05)
        with pytest.raises(ValueError):
            verify_moments(s, 2, mode="bogus")
