import hashlib
import itertools
import json
import math
import sys
import time
import tracemalloc

import numpy as np
import pytest

from gaussprg import designs
from gaussprg.designs import (
    _MAX_QUAD_POINTS,
    KWiseFamily,
    Quadrature1D,
    _Contraction,
    _he_values,
    _limb_split,
    _tv_tolerance,
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
from gaussprg.generator import plan


class TestPrimes:
    def test_small(self):
        assert [m for m in range(-3, 30) if is_prime(m)] == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]

    def test_next_prime(self):
        assert next_prime(40) == 41
        assert next_prime(41) == 41
        assert next_prime(123650) == 123653

    def test_large(self):
        assert is_prime(2**61 - 1)
        assert not is_prime(2**62 - 1)


def _eigen_newton_nodes(M: int) -> np.ndarray:
    """The rule that generated ``gaussprg._hermite_nodes``, for M >= 2.

    The symmetric tridiagonal Jacobi matrix of He_M (zero diagonal,
    off-diagonal sqrt(1..M-1); Golub and Welsch, Math. Comp. 1969) gives
    starting values, three Newton sweeps on He_M polish them, and the
    result is symmetrized about 0. The last bit of a node depends on the
    LAPACK build behind scipy's eigensolver, which is why the package
    reads a frozen table instead of running this.
    """
    from scipy.linalg import eigh_tridiagonal

    vals, _ = eigh_tridiagonal(np.zeros(M), np.sqrt(np.arange(1.0, M)))
    nodes = np.sort(vals)
    for _ in range(3):
        for i in range(M):
            v = _he_values(M, nodes[i])
            nodes[i] -= v[M] / (M * v[M - 1])  # He_M' = M He_{M-1}
    nodes = 0.5 * (nodes - nodes[::-1])
    if M % 2:
        nodes[M // 2] = 0.0
    return nodes


def _nodes_module_source(max_M: int) -> str:
    """The source of ``gaussprg._hermite_nodes`` for M = 2..max_M."""
    lines = [
        '"""Positive roots of He_M for M = 2..%d, ascending, as exact float reprs.' % max_M,
        "",
        "Generated by ``_nodes_module_source`` in tests/test_designs.py from",
        "``_eigen_newton_nodes`` (an eigensolver start, three Newton sweeps and",
        "symmetrization). The bits are frozen: regenerating on another LAPACK",
        "build may move last bits, which the golden digest in that file catches.",
        '"""',
        "",
        "NODES: dict[int, tuple[float, ...]] = {",
    ]
    for M in range(2, max_M + 1):
        pos = [repr(x) for x in _eigen_newton_nodes(M)[(M + 1) // 2 :].tolist()]
        one_line = f"    {M}: ({', '.join(pos)}{',' if len(pos) == 1 else ''}),"
        if len(one_line) <= 88:
            lines.append(one_line)
            continue
        lines.append(f"    {M}: (")
        row = "       "
        for lit in pos:
            if len(row) + len(lit) + 2 > 88:
                lines.append(row)
                row = "       "
            row += f" {lit},"
        lines.extend([row, "    ),"])
    lines.append("}")
    return "\n".join(lines) + "\n"


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

    def test_gauss_hermite_golden_digest(self):
        # Pins every rule plan() can use, bit for bit: the nodes and then
        # the weights of gauss_hermite(M) for M = 1..64 as <f8 bytes.
        h = hashlib.sha256()
        for M in range(1, 65):
            quad = gauss_hermite(M)
            h.update(np.ascontiguousarray(quad.nodes, dtype="<f8").tobytes())
            h.update(np.ascontiguousarray(quad.weights, dtype="<f8").tobytes())
        assert h.hexdigest() == "148730bb85efbd2b8ad8b3d3f873f91b22d53fc252d8bdd4a6f96df6226129b6"

    @pytest.mark.parametrize("M", range(2, _MAX_QUAD_POINTS + 1))
    def test_table_matches_generator(self, M):
        # Within 2 ulp, not bit for bit: the generator's last bit depends
        # on the LAPACK build. The golden digest pins the table's bits.
        nodes = gauss_hermite(M).nodes
        ref = _eigen_newton_nodes(M)
        assert np.all(np.abs(nodes - ref) <= 2 * np.spacing(np.abs(ref)))

    @pytest.mark.parametrize("M", range(1, _MAX_QUAD_POINTS + 1))
    def test_matches_numpy_hermegauss(self, M):
        # An independent oracle; the worst cases up to M = 64 are 1.8e-15
        # (nodes, absolute) and 3.4e-14 (weights, relative).
        x, w = np.polynomial.hermite_e.hermegauss(M)
        quad = gauss_hermite(M)
        assert np.max(np.abs(quad.nodes - x)) <= 1e-14
        assert np.max(np.abs(quad.weights / (w / w.sum()) - 1.0)) <= 1e-12


class TestKWiseFamily:
    def test_direct_evaluation(self):
        fam = KWiseFamily(5, 2, 5)
        assert kwise_eval(fam, (2, 3), 4) == (2 + 3 * 4) % 5

    def test_degenerate_k1(self):
        fam = KWiseFamily(7, 1, 4)
        for i in range(4):
            assert kwise_eval(fam, (5,), i) == 5

    def test_exhaustive_pair_uniform_q3(self):
        # q=3, K=2, n=2: the 9 seeds hit each pair of outputs exactly once
        fam = KWiseFamily(3, 2, 2)
        seen = {}
        for seed in itertools.product(range(3), repeat=2):
            pair = (kwise_eval(fam, seed, 0), kwise_eval(fam, seed, 1))
            seen[pair] = seen.get(pair, 0) + 1
        assert seen == {p: 1 for p in itertools.product(range(3), repeat=2)}

    def test_exhaustive_pair_uniform_q5_n4(self):
        # (q, K, n) = (5, 2, 4): all 25 seeds, every coordinate pair uniform
        fam = KWiseFamily(5, 2, 4)
        for i, j in itertools.combinations(range(4), 2):
            seen = {}
            for seed in itertools.product(range(5), repeat=2):
                pair = (kwise_eval(fam, seed, i), kwise_eval(fam, seed, j))
                seen[pair] = seen.get(pair, 0) + 1
            assert seen == {p: 1 for p in itertools.product(range(5), repeat=2)}

    # At K = 120 (the plans' order) the contraction splits symbols and
    # powers into (nS, nP) limbs (1, 1), (1, 2), (2, 3) and (3, 3). The
    # points 0..97 hold the small points 0, 1, 3 and 97 at every q.
    @pytest.mark.parametrize("q", [101, 488000017, 488000000000011, 3903999999999999013])
    def test_batch_matches_scalar(self, q):
        K, n = 120, 98
        fam = KWiseFamily(q, K, n)
        rng = np.random.default_rng(3)
        seeds = np.vstack([np.full((1, K), q - 1), rng.integers(0, q, size=(20, K), dtype=np.int64)])
        vals = kwise_eval_batch(fam, seeds)
        assert vals.dtype == np.int64 and vals.shape == (21, n)
        for b in range(21):
            for i in range(n):
                assert vals[b, i] == kwise_eval(fam, seeds[b], i)

    @pytest.mark.parametrize(
        "seeds",
        [
            np.array([[1, -1]]),
            np.array([[5, 0]]),
            np.array([[0, 0], [2**63 - 1, 0]]),
            np.array([[0, 2**64 - 1]], dtype=np.uint64),
            np.array([[0.0, np.nan]]),
            np.array([[1, 2**70]], dtype=object),
            np.array([[1.5, 0.0]]),
            np.array([[0, 2.25]], dtype=object),
        ],
    )
    def test_batch_rejects_seeds_outside_field(self, seeds):
        fam = KWiseFamily(5, 2, 4)
        with pytest.raises(ValueError, match=r"\[0, q\)"):
            kwise_eval_batch(fam, seeds)

    def test_modulus_above_two_to_62(self):
        q = next_prime(2**62)
        with pytest.raises(ValueError, match="2\\^62"):
            KWiseFamily(q, 2, 2)

    @pytest.mark.parametrize("q", [101, 488000017, 3903999999999999013])
    def test_power_table_is_exact(self, q):
        # q of plan(4,1,3,5e-6,2): x*(q-1) overflows int64 from x = 3 on.
        # Row i*K + t of the limb table, its nP column blocks of b-bit limbs
        # recombined, is (x^t << a*i) mod q at each point x.
        points = (0, 1, 3, 97)
        table = _Contraction(q, 120, points).table
        nS, a, nP, b = _limb_split(120, q)
        for i, t in itertools.product(range(nS), range(120)):
            limbs = table[i * 120 + t].reshape(nP, 4).astype(np.uint64).tolist()
            got = [sum(limbs[j][c] << (b * j) for j in range(nP)) for c in range(4)]
            assert got == [(pow(x, t, q) << (a * i)) % q for x in points]

    def test_errors(self):
        fam = KWiseFamily(5, 2, 4)
        with pytest.raises(ValueError):
            kwise_eval(fam, (1, 2), 4)
        with pytest.raises(ValueError):
            kwise_eval(fam, (1,), 0)
        with pytest.raises(ValueError, match=r"\[0, q\)"):
            kwise_eval(fam, (1.5, 0), 0)
        with pytest.raises(ValueError):
            KWiseFamily(6, 2, 4)  # composite modulus
        with pytest.raises(ValueError):
            KWiseFamily(3, 2, 4)  # n > q


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

    def test_budget_nan(self):
        # NaN failed "<= 0" and reached math.ceil, which named no argument.
        with pytest.raises(ValueError, match="^tv_budget must be positive$"):
            build_sampler(3, 4, 2, tv_budget=math.nan)

    def test_gaps(self):
        s = build_sampler(3, 4, 2, tv_budget=0.06)
        assert s.gaps.dtype == np.int64
        assert s.gaps.tolist() == [int(b - a) for a, b in zip([0, *s.thresholds.tolist()], s.thresholds.tolist())]
        assert s.gaps.sum() == s.q
        assert np.array_equal(s.atom_probs, s.gaps / s.q)

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

    def test_design_sample_batch_golden_digest(self):
        # SHA-256 of the little-endian float64 rows of 200 seeds drawn from
        # one Philox stream
        s = build_sampler(3, 4, 5, tv_budget=0.01)
        rng = np.random.Generator(np.random.Philox(key=11))
        seeds = rng.integers(0, s.q, size=(200, 4), dtype=np.int64)
        rows = design_sample_batch(s, seeds)
        digest = hashlib.sha256(np.ascontiguousarray(rows, dtype="<f8").tobytes()).hexdigest()
        assert digest == "c0264dd51dbb2508b9fb2e7042630a8c61135e1f1d21f0a2ef55db3616cee582"

    @pytest.mark.parametrize(
        "sampler",
        [
            build_sampler(2, 2, 1, tv_budget=2 / 101),
            build_sampler(3, 4, 5, tv_budget=0.01),  # q = 307
            build_sampler(3, 4, 2, tv_budget=3 / 211),
            plan(8, 1, 2, 0.25, 200).sampler,  # q = 123653, 46 atoms, 20 drawn
            plan(4, 1, 3, 1e-4, 2).sampler,  # q ~ 4.9e14, split buckets
            plan(4, 1, 3, 5e-6, 2).sampler,  # q ~ 3.9e18
        ],
        ids=lambda s: f"q{s.q}",
    )
    def test_design_sample_matches_batch(self, sampler, monkeypatch):
        # design_sample is the reference for design_sample_batch, so with the
        # batch stages broken it still gives the batch rows.
        rng = np.random.default_rng(sampler.q % 1000)
        seeds = rng.integers(0, sampler.q, size=(40, sampler.family.k), dtype=np.int64)
        seeds[0], seeds[1] = 0, sampler.q - 1
        rows = design_sample_batch(sampler, seeds)

        def broken(*_args, **_kwargs):
            raise AssertionError("batch stage called")

        monkeypatch.setattr(designs._Contraction, "__call__", broken)
        monkeypatch.setattr(designs._AtomLookup, "__call__", broken)
        monkeypatch.setattr(np, "searchsorted", broken)
        for seed, row in zip(seeds, rows):
            assert design_sample(sampler, seed).tobytes() == row.tobytes()

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
        with pytest.raises(ValueError, match=r"\[0, q\)"):
            design_sample(s, (1.5, 0))


_Q101 = KWiseFamily(101, 2, 2)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: gaussian_moment(-1), "^j must be non-negative$"),
        (lambda: Quadrature1D(np.array([0.0, 1.0]), np.array([1.0])), "^nodes and weights must be equal-length"),
        (lambda: Quadrature1D(np.array([]), np.array([])), "^nodes and weights must be equal-length"),
        (lambda: Quadrature1D(np.array([0.0, 1.0]), np.array([1.0, 0.0])), "^weights must be strictly positive$"),
        (lambda: KWiseFamily(5, 0, 4), "^independence order k must be >= 1$"),
        (lambda: kwise_eval_batch(_Q101, np.zeros((3, 3), dtype=np.int64)), r"^seeds must have shape \(B, 2\)$"),
        (lambda: kwise_eval_batch(_Q101, np.zeros(2, dtype=np.int64)), r"^seeds must have shape \(B, 2\)$"),
        (lambda: thresholds_from_weights(np.full(4, 0.25), 3), "^q=3 is too coarse for 4 atoms$"),
        # 4 * (q - 1)^2 >= 2^53 at q = 3 * 10^9
        (lambda: design_sample_batch_f64(build_sampler(3, 4, 4, 1e-9), np.zeros((1, 4))),
         "^q too large for the exact float64 contraction$"),
    ],
)
def test_argument_errors(call, message):
    with pytest.raises(ValueError, match=message):
        call()


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


def _enumerated_values(family: KWiseFamily, x: int) -> np.ndarray:
    """Values at point x over all q^k seeds, one seed at a time."""
    q = family.q
    vals = np.zeros(1, dtype=np.int64)
    for t in range(family.k):
        step = (np.arange(q, dtype=np.int64) * pow(x, t, q)) % q
        vals = ((vals[None, :] + step[:, None]) % q).ravel()
    return vals


def _enumerated_tables(family: KWiseFamily, x0: int, x1: int):
    """Marginal count tables at points x0 and x1 and their pair table."""
    q = family.q
    v0, v1 = _enumerated_values(family, x0), _enumerated_values(family, x1)
    pair = np.bincount(v0 * q + v1, minlength=q * q).reshape(q, q)
    return np.bincount(v0, minlength=q), np.bincount(v1, minlength=q), pair


def _small_families():
    """Every (q <= 13, k <= 4) family with q^k <= 3*10^5, at its n = q
    points, with point pairs that include 0 and q - 1."""
    for q in (2, 3, 5, 7, 11, 13):
        for k in range(1, 5):
            assert q**k <= 3 * 10**5
            pairs = {(0, q - 1), (q - 1, 0), (1, q - 1), (q - 1, q // 2)}
            for pts in sorted(p for p in pairs if p[0] != p[1]):
                yield pytest.param(KWiseFamily(q, k, q), pts, id=f"q{q}-k{k}-{list(pts)}")


class TestSeedSpaceCounts:
    # Exhaustive moments read the design's law from the thresholds alone:
    # every value of the family is uniform on F_q and, for k >= 2, every
    # pair of values is uniform on F_q^2. Enumerating the q^k seeds checks
    # that identity.
    @staticmethod
    def _assert_uniform(family, points=(0, 1)):
        q, k = family.q, family.k
        counts0, counts1, pair = _enumerated_tables(family, *points)
        assert np.all(counts0 == q ** (k - 1)) and np.all(counts1 == q ** (k - 1))
        if k >= 2:
            assert np.all(pair == q ** (k - 2))
        else:
            # a constant polynomial: both points read the seed
            assert np.array_equal(pair, np.eye(q, dtype=np.int64))

    @pytest.mark.parametrize("family, points", list(_small_families()))
    def test_matches_enumeration(self, family, points):
        self._assert_uniform(family, points)

    def test_q53_k4_pair_table(self):
        # the checks-gauss exhaustive sampler
        family = build_sampler(3, 4, 2, tv_budget=0.06).family
        assert family.q == 53 and family.k == 4
        self._assert_uniform(family)


def _all_passed(rows) -> bool:
    return all(row["passed"] == 1 for row in rows)


class TestVerifyMoments:
    def test_exhaustive_small(self):
        s = build_sampler(3, 4, 2, tv_budget=0.06)
        assert s.q == 53
        rows = verify_moments(s, max_order=4, mode="exhaustive")
        assert _all_passed(rows)
        by_scope = {(r["scope"], r["orders"]): r for r in rows}
        # symmetric sampler: odd orders vanish identically
        assert by_scope[("coord 0", "1")]["empirical"] == 0.0
        assert by_scope[("coord 0", "3")]["empirical"] == 0.0
        # order-4 moment within the TV-propagated bound of 3
        c4 = by_scope[("coord 0", "4")]
        assert abs(c4["empirical"] - 3.0) <= c4["tolerance"]
        # pairwise independence: cross product moment near 0
        c11 = by_scope[("cross (0,1)", "1x1")]
        assert abs(c11["empirical"]) <= 2 * max(np.abs(s.quadrature.nodes)) ** 2 * s.tv_bound

    @pytest.mark.parametrize("M, K, tv", [(7, 2, 0.05), (7, 3, 0.05), (6, 2, 0.06)])
    def test_exhaustive_atoms_with_empty_intervals(self, M, K, tv):
        # the outermost atoms get no field values at these q; the pair
        # moments must still come out of the exact atom law
        s = build_sampler(M, K, 2, tv_budget=tv)
        gaps = np.diff(np.concatenate(([0], s.thresholds)))
        assert gaps[0] == gaps[-1] == 0
        rows = verify_moments(s, 4, mode="exhaustive")
        _, _, pair = _enumerated_tables(s.family, 0, 1)
        atom_of = np.searchsorted(s.thresholds, np.arange(s.q), side="right")
        atom_pair = np.zeros((M, M))
        np.add.at(atom_pair, (atom_of[:, None], atom_of[None, :]), pair / s.q**K)
        nodes = s.quadrature.nodes
        c11 = next(r for r in rows if r["orders"] == "1x1")
        assert c11["empirical"] == pytest.approx(float(nodes @ atom_pair @ nodes), abs=1e-12)
        assert _all_passed(rows)

    def test_exhaustive_cap(self):
        # Exhaustive mode has no cap on q or k: its cost is O(M^2).
        s = build_sampler(3, 4, 2, tv_budget=0.01)
        assert s.q == 307
        assert _all_passed(verify_moments(s, 4, mode="exhaustive"))
        for k in (8, 9):  # 211^9 > 2^63
            assert _all_passed(verify_moments(build_sampler(3, k, 2, 3 / 211), 4))
        s = build_sampler(3, 2, 2, tv_budget=3 / 3200)
        assert s.q == 3203
        assert _all_passed(verify_moments(s, 4))
        # the acceptance plans, up to q = 4.9e14 at K = 120
        for args in [(8, 1, 2, 0.25, 200), (8, 1, 2, 0.2, 200), (4, 1, 3, 0.01, 2), (4, 1, 3, 1e-4, 2)]:
            assert _all_passed(verify_moments(plan(*args).sampler, 8))

    def test_mc_mode(self):
        s = build_sampler(3, 4, 2, tv_budget=3 / 211)
        assert _all_passed(verify_moments(s, max_order=4, mode="mc", n_samples=200_000, rng_seed=7))

    # M, K, n, tv_budget and max_order: the benchmark's sampler, one
    # coordinate (no cross checks), and five coordinates of which only two
    # are kept, with orders up to 6.
    @pytest.mark.parametrize(
        "args", [(3, 4, 2, 3 / 211, 4), (3, 4, 1, 3 / 211, 4), (4, 4, 5, 4 / 211, 6)]
    )
    # 2 seeds, one full unit, a one-seed last unit, three units
    @pytest.mark.parametrize("n_samples", [2, 25_000, 25_001, 60_001])
    def test_mc_matches_one_batch(self, args, n_samples):
        # Reference: one integers() draw and one design_sample_batch over
        # every seed, with each statistic on an array of its own.
        *build, max_order = args
        s = build_sampler(*build)
        k = s.family.k
        rng = np.random.Generator(np.random.Philox(key=11))
        Y = design_sample_batch(s, rng.integers(0, s.q, size=(n_samples, k), dtype=np.int64))
        want = []
        for i in range(min(s.n, 2)):
            col = np.ascontiguousarray(Y[:, i])
            powers = col
            for j in range(1, max_order + 1):
                if j > 1:
                    powers = powers * col
                want.append((f"coord {i}", (j,), powers))
        if s.n >= 2:
            want.append(("cross (0,1)", (1, 1), Y[:, 0] * Y[:, 1]))
            want.append(("cross (0,1)", (2, 2), Y[:, 0] ** 2 * Y[:, 1] ** 2))
        rows = verify_moments(s, max_order, mode="mc", n_samples=n_samples, rng_seed=11)
        assert len(rows) == len(want)
        for row, (scope, orders, values) in zip(rows, want):
            se = float(values.std(ddof=1) / math.sqrt(n_samples))
            assert (row["scope"], row["orders"]) == (scope, "x".join(map(str, orders)))
            assert row["empirical"] == float(values.mean())
            assert row["tolerance"] == _tv_tolerance(s, orders) + 4.0 * se

    def test_mc_memory_per_sample(self):
        # The draw runs in 25,000-seed units and keeps coordinates 0 and 1
        # only: two rows, one scratch row and std's temporary, 32 bytes per
        # sample. Building the whole (n_samples, k) seed batch and its
        # (n_samples, n) intermediates at once took 88.
        s = build_sampler(3, 4, 2, tv_budget=3 / 211)
        n_samples = 400_000
        tracemalloc.start()
        try:
            verify_moments(s, 4, mode="mc", n_samples=n_samples)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / n_samples < 48

    @pytest.mark.parametrize("n", [16, 64])
    def test_mc_report_independent_of_n(self, n):
        # Only coordinates 0 and 1 are checked, and q = 211 for every n
        # here, so more coordinates must not change a report row.
        def rows(n):
            s = build_sampler(3, 4, n, tv_budget=3 / 211)
            assert s.q == 211
            return verify_moments(s, 4, mode="mc", n_samples=60_001, rng_seed=5)

        assert rows(n) == rows(2)

    @pytest.mark.parametrize("mode", ["exhaustive", "mc"])
    def test_max_order_beyond_rule(self, mode):
        # The 3-point rule matches orders up to 5, so any larger max_order
        # gives the rows of 5, and orders are not walked up to max_order:
        # 10^12 of them would run for hours.
        s = build_sampler(3, 4, 2, tv_budget=0.06)
        rows = verify_moments(s, 5, mode=mode, n_samples=1000)
        start = time.perf_counter()
        assert verify_moments(s, 10**12, mode=mode, n_samples=1000) == rows
        assert time.perf_counter() - start < 0.5
        assert len(rows) == 12

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

    def test_mc_samples_cap(self, monkeypatch):
        # 2^25 samples is the most Monte-Carlo mode draws: about 1 GiB at
        # 32 bytes per sample. The draw itself is stubbed out: the cap passes
        # 2^25 on to it and rejects more before anything of size n_samples
        # is made.
        class Drawn(Exception):
            pass

        def drawn(*args):
            raise Drawn

        s = build_sampler(3, 4, 2, tv_budget=0.06)
        monkeypatch.setattr(designs, "KWiseFamily", drawn)
        with pytest.raises(Drawn):
            verify_moments(s, 4, mode="mc", n_samples=2**25)
        for n_samples in (2**25 + 1, 10**12):
            message = rf"^n_samples must be <= 33554432 for Monte-Carlo moments, got {n_samples}$"
            with pytest.raises(ValueError, match=message):
                verify_moments(s, 4, mode="mc", n_samples=n_samples)

    def test_unknown_mode(self):
        s = build_sampler(2, 2, 2, tv_budget=0.05)
        with pytest.raises(ValueError):
            verify_moments(s, 2, mode="bogus")


if __name__ == "__main__":
    # PYTHONPATH=src python tests/test_designs.py > src/gaussprg/_hermite_nodes.py
    sys.stdout.write(_nodes_module_source(_MAX_QUAD_POINTS))
