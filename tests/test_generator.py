import json
import math

import numpy as np
import pytest

from gaussprg import designs, generator
from gaussprg._bits import derive_key, stream_bytes
from gaussprg.designs import seed_bits
from gaussprg.generator import (
    blend_weights,
    config_to_json,
    plan,
    sample,
    sample_batch,
    seed_breakdown,
    total_seed_bits,
)


class TestPlan:
    def test_chain_length_example(self):
        # eps = 0.001, k = 2, d = 1: ell = ceil(100 * ln(1000^6)) = 4145
        cfg = plan(4, 1, 2, 0.001, ell_cap=10**6)
        assert cfg.ell_formula == 4145
        assert cfg.ell == 4145
        assert cfg.delta == pytest.approx(0.1, rel=1e-12)
        assert abs(cfg.delta**3 - cfg.epsilon) <= 1e-12

    def test_design_order(self):
        cfg = plan(4, 1, 2, 0.25, ell_cap=50)
        assert cfg.kwise_order == 90
        assert cfg.sampler.M == 46

    def test_cap_semantics(self):
        full = plan(4, 1, 2, 0.001, ell_cap=10**6)
        capped = plan(4, 1, 2, 0.001, ell_cap=10)
        assert capped.ell == 10
        assert capped.truncated
        assert not full.truncated

    def test_tv_budget(self):
        cfg = plan(8, 1, 2, 0.25, ell_cap=200)
        assert cfg.tv_budget == pytest.approx(0.25**2 / (8 * cfg.ell), rel=1e-12)
        assert cfg.sampler.tv_bound <= cfg.tv_budget

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            plan(4, 1, 2, 1.5)
        with pytest.raises(ValueError):
            plan(4, 0, 2, 0.5)
        with pytest.raises(ValueError):
            plan(4, 1, 2, 1e-120)  # ell astronomically large, no cap
        with pytest.raises(ValueError):
            plan(4, 1, 2, 0.25, ell_cap="50")
        with pytest.raises(ValueError, match="^ell_cap must be >= 1$"):
            plan(4, 1, 2, 0.25, ell_cap=0)

    @pytest.mark.parametrize("ell_cap", [None, 2])
    def test_chain_overflow(self, ell_cap):
        # No cap rescues a chain past 2^62: its budget epsilon^k / (n ell)
        # would need a prime beyond 2^62.
        with pytest.raises(ValueError, match="^chain length overflows$"):
            plan(2, 1, 1, 1e-300, ell_cap)

    @pytest.mark.parametrize(
        "args, name",
        [((2, 1.5, 1, 0.5, 3), "d"), ((2, 1, 1.5, 0.5, 3), "k"), (("2", 1, 1, 0.5, 3), "n"),
         ((2.0, 1, 1, 0.5, 3), "n")],
    )
    def test_non_integer_n_d_k(self, args, name):
        # 1.5 and "2" raised TypeError; 2.0 was accepted as a float n.
        with pytest.raises(ValueError, match=f"^{name} must be an integer, got "):
            plan(*args)

    def test_n_cap(self, monkeypatch):
        cfg = plan(2**16, 1, 2, 0.25, 200)
        assert cfg.n == cfg.sampler.n == 2**16
        # Beyond the cap, rejected before q is chosen or anything of size n is made.
        monkeypatch.setattr(designs, "next_prime", None)
        monkeypatch.setattr(designs, "KWiseFamily", None)
        for n in (2**16 + 1, 2**61, 10**16):
            with pytest.raises(ValueError, match=rf"^n must be <= 65536, got {n}$"):
                plan(n, 1, 2, 0.25, 200)

    @pytest.mark.parametrize("d, k, points", [(2, 2, 91), (1, 4, 76)])
    def test_design_beyond_quadrature(self, monkeypatch, d, k, points):
        # Rejected before any sampler is built.
        monkeypatch.setattr(generator, "build_sampler", None)
        message = rf"^\(d, k\) = \({d}, {k}\) needs a {points}-point Gauss-Hermite rule; the limit is 64$"
        with pytest.raises(ValueError, match=message):
            plan(4, d, k, 0.4, ell_cap=5)


class TestBlendWeights:
    def test_single_term(self):
        assert blend_weights(0.5, 1).tolist() == [1.0]

    def test_two_term_example(self):
        # eps^2 = 0.5: unnormalized (1, sqrt(.5)), so w = (sqrt(2/3), sqrt(1/3))
        w = blend_weights(math.sqrt(0.5), 2)
        assert w == pytest.approx([math.sqrt(2 / 3), math.sqrt(1 / 3)], abs=1e-12)

    @pytest.mark.parametrize("eps", [0.05, 0.1, 0.3, 0.7, 0.95])
    @pytest.mark.parametrize("ell", [1, 2, 5, 17, 100])
    def test_unit_norm(self, eps, ell):
        w = blend_weights(eps, ell)
        assert abs(float(np.sum(w * w)) - 1.0) <= 1e-12

    @pytest.mark.parametrize("eps", [0.1, 0.3, 0.7])
    def test_geometric_ratio(self, eps):
        w = blend_weights(eps, 50)
        beta = math.sqrt(1 - eps * eps)
        ratios = w[1:] / w[:-1]
        assert np.all(np.abs(ratios - beta) <= 1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            blend_weights(0.0, 3)
        with pytest.raises(ValueError):
            blend_weights(0.5, 0)


class TestSeedAccounting:
    def test_total_formula(self):
        cfg = plan(8, 1, 2, 0.25, ell_cap=200)
        fb = (cfg.q - 1).bit_length()
        assert total_seed_bits(cfg) == cfg.ell * cfg.kwise_order * (fb + 16)

    def test_breakdown_consistent(self):
        cfg = plan(8, 1, 2, 0.25, ell_cap=200)
        b = seed_breakdown(cfg)
        assert b["total_seed_bits"] == total_seed_bits(cfg)
        assert b["bits_per_design"] == seed_bits(cfg.sampler)
        assert b["block_bits"] == b["field_bits"] + 16

    def test_logarithmic_growth_in_n(self):
        a = plan(8, 1, 2, 0.25, ell_cap=200)
        b = plan(16, 1, 2, 0.25, ell_cap=200)
        assert a.ell == b.ell and a.kwise_order == b.kwise_order
        dbits = (b.q - 1).bit_length() - (a.q - 1).bit_length()
        assert total_seed_bits(b) - total_seed_bits(a) <= a.ell * a.kwise_order * dbits

    def test_doubling_ell_doubles_total(self):
        a = plan(4, 1, 1, 0.3, ell_cap=10)
        b = plan(4, 1, 1, 0.3, ell_cap=20)
        # same sampler geometry: only the tv budget differs through ell;
        # compare per-design bits times ell directly
        assert total_seed_bits(a) == a.ell * seed_bits(a.sampler)
        assert total_seed_bits(b) == b.ell * seed_bits(b.sampler)


class TestSampling:
    def test_determinism(self):
        cfg = plan(3, 1, 1, 0.4, ell_cap=6)
        a = sample_batch(cfg, "0badc0de", 32)
        b = sample_batch(cfg, "0badc0de", 32)
        assert np.array_equal(a, b)

    def test_single_matches_batch(self):
        cfg = plan(3, 1, 1, 0.4, ell_cap=6)
        key = derive_key("77", "generator", cfg.n, cfg.d, cfg.k, cfg.epsilon, cfg.ell)
        nbytes = -(-total_seed_bits(cfg) // 8)
        data = stream_bytes(key, 0, 4, nbytes)
        batch = sample_batch(cfg, "77", 4)
        for i in range(4):
            assert np.array_equal(sample(cfg, data[i].tobytes()), batch[i])

    def test_insufficient_bits(self):
        cfg = plan(3, 1, 1, 0.4, ell_cap=6)
        with pytest.raises(ValueError):
            sample(cfg, b"\x00" * 4)

    def test_degenerate_single_design(self):
        # ell = 1: output equals one design sample
        cfg = plan(2, 1, 1, 0.4, ell_cap=1)
        y = sample_batch(cfg, "11", 64)
        nodes = set(cfg.sampler.quadrature.nodes.tolist())
        assert all(v in nodes for v in np.unique(y))

    def test_output_values_in_node_span(self):
        cfg = plan(2, 1, 1, 0.4, ell_cap=5)
        y = sample_batch(cfg, "22", 256)
        peak = np.abs(cfg.sampler.quadrature.nodes).max()
        assert np.max(np.abs(y)) <= peak + 1e-9

    def test_second_moment_unit(self):
        # small config, 10^5 seeds: per-coordinate second moment within
        # 3 stderr of 1, once the sampler's exact (tiny) discretization
        # bias is accounted for
        cfg = plan(2, 1, 1, 0.3, ell_cap=8)
        s = cfg.sampler
        disc_second = float(s.atom_probs @ s.quadrature.nodes**2)
        assert abs(disc_second - 1.0) <= 0.01  # discretization bias is small
        N = 100_000
        y = sample_batch(cfg, "abcd", N)
        for i in range(2):
            second = y[:, i] ** 2
            se = float(second.std(ddof=1)) / math.sqrt(N)
            assert abs(float(second.mean()) - 1.0) <= 3 * se + abs(disc_second - 1.0)

    def test_output_law_beyond_k(self):
        # n = 200 > K = 90: any K coordinates of a design are independent,
        # and so are the designs, so any 4 output coordinates are independent
        # copies of the blend y = sum_i w_i Z_i, with Z_i i.i.d. on the atom
        # law. With mu and m2 its first two moments, E[y] = mu * sum(w) and
        # E[y^2] = m2 * sum(w^2) + mu^2 * (sum(w)^2 - sum(w^2)), so
        # E[prod_{j in S} y_j^2] = E[y^2]^|S| exactly, up to the block bias.
        # mu is not 0: q is odd and the 46 gaps are not symmetric.
        cfg = plan(200, 1, 2, 0.25, 200)
        assert cfg.n > cfg.kwise_order
        s, w = cfg.sampler, blend_weights(cfg.delta, cfg.ell)
        mu = float(s.atom_probs @ s.quadrature.nodes)
        m2 = float(s.atom_probs @ s.quadrature.nodes**2)
        mean = mu * w.sum()
        second = m2 * (w @ w) + mu**2 * (w.sum() ** 2 - w @ w)
        N = 8000
        y = sample_batch(cfg, "3c", N)
        z_mean = (y.mean(axis=0) - mean) / (y.std(axis=0, ddof=1) / math.sqrt(N))
        assert np.max(np.abs(z_mean)) <= 5
        # Random sets over all 200 coordinates, plus sets whose points agree
        # mod K or straddle it.
        rng = np.random.default_rng(0)
        sets = [sorted(rng.choice(200, size=r, replace=False)) for r in (1, 2, 3, 4) for _ in range(5)]
        sets += [[0, 199], [89, 90], [5, 95], [0, 90, 180], [0, 66, 133, 199]]
        for S in sets:
            prod = np.prod(y[:, S] ** 2, axis=1)
            z = (prod.mean() - second ** len(S)) / (prod.std(ddof=1) / math.sqrt(N))
            assert abs(z) <= 5, (S, z)

    def test_start_offset_consistency(self):
        cfg = plan(3, 1, 1, 0.4, ell_cap=6)
        full = sample_batch(cfg, "55", 40)
        tail = sample_batch(cfg, "55", 15, start=25)
        assert np.array_equal(tail, full[25:])

    @pytest.mark.parametrize("count, start", [(2, 1.5), (2.5, 0), (2, 2.0), (2, "1")])
    def test_non_integer_count_or_start(self, count, start):
        # A fractional start would set the Philox counter inside a row.
        cfg = plan(4, 1, 2, 0.5, ell_cap=3)
        with pytest.raises(ValueError, match="must be an integer"):
            sample_batch(cfg, "00", count, start=start)

    @pytest.mark.parametrize(
        "count, start, message",
        [(-1, 0, "count must be >= 0, got -1"), (2, -1, "start must be >= 0, got -1"),
         (-3, -2, "count must be >= 0, got -3")],
    )
    def test_negative_count_or_start(self, count, start, message, monkeypatch):
        # Rejected before the output array is allocated.
        cfg = plan(4, 1, 2, 0.5, ell_cap=3)
        monkeypatch.setattr(np, "empty", None)
        with pytest.raises(ValueError, match=f"^{message}$"):
            sample_batch(cfg, "00", count, start=start)

    @staticmethod
    def _tile_rows(monkeypatch, cfg, count) -> int:
        """Rows per tile of one sample_batch(cfg, ..., count) call."""
        seen = []

        class Spy(generator._TilePipeline):
            def __init__(self, config, nwords, rows):
                seen.append(rows)
                super().__init__(config, nwords, rows)

        monkeypatch.setattr(generator, "_TilePipeline", Spy)
        sample_batch(cfg, "5eed", count)
        (rows,) = seen
        return rows

    def test_tile_bounded_by_output_terms(self, monkeypatch):
        # n > K: the byte rule alone gives 29 rows per tile, 121,800 terms.
        cfg = plan(200, 1, 2, 0.25, ell_cap=200)
        assert cfg.ell * cfg.n == 4200
        rows = self._tile_rows(monkeypatch, cfg, 40)
        assert 1 <= rows < 29 and rows * cfg.ell * cfg.n <= generator._TILE_TERMS

    @pytest.mark.parametrize(
        "args, rows",
        [((8, 1, 2, 0.25, 200), 33), ((8, 1, 2, 0.5, 200), 110), ((8, 1, 2, 0.2, 200), 22),
         ((4, 1, 3, 0.01, 2), 193), ((4, 1, 3, 1e-4, 2), 134)],
    )
    def test_tile_bytes_bind_at_benchmark_plans(self, monkeypatch, args, rows):
        # Only the 2^18-byte rule binds at n <= 8.
        assert self._tile_rows(monkeypatch, plan(*args), 200) == rows

    def test_bit_layout_contract(self):
        # flipping a bit inside design i's block range changes only that
        # design's symbols; bits past total_seed_bits are never read
        from gaussprg.designs import symbols_from_bytes

        cfg = plan(3, 1, 1, 0.4, ell_cap=6)
        K, bb = cfg.kwise_order, cfg.block_bits
        total = total_seed_bits(cfg)
        nbytes = -(-total // 8) + 3  # extra tail bytes beyond the metered range
        rng = np.random.default_rng(0)
        data = rng.integers(0, 256, size=(1, nbytes), dtype=np.uint8)
        base = symbols_from_bytes(cfg.sampler, data, cfg.ell * K).reshape(cfg.ell, K)
        target_design = 2
        bit = target_design * K * bb  # first bit of that design's range
        tampered = data.copy()
        tampered[0, bit // 8] ^= 1 << (7 - bit % 8)
        after = symbols_from_bytes(cfg.sampler, tampered, cfg.ell * K).reshape(cfg.ell, K)
        changed = [i for i in range(cfg.ell) if not np.array_equal(base[i], after[i])]
        assert changed == [target_design]
        beyond = data.copy()
        beyond[0, -1] ^= 0xFF
        assert np.array_equal(sample(cfg, data.tobytes()), sample(cfg, beyond.tobytes()))


class TestConfigJson:
    def test_fields(self):
        cfg = plan(4, 1, 2, 0.25, ell_cap=30)
        obj = json.loads(config_to_json(cfg))
        assert obj["n"] == 4 and obj["d"] == 1 and obj["k"] == 2
        assert obj["ell"] == cfg.ell
        assert obj["seed"]["total_seed_bits"] == total_seed_bits(cfg)
        assert obj["sampler"]["q"] == cfg.q
