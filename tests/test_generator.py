import hashlib
import json
import math

import numpy as np
import pytest

from gaussprg._bits import derive_key, stream_bytes
from gaussprg.designs import build_sampler, seed_bits
from gaussprg.generator import (
    blend_weights,
    config_to_json,
    plan,
    prop9_coefficients,
    prop9_hybrid_sample,
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
        assert cfg.design_order == 90
        assert cfg.quad_points == 46
        assert cfg.kwise_order == 90

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


class TestBlendWeights:
    def test_single_term(self):
        assert blend_weights(0.5, 1).w.tolist() == [1.0]

    def test_two_term_example(self):
        # eps^2 = 0.5: unnormalized (1, sqrt(.5)), so w = (sqrt(2/3), sqrt(1/3))
        bw = blend_weights(math.sqrt(0.5), 2)
        assert bw.w == pytest.approx([math.sqrt(2 / 3), math.sqrt(1 / 3)], abs=1e-12)

    @pytest.mark.parametrize("eps", [0.05, 0.1, 0.3, 0.7, 0.95])
    @pytest.mark.parametrize("ell", [1, 2, 5, 17, 100])
    def test_unit_norm(self, eps, ell):
        w = blend_weights(eps, ell).w
        assert abs(float(np.sum(w * w)) - 1.0) <= 1e-12

    @pytest.mark.parametrize("eps", [0.1, 0.3, 0.7])
    def test_geometric_ratio(self, eps):
        w = blend_weights(eps, 50).w
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

    def test_offsets_partition_stream(self):
        cfg = plan(4, 1, 1, 0.3, ell_cap=20)
        per = seed_bits(cfg.sampler)
        offsets = cfg.design_offsets
        assert offsets == [i * per for i in range(cfg.ell)]
        assert offsets[0] == 0
        assert offsets[-1] + per == total_seed_bits(cfg)

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

    def test_start_offset_consistency(self):
        cfg = plan(3, 1, 1, 0.4, ell_cap=6)
        full = sample_batch(cfg, "55", 40)
        tail = sample_batch(cfg, "55", 15, start=25)
        assert np.array_equal(tail, full[25:])

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


class TestProp9:
    @pytest.mark.parametrize("eps", [0.1, 0.3, 0.7])
    @pytest.mark.parametrize("ell", [1, 5, 50])
    def test_coefficient_identity(self, eps, ell):
        coefs, gauss = prop9_coefficients(eps, ell)
        assert abs(float(np.sum(coefs**2)) + gauss**2 - 1.0) <= 1e-12

    def test_empty_chain_is_gaussian(self):
        coefs, gauss = prop9_coefficients(0.5, 0)
        assert coefs.size == 0 and gauss == 1.0
        s = build_sampler(2, 2, 3, tv_budget=0.05)
        rng1 = np.random.Generator(np.random.Philox(key=5))
        rng2 = np.random.Generator(np.random.Philox(key=5))
        y = prop9_hybrid_sample(0.5, 0, s, rng1)
        assert np.array_equal(y, rng2.standard_normal(3))

    def test_near_one_eps_suppresses_gaussian(self):
        coefs, gauss = prop9_coefficients(0.999, 1)
        assert coefs[0] == pytest.approx(0.999)
        assert gauss < 0.05

    def test_mixture_shape_and_determinism(self):
        s = build_sampler(3, 4, 5, tv_budget=0.01)
        a = prop9_hybrid_sample(0.3, 4, s, np.random.Generator(np.random.Philox(key=9)))
        b = prop9_hybrid_sample(0.3, 4, s, np.random.Generator(np.random.Philox(key=9)))
        assert a.shape == (5,)
        assert np.array_equal(a, b)


    def test_golden_digest(self):
        # SHA-256 of 200 little-endian float64 rows drawn from one Philox stream
        s = build_sampler(3, 4, 5, tv_budget=0.01)
        rng = np.random.Generator(np.random.Philox(key=11))
        rows = np.array([prop9_hybrid_sample(0.3, 6, s, rng) for _ in range(200)])
        digest = hashlib.sha256(np.ascontiguousarray(rows, dtype="<f8").tobytes()).hexdigest()
        assert digest == "62485c5478546e2c760a49bba4a9d50378c9079615308a4d0e9c4b8d858b4681"

class TestConfigJson:
    def test_fields(self):
        cfg = plan(4, 1, 2, 0.25, ell_cap=30)
        obj = json.loads(config_to_json(cfg))
        assert obj["n"] == 4 and obj["d"] == 1 and obj["k"] == 2
        assert obj["ell"] == cfg.ell
        assert obj["seed"]["total_seed_bits"] == total_seed_bits(cfg)
        assert obj["sampler"]["q"] == cfg.q
