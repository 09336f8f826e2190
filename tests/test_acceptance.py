"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line
and enforcing its stated tolerance and runtime budget."""

import itertools
import json
import math
import time

import numpy as np

from gaussprg._bits import subseed
from gaussprg.cli import main as cli_main
from gaussprg.designs import (
    KWiseFamily,
    build_sampler,
    gauss_hermite,
    gaussian_moment,
    kwise_eval,
    seed_bits,
    verify_moments,
)
from gaussprg.generator import plan, total_seed_bits
from gaussprg.harness import check_derivative_identity, check_prop4_1d, estimate_gap
from gaussprg.ptf import RandomPolyConfig, random_ptf
from gaussprg._bits import derive_key

MASTER = "ac0eb7a9ce5eed00"


def _report(num: int, name: str, ok: bool, elapsed: float, limit: float) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"\nACCEPTANCE {num:2d} [{name}]: {status} ({elapsed:.1f}s, limit {limit:.0f}s)")
    assert ok, f"criterion {num} ({name}) failed"
    assert elapsed < limit, f"criterion {num} exceeded {limit}s ({elapsed:.1f}s)"


def _halfspace_ensemble(count: int = 20):
    return [
        random_ptf(RandomPolyConfig(8, 1, derive_key(MASTER, "halfspace", i) % 2**63))
        for i in range(count)
    ]


def test_01_quadrature_exactness():
    t0 = time.monotonic()
    ok = True
    for M in range(1, 9):
        quad = gauss_hermite(M)
        for j in range(2 * M):
            ok &= abs(float(quad.weights @ quad.nodes**j) - gaussian_moment(j)) <= 1e-9
    quad3 = gauss_hermite(3)
    root = math.sqrt(3.0)
    ok &= np.allclose(quad3.nodes, [-root, 0.0, root], atol=1e-9, rtol=0)
    ok &= np.allclose(quad3.weights, [1 / 6, 2 / 3, 1 / 6], atol=1e-9, rtol=0)
    _report(1, "quadrature exactness", ok, time.monotonic() - t0, 1.0)


def test_02_kwise_uniformity():
    t0 = time.monotonic()
    fam = KWiseFamily(5, 2, 4)
    ok = True
    for i, j in itertools.combinations(range(4), 2):
        counts = {}
        for seed in itertools.product(range(5), repeat=2):
            pair = (kwise_eval(fam, seed, i), kwise_eval(fam, seed, j))
            counts[pair] = counts.get(pair, 0) + 1
        ok &= counts == {p: 1 for p in itertools.product(range(5), repeat=2)}
    _report(2, "k-wise uniformity (5,2,4)", ok, time.monotonic() - t0, 1.0)


def test_03_design_moments_enumeration():
    t0 = time.monotonic()
    ok = True
    # exhaustive branch: the exact law over all 53^4 seeds, in closed form
    s_small = build_sampler(3, 4, 2, tv_budget=0.06)
    assert s_small.q == 53 and s_small.q**4 <= 10**7
    rep_ex = verify_moments(s_small, max_order=4, mode="exhaustive")
    ok &= all(row["passed"] == 1 for row in rep_ex)
    # Monte-Carlo branch at q = 211: 10^6 drawn seeds
    s_big = build_sampler(3, 4, 2, tv_budget=3 / 211)
    assert s_big.q == 211 and s_big.q**4 > 10**7
    rep_mc = verify_moments(s_big, max_order=4, mode="mc", n_samples=10**6, rng_seed=3)
    ok &= all(row["passed"] == 1 for row in rep_mc)
    _report(3, "design moments by enumeration", ok, time.monotonic() - t0, 120.0)


def test_04_degree1_fooling():
    t0 = time.monotonic()
    cfg = plan(8, 1, 2, 0.25, ell_cap=200)
    ok = True
    worst = -math.inf
    # jobs=2 runs the four 25,000-row units two at a time; jobs never
    # changes a byte of the estimate.
    for i, f in enumerate(_halfspace_ensemble()):
        est = estimate_gap(
            f, cfg, 100_000, "analytic", master_seed=subseed(MASTER, "fool4", i), jobs=2
        )
        margin = abs(est.gap) - (3.0 * est.stderr + 0.02)
        worst = max(worst, margin)
        ok &= margin <= 0.0
    print(f"  worst margin vs tolerance: {worst:+.4f} (negative = inside)")
    _report(4, "degree-1 fooling at desk scale", ok, time.monotonic() - t0, 300.0)


def test_05_fooling_trend():
    t0 = time.monotonic()
    ensemble = _halfspace_ensemble()
    gaps = {}
    for eps in (0.5, 0.2):
        cfg = plan(8, 1, 2, eps, ell_cap=200)
        gaps[eps] = [
            abs(
                estimate_gap(
                    f, cfg, 100_000, "analytic", master_seed=subseed(MASTER, "fool5", eps, i), jobs=2
                ).gap
            )
            for i, f in enumerate(ensemble)
        ]
    mean_hi = float(np.mean(gaps[0.5]))
    mean_lo = float(np.mean(gaps[0.2]))
    sem_hi = float(np.std(gaps[0.5], ddof=1)) / math.sqrt(len(gaps[0.5]))
    sem_lo = float(np.std(gaps[0.2], ddof=1)) / math.sqrt(len(gaps[0.2]))
    width = 1.96 * math.hypot(sem_hi, sem_lo)
    ok = mean_hi >= mean_lo - width
    print(f"  mean|gap| eps=0.5: {mean_hi:.5f}, eps=0.2: {mean_lo:.5f}, CI width {width:.5f}")
    _report(5, "fooling trend across epsilon", ok, time.monotonic() - t0, 600.0)


def test_06_derivative_identity():
    t0 = time.monotonic()
    ok = True
    worst = 0.0
    for i in range(10):
        f = random_ptf(RandomPolyConfig(3, 3, derive_key(MASTER, "deriv-poly", i) % 2**63))
        rep = check_derivative_identity(
            f.poly, [1, 2], 10**6, tol=0.05, master_seed=subseed(MASTER, "deriv", i)
        )
        worst = max(worst, max(r["rel_error"] for r in rep.rows))
        ok &= rep.passed
    print(f"  worst relative error: {worst:.4f}")
    _report(6, "derivative-moment identity", ok, time.monotonic() - t0, 120.0)


def test_07_small_ball_bound():
    t0 = time.monotonic()
    ok = True
    for d in (2, 3):
        for i in range(3):
            f = random_ptf(RandomPolyConfig(3, d, derive_key(MASTER, "cw-poly", d, i) % 2**63))
            rng = np.random.Generator(np.random.Philox(key=derive_key(MASTER, "cw-x", d, i)))
            counts = np.zeros(2, dtype=np.int64)
            eps = np.array([1e-2, 1e-3])
            done = 0
            while done < 10**7:
                cnt = min(10**6, 10**7 - done)
                a = np.abs(f.poly.evaluate_batch(rng.standard_normal((cnt, 3))))
                counts += np.array([np.count_nonzero(a <= e) for e in eps])
                done += cnt
            for e, c in zip(eps, counts):
                ok &= (c / 10**7) <= 3.0 * d * e ** (1.0 / d)
    _report(7, "small-ball (anticoncentration) bound", ok, time.monotonic() - t0, 300.0)


def test_08_tail_bound():
    t0 = time.monotonic()
    ok = True
    for d in (2, 3):
        for i in range(3):
            f = random_ptf(RandomPolyConfig(3, d, derive_key(MASTER, "tail-poly", d, i) % 2**63))
            rng = np.random.Generator(np.random.Philox(key=derive_key(MASTER, "tail-x", d, i)))
            Ns = np.array([2.0, 4.0, 6.0])
            counts = np.zeros(3, dtype=np.int64)
            done = 0
            while done < 10**7:
                cnt = min(10**6, 10**7 - done)
                a = np.abs(f.poly.evaluate_batch(rng.standard_normal((cnt, 3))))
                counts += np.array([np.count_nonzero(a > N) for N in Ns])
                done += cnt
            for N, c in zip(Ns, counts):
                ok &= (c / 10**7) <= 10.0 * 2.0 ** (-((N / 2.0) ** (2.0 / d)))
    _report(8, "hypercontractive tail bound", ok, time.monotonic() - t0, 300.0)


def test_09_prop4_residual_scaling():
    t0 = time.monotonic()
    rep = check_prop4_1d(3, shells=(0.2, 0.1, 0.05))
    row = rep.rows[0]
    ok = row["slope"] >= 2.5 and abs(row["origin_value"]) <= 1e-12
    print(f"  slope: {row['slope']:.3f}, origin: {row['origin_value']:.2e}")
    _report(9, "1-D smooth-expectation residual scaling", ok, time.monotonic() - t0, 30.0)


def test_10_seed_accounting():
    t0 = time.monotonic()
    a = plan(8, 1, 2, 0.25, ell_cap=200)
    b = plan(16, 1, 2, 0.25, ell_cap=200)
    bits = lambda cfg: (cfg.q - 1).bit_length()
    ok = total_seed_bits(a) == a.ell * a.kwise_order * (bits(a) + 16)
    ok &= total_seed_bits(b) == b.ell * b.kwise_order * (bits(b) + 16)
    ok &= a.ell == b.ell and a.kwise_order == b.kwise_order
    delta = total_seed_bits(b) - total_seed_bits(a)
    ok &= delta <= a.ell * a.kwise_order * (bits(b) - bits(a))
    ok &= total_seed_bits(a) == a.ell * seed_bits(a.sampler)
    _report(10, "seed accounting", ok, time.monotonic() - t0, 1.0)


def test_11_cli_determinism(tmp_path):
    t0 = time.monotonic()
    gen_cfg = tmp_path / "gen.json"
    gen_cfg.write_text(
        json.dumps({"generator": {"n": 3, "d": 1, "k": 1, "epsilon": 0.4, "ell_cap": 4}})
    )
    fool_cfg = tmp_path / "fool.json"
    fool_cfg.write_text(
        json.dumps(
            {
                "ensemble": {"count": 2, "num_vars": 3, "degree": 1},
                "generator": {"k": 1, "epsilons": [0.4], "ell_cap": 4},
                "samples": {"n_gen": 2000, "baseline": "analytic"},
            }
        )
    )
    outs = []
    for tag, jobs in (("a", "1"), ("b", "3"), ("c", "1")):
        out = tmp_path / f"sample_{tag}.jsonl"
        assert (
            cli_main(
                ["sample", "--config", str(gen_cfg), "--seed", "0123beef",
                 "--samples", "6000", "--out", str(out), "--jobs", jobs]
            )
            == 0
        )
        outs.append(out.read_bytes())
    ok = outs[0] == outs[1] == outs[2]
    fouts = []
    for tag, jobs in (("a", "1"), ("b", "3"), ("c", "1")):
        out = tmp_path / f"fool_{tag}.csv"
        assert (
            cli_main(
                ["fool", "--config", str(fool_cfg), "--seed", "0123beef",
                 "--out", str(out), "--jobs", jobs]
            )
            == 0
        )
        fouts.append(out.read_bytes())
    ok &= fouts[0] == fouts[1] == fouts[2]
    _report(11, "CLI determinism across runs and jobs", ok, time.monotonic() - t0, 60.0)
