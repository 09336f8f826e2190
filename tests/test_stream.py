"""The generator output stream is a fixed contract.

Golden digests pin the bytes ``sample_batch`` writes for one plan per
contraction regime, and a property test checks that ``start``/``count``
slicing never changes a row and that every row equals the scalar
``sample()`` fed the byte stream of its index. The tile contraction is
checked on its own against a Python-integer Horner scheme for moduli up
to 2^62, and the bucket-table atom lookup against ``searchsorted``;
``sample()`` runs neither.
"""

import functools
import hashlib
import math
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gaussprg import designs
from gaussprg._bits import derive_key, extract_blocks, normalize_hex_seed, philox_at, stream_bytes, stream_words
from gaussprg.designs import (
    _Contraction,
    _limb_split,
    build_sampler,
    design_sample_batch,
    is_prime,
    next_prime,
    sampler_to_json,
)
from gaussprg.generator import config_to_json, plan, sample, sample_batch, total_seed_bits

# plan arguments -> (master seed, count, start, SHA-256 of the little-endian
# float64 output). One plan per limb split of the contraction: symbols in
# nS limbs, powers in nP limbs (designs._limb_split):
#   (8,1,2,0.25,200): (nS, nP) = (1, 1), B=33, q=123653
#   (4,1,3,0.01,2):   (1, 2), B=45, q=488000017
#   (4,1,3,1e-4,2):   (2, 3), blocks wider than 57 bits, B=65, q~4.9e14
#   (4,1,3,1e-5,2):   (2, 4), B=75, q~4.9e17
#   (4,1,3,5e-6,2):   (3, 3), B=78, q~3.9e18
# plus one plan with n = 1 and ell = 21, where the blend's chain order
# shows: a pairwise sum over the designs changes most of its rows.
GOLDEN = {
    (8, 1, 2, 0.25, 200): (
        "5eed01", 2500, 7,
        "7b1875cf25f28b69b77ef74b32b41d3225bcc06d61fefd886ae3006e7762edd0",
    ),
    (4, 1, 3, 0.01, 2): (
        "5eed02", 2000, 11,
        "fa7db293db6858811e84caf22c11219633787f12cd8ae38049c49d0643bf1da8",
    ),
    (4, 1, 3, 1e-4, 2): (
        "5eed03", 200, 3,
        "32a13395ab0a6d97fcb5a3c7cf92a101d2870d4173df26ccae8a722ee2b917d4",
    ),
    (4, 1, 3, 1e-5, 2): (
        "5eed04", 300, 5,
        "e87ed1ea8573bf3ed17c35c46f581df3999cdc8493bec80027601c7d8e4fec8c",
    ),
    (4, 1, 3, 5e-6, 2): (
        "5eed05", 300, 2,
        "ff638981808ce1c1423b23b0618a11869b149dab57690b0fd9285aac6ff424cc",
    ),
    (1, 1, 2, 0.25, 200): (
        "5eed10", 3000, 13,
        "dd8de560b35b72f02faa9620e95eac015a1a880ffca9ba97c1e2375ee42ed2d3",
    ),
}

PLANS = list(GOLDEN)
SEED = "c0ffee"
REF_ROWS = 600  # covers every start + count the property test draws


def _digest(out: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(out, dtype="<f8").tobytes()).hexdigest()


@functools.lru_cache(maxsize=None)
def _config(args):
    return plan(*args)


def _reference_row(config, seed_hex: str, index: int) -> np.ndarray:
    key = derive_key(seed_hex, "generator", config.n, config.d, config.k, config.epsilon, config.ell)
    nbytes = -(-total_seed_bits(config) // 8)
    return sample(config, stream_bytes(key, index, 1, nbytes)[0].tobytes())


@functools.lru_cache(maxsize=None)
def _reference_batch(args) -> np.ndarray:
    return sample_batch(_config(args), SEED, REF_ROWS)


@pytest.mark.parametrize("args", PLANS)
def test_golden_digest(args):
    seed_hex, count, start, digest = GOLDEN[args]
    out = sample_batch(_config(args), seed_hex, count, start=start)
    assert out.shape == (count, args[0])
    assert _digest(out) == digest


@pytest.mark.parametrize("args", PLANS)
def test_reference_batch_matches_sample(args):
    config = _config(args)
    ref = _reference_batch(args)
    for i in range(REF_ROWS):
        assert ref[i].tobytes() == _reference_row(config, SEED, i).tobytes(), f"row {i}"


@pytest.mark.parametrize("args", PLANS)
def test_single_row_matches_sample(args):
    config = _config(args)
    for start in (0, 17):
        out = sample_batch(config, SEED, 1, start=start)
        assert out.shape == (1, config.n)
        assert out[0].tobytes() == _reference_row(config, SEED, start).tobytes()


# The checks-gauss moment samplers: q = 53 (exhaustive mode) and q = 211
# (Monte-Carlo mode), as build_sampler arguments.
MOMENT_SAMPLERS = [(3, 4, 2, 0.06), (3, 4, 2, 3 / 211)]


@pytest.mark.parametrize("args", PLANS + MOMENT_SAMPLERS)
def test_bucket_lookup_matches_searchsorted(args):
    # Every threshold t and the value below it, plus both ends of [0, q).
    sampler = _config(args).sampler if args in GOLDEN else build_sampler(*args)
    assert args in GOLDEN or sampler.q in (53, 211)
    th, q = sampler.thresholds, sampler.q
    values = {0, q - 1} | {int(t) + d for t in th for d in (-1, 0) if 0 <= int(t) + d < q}
    v = np.array(sorted(values), dtype=np.int64)
    expected = np.searchsorted(th, v, side="right")
    lookup = sampler._lookup
    assert np.array_equal(lookup(v), expected)
    # The tile pipeline passes its own scratch and out buffers.
    out = np.empty(v.shape, dtype=lookup.buckets.dtype)
    assert lookup(v, np.empty_like(v), out) is out
    assert np.array_equal(out, expected)


def test_tables_built_once_per_plan_and_read_only():
    config = plan(*PLANS[0])
    sampler, family = config.sampler, config.sampler.family
    assert "_contraction" not in vars(family) and "_lookup" not in vars(sampler)
    sample_batch(config, SEED, 3)
    contraction, lookup = vars(family)["_contraction"], vars(sampler)["_lookup"]
    sample_batch(config, SEED, 3, start=5)
    design_sample_batch(sampler, np.zeros((2, family.k), dtype=np.int64))
    assert family._contraction is contraction and sampler._lookup is lookup
    for arr in (contraction.table, lookup.thresholds, lookup.buckets):
        assert not arr.flags.writeable


def test_threads_build_tables_concurrently():
    # Fresh plans, so several threads build the contraction and lookup at once.
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for args in PLANS[:2]:
            config = plan(*args)
            with ThreadPoolExecutor(max_workers=4) as ex:
                batches = ex.map(lambda lo: sample_batch(config, SEED, 40, start=lo), range(0, 320, 40), timeout=120)
                outs = list(batches)
            assert np.concatenate(outs).tobytes() == _reference_batch(args)[:320].tobytes()
    finally:
        sys.setswitchinterval(interval)


@settings(max_examples=40, deadline=None)
@given(
    args=st.sampled_from(PLANS),
    start=st.integers(0, 300),
    count=st.one_of(st.just(0), st.integers(1, 300)),
)
def test_slicing_never_changes_rows(args, start, count):
    config = _config(args)
    out = sample_batch(config, SEED, count, start=start)
    assert out.shape == (count, config.n)
    assert out.tobytes() == _reference_batch(args)[start:start + count].tobytes()
    for i in {0, count - 1} if count else ():
        assert out[i].tobytes() == _reference_row(config, SEED, start + i).tobytes()


@pytest.mark.parametrize(
    "args",
    [
        (4, 1, 3, 1e-5, 2),  # q ~ 4.9e17 > 2^53, B=75
        (4, 1, 3, 5e-6, 2),  # q ~ 3.9e18, B=78
    ],
)
def test_large_q_plans_sample(args):
    config = plan(*args)
    assert config.q > 2**53 and config.block_bits > 57
    out = sample_batch(config, SEED, 150, start=4)
    for i in (0, 70, 149):
        assert out[i].tobytes() == _reference_row(config, SEED, 4 + i).tobytes()


# The ends of the chain-length range, outside the pinned plans' ell 2..21:
# the longest chain ell_cap=200 allows (B=46, q=736000003, two rows per
# tile) and a single design. plan arguments -> (master seed, count, start,
# SHA-256 of the little-endian float64 output).
CHAIN_GOLDEN = {
    (8, 1, 2, 0.01, 200): (
        "5eed11", 40, 7,
        "9e079f6bdb6a62fa7b6cde5776c9b244ff3819bc60caeedb1d0c5594bec759a1",
    ),
    (8, 1, 2, 0.25, 1): (
        "5eed12", 2000, 11,
        "f1611213120f87e306d6255731676faac05d032f1b94bd21fea7a3a4467ef938",
    ),
}


@pytest.mark.parametrize("args", list(CHAIN_GOLDEN))
def test_chain_ends_golden_digest(args):
    seed_hex, count, start, digest = CHAIN_GOLDEN[args]
    config = _config(args)
    assert config.ell == args[4]
    assert _digest(sample_batch(config, seed_hex, count, start=start)) == digest


@pytest.mark.parametrize("args", list(CHAIN_GOLDEN))
def test_chain_ends_batch_matches_sample(args):
    seed_hex, count, start, _ = CHAIN_GOLDEN[args]
    config = _config(args)
    out = sample_batch(config, seed_hex, count, start=start)
    for i in (0, 1, 2, count // 2, count - 1):
        assert out[i].tobytes() == _reference_row(config, seed_hex, start + i).tobytes(), f"row {i}"


# The paper's regime, n > K: 200 coordinates against K = 90 symbols per
# design, so k-wise independence binds (every plan above has n <= 8 < K).
# B=38, q=3091201, 15 rows per tile (the output bound; the byte rule alone
# gives 29). plan arguments -> (master seed, count, start, SHA-256 of the
# little-endian float64 output).
LARGE_N_GOLDEN = {
    (200, 1, 2, 0.25, 200): (
        "5eed20", 40, 0,
        "5185586516ac57309e841db170798051e0f78eab694b4121938a73692855e033",
    ),
}


@pytest.mark.parametrize("args", list(LARGE_N_GOLDEN))
def test_large_n_golden_digest(args):
    seed_hex, count, start, digest = LARGE_N_GOLDEN[args]
    config = _config(args)
    assert config.n > config.kwise_order
    assert _digest(sample_batch(config, seed_hex, count, start=start)) == digest


@pytest.mark.parametrize("args", list(LARGE_N_GOLDEN))
def test_large_n_batch_matches_sample(args):
    # sample() takes about 35 ms a row here.
    seed_hex, count, start, _ = LARGE_N_GOLDEN[args]
    config = _config(args)
    out = sample_batch(config, seed_hex, count, start=start)
    for i in (0, 5, count - 1):
        assert out[i].tobytes() == _reference_row(config, seed_hex, start + i).tobytes(), f"row {i}"


# SHA-256 of the plan JSON that `gaussprg plan` prints (without its newline)
# and whose hash is `fool`'s generator_id: config_to_json of every pinned
# plan, and sampler_to_json of the checks-gauss moment samplers.
PLAN_JSON_GOLDEN = {
    (8, 1, 2, 0.25, 200): "02f0b80f7616ff1f705433807a31d0eeb9d91fd054dea0a19e89d88899badd7d",
    (4, 1, 3, 0.01, 2): "badbf9ca8af2d4ee4acb62355e9dd48337945698cf7aff1e4c2e7c1d8348deac",
    (4, 1, 3, 1e-4, 2): "3aea79dc0b3fbfa51a211ce5fb74aa29ea0b4fd0e3147d3701e717650a922561",
    (4, 1, 3, 1e-5, 2): "6e2a33fa577193ff1a5c5f1defc5aed4f89ee9a818ac9e9a3456ee599eb1e366",
    (4, 1, 3, 5e-6, 2): "1c097923f5f95dcb5f8042e84822ad47c545bd1dca1d13ea09ad0494a898810a",
    (1, 1, 2, 0.25, 200): "8648cf1f9c5d94b6e400fc3296a2bb82a511b701f8f9d186b54bf35e65fd9ca6",
    (8, 1, 2, 0.01, 200): "ebf7125f5d2b5497ec111cdc321180a057a999754e5d2bb1ae3fb6a3db827660",
    (8, 1, 2, 0.25, 1): "48b878e6a1ab84bfabeace838cdc0234ba52a4d661d5cf17f1fd24b76ac5bca5",
    (200, 1, 2, 0.25, 200): "e973e67b82e89b0d0f9be45584ef3d8279f458d454a41a9aa88b37854ae3cfed",
}
SAMPLER_JSON_GOLDEN = {
    (3, 4, 2, 0.06): "547eb7ab793b8cdf15cd67ab7d950fd05f8d48eb3994011ab1cde605cf9f6af2",
    (3, 4, 2, 3 / 211): "62e9841172af08d985a90453963a71dde7a1ede6776707a3bcc731071fbcec33",
}


@pytest.mark.parametrize("args", list(PLAN_JSON_GOLDEN))
def test_plan_json_golden_digest(args):
    text = config_to_json(_config(args))
    assert hashlib.sha256(text.encode()).hexdigest() == PLAN_JSON_GOLDEN[args]


@pytest.mark.parametrize("args", list(SAMPLER_JSON_GOLDEN))
def test_sampler_json_golden_digest(args):
    text = sampler_to_json(build_sampler(*args))
    assert hashlib.sha256(text.encode()).hexdigest() == SAMPLER_JSON_GOLDEN[args]


@pytest.mark.parametrize("args", PLANS)
def test_sample_runs_no_pipeline_stage(args, monkeypatch):
    # sample() is the reference for sample_batch, so it must not share the
    # contraction or the atom lookup with it: with both broken (and
    # searchsorted, the lookup's fallback) it still gives the rows
    # sample_batch gave before.
    config = _config(args)
    rows = _reference_batch(args)

    def broken(*_args, **_kwargs):
        raise AssertionError("pipeline stage called")

    monkeypatch.setattr(designs._Contraction, "__call__", broken)
    monkeypatch.setattr(designs._AtomLookup, "__call__", broken)
    monkeypatch.setattr(np, "searchsorted", broken)
    for i in (0, 1, REF_ROWS - 1):
        assert _reference_row(config, SEED, i).tobytes() == rows[i].tobytes()


def _prime_below(m: int) -> int:
    while not is_prime(m):
        m -= 1
    return m


def _horner(q: int, points, row) -> list[int]:
    out = []
    for x in points:
        acc = 0
        for coef in reversed(row):
            acc = (acc * x + coef) % q
        out.append(acc)
    return out


def _check_contraction(q: int, K: int, points, symbols) -> None:
    # Every batch also carries the all-(q-1) row, the largest dot products.
    rows = [[q - 1] * K] + [list(r) for r in symbols]
    # The tile pipeline runs this class, which each family builds at its
    # points 0..n-1. Here it takes any points in [0, q); with x = q - 1 the
    # table holds its largest entries, q - 1.
    contract = _Contraction(q, K, points)
    got = contract(np.array(rows, dtype=np.uint64).view(np.int64), contract.buffers(len(rows)))
    assert [[int(v) for v in row] for row in got] == [_horner(q, points, r) for r in rows]


# Examples: at K = 120 the largest prime with K*(q-1)^2 < 2^53 (unsplit
# limbs) and the first prime past it; the largest prime below 2^62.
_FLOAT_EDGE_120 = math.isqrt((2**53 - 1) // 120)


@st.composite
def _contraction_case(draw):
    bits = draw(st.integers(10, 62))
    q = next_prime(draw(st.integers(2 ** (bits - 1), 2**bits - 1)))
    if q > 2**62:
        q = _prime_below(2**62)
    K = draw(st.integers(1, 126))
    points = draw(st.lists(st.integers(0, q - 1), min_size=1, max_size=5, unique=True))
    symbols = draw(st.lists(st.lists(st.integers(0, q - 1), min_size=K, max_size=K), max_size=4))
    return q, K, points, symbols


@settings(max_examples=60, deadline=None)
@given(case=_contraction_case())
@example(case=(_prime_below(_FLOAT_EDGE_120 + 1), 120, [0, 1, 2, 3], []))
@example(case=(next_prime(_FLOAT_EDGE_120 + 2), 120, [0, 1, 2, 3], []))
@example(case=(_prime_below(2**62), 126, [0, 1, 2**62 - 100, 2**61 + 1], []))
def test_contraction_matches_python_horner(case):
    _check_contraction(*case)


def _split_changes(K: int) -> list[int]:
    """Every q in [2^10, 2^62) whose limb split differs from that of q+1."""
    found = []

    def walk(lo, hi, split_lo, split_hi):
        if split_lo == split_hi:
            return
        if hi - lo == 1:
            found.append(lo)
            return
        mid = (lo + hi) // 2
        split_mid = _limb_split(K, mid)
        walk(lo, mid, split_lo, split_mid)
        walk(mid, hi, split_mid, split_hi)

    walk(2**10, 2**62, _limb_split(K, 2**10), _limb_split(K, 2**62))
    return found


@pytest.mark.parametrize("K", [1, 2, 90, 120, 126])
def test_contraction_at_every_limb_change(K):
    rng = np.random.default_rng(K)
    changes = _split_changes(K)
    assert changes
    for edge in changes:
        for q in (_prime_below(edge), next_prime(edge + 1)):
            if q > 2**62:
                continue
            split = _limb_split(K, q)
            assert (split[0], split[2]) == (1, 1) or K * (q - 1) ** 2 >= 2**53
            points = [0, 1, q - 1] + [int(x) for x in rng.integers(2, q - 1, size=2)]
            symbols = rng.integers(0, q, size=(3, K), dtype=np.uint64).tolist()
            _check_contraction(q, K, sorted(set(points)), symbols)


def test_float_matmul_exactly_below_two_to_53():
    # The unsplit contraction is chosen exactly when K*(q-1)^2 < 2^53.
    for K in (1, 2, 90, 120, 126):
        edge = math.isqrt((2**53 - 1) // K) + 1  # largest q with K*(q-1)^2 < 2^53
        assert _limb_split(K, edge)[::2] == (1, 1)
        assert _limb_split(K, edge + 1)[::2] != (1, 1)


def test_bit_generator_continues_across_calls():
    key, nwords = derive_key("5eed06", "words"), 7
    whole = stream_words(key, 11, 9, nwords)
    bitgen = philox_at(key, 11, nwords)
    parts = [stream_words(key, 11 + lo, n, nwords, bitgen) for lo, n in ((0, 2), (2, 0), (2, 4), (6, 3))]
    assert np.array_equal(np.concatenate(parts), whole)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: philox_at(1, -1, 7), "^index must be non-negative and width positive$"),
        (lambda: philox_at(1, 0, 0), "^index must be non-negative and width positive$"),
        (lambda: stream_words(1, -1, 2, 7), "^index/count must be non-negative and width positive$"),
        (lambda: stream_words(1, 0, -1, 7), "^index/count must be non-negative and width positive$"),
        (lambda: stream_words(1, 0, 2, 0), "^index/count must be non-negative and width positive$"),
        (lambda: extract_blocks(np.zeros(4, dtype=np.uint8), 1, 8), "^data must be a 2-D uint8 array$"),
        (lambda: extract_blocks(np.zeros((1, 4), dtype=np.int64), 1, 8), "^data must be a 2-D uint8 array$"),
        (lambda: extract_blocks(np.zeros((1, 4), dtype=np.uint8), 1, 0), "^block_bits must be positive$"),
        (lambda: extract_blocks(np.zeros((1, 2), dtype=np.uint8), 3, 8), "^rows carry 16 bits, need 24$"),
    ],
)
def test_stream_argument_errors(call, message):
    with pytest.raises(ValueError, match=message):
        call()


@pytest.mark.parametrize("raw, canon", [("0xAB", "ab"), (" 0XaB ", "ab"), ("", "00"), ("abc", "0abc"), ("0ABC", "0abc")])
def test_normalize_hex_seed(raw, canon):
    # These rules decide which stream --seed reads.
    assert normalize_hex_seed(raw) == canon
    assert derive_key(raw, "x") == derive_key(canon, "x")


@pytest.mark.parametrize("index", [1.5, 2.0, "3"])
def test_philox_at_rejects_non_integer_index(index):
    with pytest.raises(ValueError, match="index must be an integer"):
        philox_at(derive_key("5eed06", "words"), index, 7)
