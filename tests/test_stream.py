"""The generator output stream is a fixed contract.

Golden digests pin the bytes ``sample_batch`` writes for one plan per
contraction regime, and a property test checks that ``start``/``count``
slicing never changes a row and that every row equals the scalar
``sample()`` fed the byte stream of its index.
"""

import functools
import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gaussprg._bits import derive_key, stream_bytes
from gaussprg.generator import plan, sample, sample_batch, total_seed_bits

# plan arguments -> (master seed, count, start, SHA-256 of the little-endian
# float64 output). One plan per contraction regime:
#   (8,1,2,0.25,200): float64 matmul, B=33, q=123653
#   (4,1,3,0.01,2):   int64 Horner, B=45, q=488000017
#   (4,1,3,1e-4,2):   blocks wider than 57 bits, B=65, q~4.9e14
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
        (4, 1, 3, 1e-5, 2),  # q ~ 4.9e17 > 2^53, B=75: int64 Horner
        (4, 1, 3, 5e-6, 2),  # q ~ 3.9e18, B=78: (q-1)*(x_max+1) >= 2^63, object Horner
    ],
)
def test_large_q_plans_sample(args):
    config = plan(*args)
    assert config.q > 2**53 and config.block_bits > 57
    out = sample_batch(config, SEED, 150, start=4)
    for i in (0, 70, 149):
        assert out[i].tobytes() == _reference_row(config, SEED, 4 + i).tobytes()
