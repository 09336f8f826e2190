"""Deterministic master-bitstream plumbing.

A master seed (hex string) is expanded with the counter-based Philox
generator so that the bytes belonging to stream index i depend only on
(key, i), never on how requests are batched or which worker produced them.
The bitstream convention, used everywhere bits are metered: Philox 64-bit
output words are serialized big-endian, and bits are consumed MSB-first
from that byte sequence. Reading a word MSB-first is the same as reading
its big-endian bytes MSB-first, so batch code can stay on native uint64
words while byte-level callers see the identical stream.
"""

from __future__ import annotations

import hashlib
import operator

import numpy as np

# Philox-4x64 emits four 64-bit words per counter increment.
_PHILOX_BLOCK_WORDS = 4

# Widest block that always spans at most two 64-bit words at any offset.
_FAST_BLOCK_BITS = 57


def normalize_hex_seed(master_hex: str) -> str:
    """Canonicalize a hex master seed (strip 0x, lowercase, even length)."""
    s = master_hex.strip().lower()
    if s.startswith("0x"):
        s = s[2:]
    if s == "":
        s = "00"
    if len(s) % 2:
        s = "0" + s
    int(s, 16)  # raises ValueError on junk
    return s


def derive_key(master_hex: str, *labels: object) -> int:
    """Derive a 128-bit Philox key from a master seed and context labels.

    Distinct label tuples give independent streams from one master seed.
    """
    h = hashlib.sha256()
    h.update(bytes.fromhex(normalize_hex_seed(master_hex)))
    for lab in labels:
        h.update(b"/")
        h.update(str(lab).encode("utf-8"))
    return int.from_bytes(h.digest()[:16], "big")


def subseed(master_hex: str, *labels: object) -> str:
    """Derive a fresh 128-bit hex master seed for a labelled sub-stream."""
    h = hashlib.sha256()
    h.update(bytes.fromhex(normalize_hex_seed(master_hex)))
    for lab in labels:
        h.update(b"|")
        h.update(str(lab).encode("utf-8"))
    return h.hexdigest()[:32]


def as_index(value, name: str) -> int:
    """``value`` as an int, or ValueError naming ``name`` if it is not an
    integer (``operator.index`` fails: a float such as 1.5, a string)."""
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None


def _philox_blocks(words_per_index: int) -> int:
    return -(-words_per_index // _PHILOX_BLOCK_WORDS)


def philox_at(key: int, index: int, words_per_index: int) -> np.random.Philox:
    """Philox bit generator whose next words are those of stream ``index``.

    Index i always occupies Philox counters [i*b, (i+1)*b) for
    b = ceil(wpi/4) blocks, so the words are independent of batching.
    """
    index = as_index(index, "index")
    if words_per_index <= 0 or index < 0:
        raise ValueError("index must be non-negative and width positive")
    return np.random.Philox(key=key, counter=index * _philox_blocks(words_per_index))


def _philox_words(
    key: int, index: int, count: int, words_per_index: int, bitgen: np.random.Philox | None = None
) -> np.ndarray:
    """Raw words for indices [index, index+count), shape (count, wpi).

    ``bitgen`` continues a draw: it must come from
    ``philox_at(key, index, wpi)``, or its last draw here must have ended
    with index - 1. Each index reads whole 4-word Philox blocks, so a draw
    leaves the counter at the first block of the next index. Without it a
    fresh generator is built, which costs more than drawing a few rows.
    """
    if count < 0 or words_per_index <= 0 or index < 0:
        raise ValueError("index/count must be non-negative and width positive")
    if bitgen is None:
        bitgen = philox_at(key, index, words_per_index)
    blocks = _philox_blocks(words_per_index)
    raw = bitgen.random_raw(count * blocks * _PHILOX_BLOCK_WORDS)
    return raw.reshape(count, blocks * _PHILOX_BLOCK_WORDS)[:, :words_per_index]


def stream_words(
    key: int, index: int, count: int, nwords: int, bitgen: np.random.Philox | None = None
) -> np.ndarray:
    """Native uint64 view of the per-index bitstreams (word j holds stream
    bits [64j, 64j+64), MSB first). ``bitgen`` is as for
    :func:`_philox_words`."""
    return _philox_words(key, index, count, nwords, bitgen)


def stream_bytes(key: int, index: int, count: int, nbytes: int) -> np.ndarray:
    """Byte view of the per-index bitstreams, shape (count, nbytes)."""
    nwords = -(-nbytes // 8)
    words = _philox_words(key, index, count, nwords)
    data = words.astype(">u8").view(np.uint8).reshape(count, nwords * 8)
    return data[:, :nbytes]


def extract_blocks_from_words(words: np.ndarray, n_blocks: int, block_bits: int) -> np.ndarray:
    """Read consecutive block_bits-wide big-endian integers from each row.

    Block j of a row covers stream bits [j*block_bits, (j+1)*block_bits).
    Requires block_bits <= 57 so every block spans at most two words.
    Returns uint64 (values < 2^block_bits).
    """
    if block_bits < 1 or block_bits > _FAST_BLOCK_BITS:
        raise ValueError(f"block_bits must be in 1..{_FAST_BLOCK_BITS}")
    rows, nwords = words.shape
    if n_blocks * block_bits > nwords * 64:
        raise ValueError(f"rows carry {nwords * 64} bits, need {n_blocks * block_bits}")
    offsets = np.arange(n_blocks, dtype=np.int64) * block_bits
    wi = offsets >> 6
    r = (offsets & 63).astype(np.uint64)
    if int(wi[-1]) + 1 >= nwords:
        ext = np.zeros((rows, int(wi[-1]) + 2), dtype=np.uint64)
        ext[:, :nwords] = words
        words = ext
    hi = np.take(words, wi, axis=1)
    lo = np.take(words, wi + 1, axis=1)
    np.left_shift(hi, r, out=hi)
    # (lo >> 1) >> (63 - r) == lo >> (64 - r) without the undefined r = 0 case
    np.right_shift(lo, np.uint64(1), out=lo)
    np.right_shift(lo, np.uint64(63) - r, out=lo)
    np.bitwise_or(hi, lo, out=hi)
    np.right_shift(hi, np.uint64(64 - block_bits), out=hi)
    return hi


def extract_blocks(data: np.ndarray, n_blocks: int, block_bits: int) -> np.ndarray:
    """Consecutive block_bits-wide big-endian integers of each byte row, of
    any width, as an object array of exact Python integers.

    Block j of a row covers stream bits [j*block_bits, (j+1)*block_bits)
    and is read from the bytes that hold it.
    """
    if data.ndim != 2 or data.dtype != np.uint8:
        raise ValueError("data must be a 2-D uint8 array")
    if block_bits < 1:
        raise ValueError("block_bits must be positive")
    rows, nbytes = data.shape
    if n_blocks * block_bits > nbytes * 8:
        raise ValueError(f"rows carry {nbytes * 8} bits, need {n_blocks * block_bits}")
    out = np.empty((rows, n_blocks), dtype=object)
    mask = (1 << block_bits) - 1
    # Block j ends at stream bit e = (j+1)*block_bits, so it lies in bytes
    # [(e - block_bits) // 8, ceil(e / 8)) with -e % 8 bits after it.
    ends = range(block_bits, (n_blocks + 1) * block_bits, block_bits)
    for row in range(rows):
        raw = data[row].tobytes()
        out[row] = [
            (int.from_bytes(raw[(e - block_bits) >> 3 : (e + 7) >> 3], "big") >> (-e % 8)) & mask
            for e in ends
        ]
    return out
