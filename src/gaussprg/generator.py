"""Blended-design pseudorandom generator for polynomial threshold functions.

The output law is a geometrically weighted average of ell independent
moment designs,

    Y = sum_{i=1..ell} w_i Y_i,   w_i ∝ (sqrt(1 - delta^2))^(i-1),

normalized so sum w_i^2 = 1, which makes every coordinate have unit
variance (up to the designs' statistical-distance slack). Each Y_i is an
n-dimensional design built from a k-wise independent family mapped onto
Gauss-Hermite atoms; all ell designs share one sampler description but
consume disjoint ranges of the master bitstream.

Parameter plan for accuracy target eps and exponent k against degree-d
threshold functions: delta = eps^(1/3), ell = ceil(delta^-2 * ln(eps^-k(2d+1))),
design order 10*d*(3k+3), per-design statistical budget eps^k/(n*ell).
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass

import numpy as np

from ._bits import as_index, derive_key, philox_at, stream_words
from .designs import _MAX_QUAD_POINTS, _design_atoms, _reduce, _shift_in, _shift_steps
from .designs import (
    DesignSampler,
    build_sampler,
    sampler_to_json,
    seed_bits,
    symbols_from_bytes,
)

__all__ = [
    "GeneratorConfig",
    "blend_weights",
    "plan",
    "total_seed_bits",
    "seed_breakdown",
    "sample",
    "sample_batch",
    "config_to_json",
]

_MAX_ELL = 2**62
# The most output terms (ell * n) and the most Philox words that one sample
# may need: sample_batch holds a whole row at once. One row, in a child
# process under a 2 GB RLIMIT_AS with one BLAS thread on a 2-vCPU VM, peaked at
# - 4.19M terms (n = 2^16, ell 64): 550 MiB at plan(65536,1,1,0.001,64) and
#   912 MiB at k = 3, 528 MiB of it held before the row (the table);
# - 4.0M words (n = 1, ell 70,000): 407 MiB;
# - 4.19M terms and 3.4M words (n = 146, d = 2): 719 MiB.
# A row of 23M words (n = 1, epsilon 1e-6) ran out of the address space.
_MAX_ROW_SIZE = 2**22


def _check_unit(name: str, value: float) -> None:
    if not 0.0 < value < 1.0:
        raise ValueError(f"{name} must lie in (0, 1)")


def blend_weights(delta: float, ell: int) -> np.ndarray:
    """Unit-norm geometric blend weights w_i ∝ (1-delta^2)^((i-1)/2), as a
    float64 array of length ell; sum of squares is exactly 1.

    Built by cumulative products so consecutive ratios equal
    sqrt(1 - delta^2) to the last ulp.
    """
    _check_unit("delta", delta)
    if ell < 1:
        raise ValueError("ell must be >= 1")
    beta = math.sqrt(1.0 - delta * delta)
    raw = np.cumprod(np.concatenate(([1.0], np.full(ell - 1, beta))))
    z = math.sqrt(float(np.sum(raw * raw)))
    return raw / z


@dataclass(frozen=True)
class GeneratorConfig:
    """Generator plan: (n, d, k, epsilon, ell_cap), checked by :func:`plan`.
    Every other parameter is derived from them (see the module docstring)."""

    n: int
    d: int
    k: int
    epsilon: float
    ell_cap: int | None = None

    @property
    def delta(self) -> float:
        return self.epsilon ** (1.0 / 3.0)

    @functools.cached_property
    def ell_formula(self) -> int:
        """ceil(delta^-2 * ln(eps^-k(2d+1))), or ValueError past 2^62."""
        log_term = self.k * (2 * self.d + 1) * math.log(1.0 / self.epsilon)
        raw_ell = self.delta**-2 * log_term
        # No cap rescues such a chain: q >= M*n*ell / eps^k >= 31 / eps^k and
        # q <= 2^62 need eps^k >= 31 * 2^-62, which keeps raw_ell below 2^46.
        if not math.isfinite(raw_ell) or raw_ell > _MAX_ELL:
            raise ValueError("chain length overflows")
        return max(1, math.ceil(raw_ell))

    @property
    def ell(self) -> int:
        return self.ell_formula if self.ell_cap is None else min(self.ell_formula, self.ell_cap)

    @property
    def truncated(self) -> bool:
        return self.ell_cap is not None and self.ell_cap < self.ell_formula

    @property
    def tv_budget(self) -> float:
        return self.epsilon**self.k / (self.n * self.ell)

    @functools.cached_property
    def sampler(self) -> DesignSampler:
        """The one sampler that all ell designs share."""
        design_order, quad_points = _design_size(self.d, self.k)
        return build_sampler(quad_points, design_order, self.n, self.tv_budget)

    @property
    def q(self) -> int:
        return self.sampler.q

    @property
    def kwise_order(self) -> int:
        return self.sampler.family.k

    @property
    def block_bits(self) -> int:
        return self.sampler.block_bits


def _design_size(d: int, k: int) -> tuple[int, int]:
    """Design order 10*d*(3k+3) for degree d and exponent k, and the fewest
    Gauss-Hermite points M with 2M-1 >= that order; raises where M is above
    the rule's limit of 64 points."""
    design_order = 10 * d * (3 * k + 3)
    quad_points = (design_order + 2) // 2
    if quad_points > _MAX_QUAD_POINTS:
        raise ValueError(
            f"(d, k) = ({d}, {k}) needs a {quad_points}-point Gauss-Hermite rule; the limit is {_MAX_QUAD_POINTS}"
        )
    return design_order, quad_points


def plan(n: int, d: int, k: int, epsilon: float, ell_cap: int | None = None) -> GeneratorConfig:
    """Derive all generator parameters for (n, d, k, epsilon).

    Raises ValueError if n, d or k is not an integer >= 1, if n is above
    2^16, if the design needs more Gauss-Hermite points than the rule has,
    if the chain length formula passes 2^62 (with or without ell_cap, as
    no such plan meets its budget), if the statistical budget needs a
    modulus beyond 2^62 or if one sample needs more than ``_MAX_ROW_SIZE``
    output terms (ell * n) or Philox words.
    """
    _check_unit("epsilon", epsilon)
    n, d, k = as_index(n, "n"), as_index(d, "d"), as_index(k, "k")
    if d < 1 or k < 1 or n < 1:
        raise ValueError("need n, d, k >= 1")
    _design_size(d, k)
    if ell_cap is not None:
        ell_cap = as_index(ell_cap, "ell_cap")
    config = GeneratorConfig(n, d, k, epsilon, ell_cap)
    if config.ell < 1:
        raise ValueError("ell_cap must be >= 1")
    # total_seed_bits builds the sampler, which runs its own checks first.
    words = -(-total_seed_bits(config) // 64)
    if max(config.ell * n, words) > _MAX_ROW_SIZE:
        raise ValueError(
            f"one sample needs {config.ell * n} output terms (ell * n) and {words} Philox words;"
            f" each must be <= {_MAX_ROW_SIZE}"
        )
    return config


def total_seed_bits(config: GeneratorConfig) -> int:
    """Master bits per output vector: ell * K * (ceil(log2 q) + 16)."""
    return config.ell * seed_bits(config.sampler)


def seed_breakdown(config: GeneratorConfig) -> dict:
    """Exact bit count plus the factors behind it."""
    return {
        "ell": config.ell,
        "K": config.kwise_order,
        "q": config.q,
        "field_bits": config.sampler.field_bits,
        "block_bits": config.block_bits,
        "bits_per_design": seed_bits(config.sampler),
        "total_seed_bits": total_seed_bits(config),
    }


def sample(config: GeneratorConfig, seed_bits_data: bytes) -> np.ndarray:
    """One output vector from an explicit bitstream, over Python integers.

    Consumes exactly total_seed_bits(config) bits; design i reads the block
    range [i*K*block_bits, (i+1)*K*block_bits). Its K symbols (blocks mod q)
    are the coefficients of a polynomial evaluated at every point by Horner's
    rule, ``bisect`` on the thresholds picks each value's atom (the steps of
    :func:`designs.design_sample`), and ``w[i] * node`` is added to each
    coordinate in chain order from 0.0.
    This is the reference that tests and the benchmark hold every
    :func:`sample_batch` row to, so it runs none of the tile pipeline's
    numpy stages (the contraction, the atom lookup, the blend).
    """
    need = total_seed_bits(config)
    if len(seed_bits_data) * 8 < need:
        raise ValueError(f"need {need} seed bits, got {len(seed_bits_data) * 8}")
    sampler, K, q = config.sampler, config.kwise_order, config.q
    data = np.frombuffer(seed_bits_data, dtype=np.uint8)[None, :]
    symbols = symbols_from_bytes(sampler, data, config.ell * K)[0].tolist()
    thresholds = sampler.thresholds.tolist()
    nodes = sampler.quadrature.nodes.tolist()
    w = blend_weights(config.delta, config.ell).tolist()
    out = [0.0] * config.n
    for i in range(config.ell):
        for j, atom in enumerate(_design_atoms(symbols[i * K : (i + 1) * K], config.n, thresholds, q)):
            out[j] += w[i] * nodes[atom]
    return np.array(out)


# Philox words per tile, in bytes: the fastest of the sizes from 2^15 to
# 2^20 in a sweep timed interleaved in one process. At this size a tile's
# arrays do not fit one core's 2 MiB L2 (about 2.5 MB at
# plan(8,1,2,0.25,200)). Tiles cut the rows anywhere: a row's bytes depend
# only on its own stream index.
_TILE_BYTES = 2**18
# Output terms (rows * ell * n) per tile, or one row where a row has more.
# The lookup, gather and blend buffers hold this many values, and the
# contraction's output this many per limb. At large n the byte rule alone
# gives tiles of millions of terms: at plan(20000,1,2,0.25,200) a 60-row
# call peaked at 713 MiB with 24 rows per tile and at 269 MiB with one.
# In a sweep at plan(n,1,2,0.25,200), 2^16 kept the byte rule's speed at
# n = 200 (15 rows against 29), where 2^14 lost a quarter of it. It does
# not bind at n <= 8.
_TILE_TERMS = 2**16
# Widest field that one unaligned 8-byte window holds at any bit phase:
# a field starting at bit 7 of its first byte must end by bit 64.
_WINDOW_BITS = 57


class _TilePipeline:
    """Tables and tile buffers of one :func:`sample_batch` call.

    Each tile runs Philox words -> B-bit blocks -> mod q -> k-wise
    contraction -> mod q -> atom lookup -> weighted-node gather ->
    chain-order blend. Blocks are read from unaligned big-endian 8-byte
    windows of the tile's bytes. The contraction is the family's
    ``designs._Contraction`` and the lookup the sampler's
    ``DesignSampler._lookup``; both are cached on their owners. The rest
    is built here:

    - ``fields``: where each block's bit fields sit in a row's bytes.
    - ``weighted``: ``w[i] * node`` of atom c at ``i*M + c``, the term that
      the chain-order blend adds for design i; ``offsets`` holds ``i*M``.

    The stages write into buffers allocated once per call. Only the Philox
    words and the window gather are new arrays in each tile, and they are
    the same size every time, so the allocator hands back the same memory
    instead of mapping fresh pages.
    """

    def __init__(self, config: GeneratorConfig, nwords: int, rows: int):
        sampler = config.sampler
        fam = sampler.family
        q, K, n, ell = fam.q, fam.k, fam.n, config.ell
        self.ell, self.K, self.nwords = ell, K, nwords
        B = sampler.block_bits
        starts = np.arange(ell * K, dtype=np.int64) * B

        def field(pos: int, width: int):
            bits = starts + pos
            return bits >> 3, (bits & 7).astype(np.uint64), np.uint64(64 - width)

        # A block is its top min(B, 57) bits, reduced mod q, then for
        # B > 57 its last B - 57 bits, shifted in by reduced steps. As
        # q <= 2^62, B <= 78, so that tail is at most 21 bits: one window.
        self.fields = [field(0, min(B, _WINDOW_BITS))]
        if (tail := B - _WINDOW_BITS) > 0:
            self.fields.append(field(_WINDOW_BITS, tail) + (_shift_steps(q, tail, 2**tail - 1),))
        self.contraction = fam._contraction
        self.lookup = sampler._lookup
        w = blend_weights(config.delta, ell)
        self.weighted = (w[:, None] * sampler.quadrature.nodes).ravel()
        self.offsets = np.arange(ell)[:, None, None] * sampler.M
        # One zero word after each row backs windows that start in the
        # row's last 7 bytes.
        self.words = np.zeros((rows, nwords + 1), dtype=np.uint64)
        stride = self.words.strides[0]
        # windows[r, i] is the big-endian 8-byte word at byte i of row r.
        self.windows = np.ndarray(
            (rows, stride - 7), dtype=">u8", buffer=self.words, strides=(stride, 1)
        )
        shape = (rows, ell * K)
        self.blocks = np.empty(shape, dtype=np.uint64)
        self.quot = np.empty(shape, dtype=np.uint64)
        if len(self.fields) > 1:
            self.tail = np.empty(shape, dtype=np.uint64)
        m = rows * ell
        self.contraction_buffers = self.contraction.buffers(m)
        # Lookup and gather buffers, design-major (ell, rows, n). They are
        # flat so that every tile's prefix is contiguous.
        self.bucket = np.empty(m * n, dtype=np.int64)
        self.atom = np.empty(m * n, dtype=self.lookup.buckets.dtype)
        self.idx = np.empty(m * n, dtype=np.intp)
        self.terms = np.empty(m * n)

    def _field(self, rows: int, spec, out: np.ndarray) -> np.ndarray:
        byte, shift, right = spec[:3]
        np.left_shift(self.windows[:rows, byte], shift, out=out)
        return np.right_shift(out, right, out=out)

    def _symbols(self, rows: int) -> np.ndarray:
        """Blocks mod q, shape (rows * ell, K)."""
        fields, q = self.fields, self.contraction.q
        quot = self.quot[:rows]
        blocks = self._field(rows, fields[0], self.blocks[:rows])
        _reduce(blocks, q, quot)
        for spec in fields[1:]:
            _shift_in(blocks, spec[3], self._field(rows, spec, self.tail[:rows]), q, quot)
        return blocks.view(np.int64).reshape(rows * self.ell, self.K)

    def run(self, words: np.ndarray, out: np.ndarray) -> None:
        rows, n = out.shape
        self.words.view(">u8")[:rows, : self.nwords] = words
        v = self.contraction(self._symbols(rows), self.contraction_buffers).view(np.int64)
        # Design-major views, so the blend adds contiguous (rows, n) terms.
        v = v.reshape(rows, self.ell, n).transpose(1, 0, 2)
        shape, size = v.shape, v.size
        atom = self.lookup(v, self.bucket[:size].reshape(shape), self.atom[:size].reshape(shape))
        idx = np.add(atom, self.offsets, out=self.idx[:size].reshape(shape))
        terms = np.take(self.weighted, idx, out=self.terms[:size].reshape(shape))
        # Chain order from 0.0, as sample() adds them.
        np.add(terms[0], 0.0, out=out)
        for term in terms[1:]:
            np.add(out, term, out=out)


def sample_batch(
    config: GeneratorConfig, master_seed: str, count: int, start: int = 0
) -> np.ndarray:
    """Outputs for seed indices [start, start+count) under a hex master seed.

    Sample i is a pure function of (master_seed, i): batching and worker
    layout never change the stream. A count or start that is not a
    non-negative integer raises ValueError.
    """
    count, start = as_index(count, "count"), as_index(start, "start")
    for name, value in (("count", count), ("start", start)):
        if value < 0:
            raise ValueError(f"{name} must be >= 0, got {value}")
    key = derive_key(master_seed, "generator", config.n, config.d, config.k, config.epsilon, config.ell)
    out = np.empty((count, config.n))
    nwords = -(-total_seed_bits(config) // 64)
    rows = max(1, min(count, _TILE_BYTES // (8 * nwords), _TILE_TERMS // (config.ell * config.n)))
    pipe = _TilePipeline(config, nwords, rows)
    # Tiles read consecutive indices, so one bit generator serves them all.
    bitgen = philox_at(key, start, nwords)
    for lo in range(0, count, rows):
        hi = min(lo + rows, count)
        pipe.run(stream_words(key, start + lo, hi - lo, nwords, bitgen), out[lo:hi])
    return out


def config_to_json(config: GeneratorConfig) -> str:
    obj = {
        "n": config.n,
        "d": config.d,
        "k": config.k,
        "epsilon": config.epsilon,
        "delta": config.delta,
        "ell": config.ell,
        "ell_formula": config.ell_formula,
        "ell_cap": config.ell_cap,
        "truncated": config.truncated,
        "design_order": config.kwise_order,
        "quad_points": config.sampler.M,
        "tv_budget": config.tv_budget,
        "seed": seed_breakdown(config),
        "sampler": json.loads(sampler_to_json(config.sampler)),
    }
    return json.dumps(obj, sort_keys=True)
