"""Finite-seed approximations of Gaussian moment designs.

An M-point Gauss-Hermite rule matches every Gaussian moment of order at
most 2M-1. Mapping a k-wise independent family over a prime field F_q onto
the rule's atoms (via integer threshold intervals proportional to the
weights) gives an n-dimensional random vector whose marginals are within
statistical distance M/q of the exact atom law and whose joint moments of
order <= k inherit the rule's exactness. Everything here is a pure
function of (sampler, seed), so sampling parallelizes with no coordination.

Seed accounting: one field symbol is read from a master bitstream as a
B-bit block, B = ceil(log2 q) + 16, reduced mod q without rejection. With
r = 2^B mod q, a symbol is delta = r(q-r)/(q 2^B) <= 2^-18 from uniform in
statistical distance. That bias is not charged to the budget, which sets
only q: a design's n values are a rank-min(n, K) linear image of its K
symbols, so a blend of ell designs is within ell*min(n, K)*delta of its law
under uniform symbols. At plan(8, 1, 2, 0.25, 200) that is 1.5e-4 against
a whole budget eps^k = 0.0625; at plan(4, 1, 3, 0.01, 2) it is 1.2e-5,
above eps^k = 1e-6.
"""

from __future__ import annotations

import bisect
import functools
import json
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ._bits import extract_blocks
from ._hermite_nodes import NODES

__all__ = [
    "Quadrature1D",
    "KWiseFamily",
    "DesignSampler",
    "gauss_hermite",
    "kwise_eval",
    "kwise_eval_batch",
    "thresholds_from_weights",
    "build_sampler",
    "design_sample",
    "design_sample_batch",
    "seed_bits",
    "verify_moments",
    "is_prime",
    "next_prime",
    "gaussian_moment",
    "sampler_to_json",
]

_MAX_QUAD_POINTS = 64
_MAX_PRIME = 2**62
# The largest n a sampler is built for. At plan(n, 1, 2, 0.25, 200) the
# first sample_batch row peaked at 218 MiB at n = 2^16 and 1,013 MiB at
# n = 2^18, and ran out of a 3 GB address space at n = 2^20.
_MAX_N = 2**16
# From this q on, gap targets are exact rationals. Below it they stay float
# products, which keeps every smaller plan's thresholds as they were (exact
# floors would differ for some q in [2^46, 2^53)).
_EXACT_TARGETS_Q = 2**53
# Extra bits per field symbol so that mod-q reduction bias is <= 2^-16.
EXTRA_BLOCK_BITS = 16


def is_prime(m: int) -> bool:
    """Deterministic Miller-Rabin, valid for all m < 3.3 * 10^24."""
    if m < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if m % p == 0:
            return m == p
    d, s = m - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, m)
        if x in (1, m - 1):
            continue
        for _ in range(s - 1):
            x = x * x % m
            if x == m - 1:
                break
        else:
            return False
    return True


def next_prime(m: int) -> int:
    c = max(m, 2)
    while not is_prime(c):
        c += 1
    return c


def gaussian_moment(j: int) -> float:
    """E[X^j] for standard normal X: 0 for odd j, (j-1)!! for even j."""
    if j < 0:
        raise ValueError("j must be non-negative")
    if j % 2:
        return 0.0
    out = 1.0
    for t in range(j - 1, 0, -2):
        out *= t
    return out


@dataclass(frozen=True)
class Quadrature1D:
    """Finite atom set (nodes ascending, positive weights summing to 1)."""

    nodes: np.ndarray
    weights: np.ndarray

    def __post_init__(self) -> None:
        nodes = np.asarray(self.nodes, dtype=np.float64)
        weights = np.asarray(self.weights, dtype=np.float64)
        if nodes.ndim != 1 or nodes.shape != weights.shape or nodes.size == 0:
            raise ValueError("nodes and weights must be equal-length 1-D arrays")
        if np.any(weights <= 0):
            raise ValueError("weights must be strictly positive")
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "weights", weights)

    @property
    def M(self) -> int:
        return self.nodes.size

    @property
    def order(self) -> int:
        """Highest moment order the rule matches exactly: 2M - 1."""
        return 2 * self.M - 1


def _he_values(M: int, x: float) -> np.ndarray:
    """He_0..He_M at x."""
    vals = np.empty(M + 1)
    vals[0] = 1.0
    if M >= 1:
        vals[1] = x
    for j in range(1, M):
        vals[j + 1] = x * vals[j] - j * vals[j - 1]
    return vals


def gauss_hermite(M: int) -> Quadrature1D:
    """M-point quadrature for the standard normal weight.

    Nodes are the roots of He_M, read from a frozen table
    (``_hermite_nodes``) of the positive roots and mirrored about 0, with
    0.0 in the middle for odd M. The table was generated once from a
    tridiagonal eigensolver start (Golub-Welsch) polished by Newton steps
    on He_M; freezing it keeps every rule bit for bit what it was,
    whatever LAPACK build is installed. Weights are computed from the
    Christoffel identity w = 1/sum_{j<M} He_j(x)^2/j! and symmetrized
    about 0 so symmetry holds exactly.
    """
    if not 1 <= M <= _MAX_QUAD_POINTS:
        raise ValueError(f"M must be in 1..{_MAX_QUAD_POINTS}, got {M}")
    if M == 1:
        return Quadrature1D(np.array([0.0]), np.array([1.0]))
    pos = np.array(NODES[M])
    nodes = np.concatenate((-pos[::-1], [0.0] * (M % 2), pos))
    inv_fact = 1.0 / np.array([math.factorial(j) for j in range(M)])
    weights = np.empty(M)
    for i in range(M):
        v = _he_values(M, nodes[i])
        weights[i] = 1.0 / float(np.sum(v[:M] ** 2 * inv_fact))
    weights = 0.5 * (weights + weights[::-1])
    weights /= weights.sum()
    return Quadrature1D(nodes, weights)


@dataclass(frozen=True)
class KWiseFamily:
    """Degree-(k-1) polynomial evaluation family over F_q, at the points
    0..n-1.

    A uniform seed of k field coefficients makes any k of the n evaluation
    outputs jointly uniform over F_q^k.
    """

    q: int
    k: int
    n: int

    def __post_init__(self) -> None:
        if self.q > _MAX_PRIME:
            raise ValueError(f"modulus {self.q} exceeds 2^62")
        if not is_prime(self.q):
            raise ValueError(f"modulus {self.q} is not prime")
        if self.k < 1:
            raise ValueError("independence order k must be >= 1")
        if not 1 <= self.n <= self.q:
            raise ValueError("need 1 <= n <= q distinct evaluation points")

    @functools.cached_property
    def _contraction(self) -> _Contraction:
        """The family's read-only exact contraction, built on first use."""
        return _Contraction(self.q, self.k, range(self.n))


def kwise_eval(family: KWiseFamily, seed: Sequence[int], i: int) -> int:
    """Value of the seed polynomial at evaluation point i (Horner, mod q)."""
    if not 0 <= i < family.n:
        raise ValueError(f"coordinate index {i} out of range")
    return _horner(_seed_list(family, seed), i, family.q)


def _seed_list(family: KWiseFamily, seed: Sequence[int]) -> list[int]:
    """The k seed entries as Python integers, or ValueError if they are not
    whole numbers in [0, q)."""
    seed = list(seed)
    if len(seed) != family.k:
        raise ValueError(f"seed must have exactly {family.k} entries")
    if any(not (0 <= s < family.q and s % 1 == 0) for s in seed):
        raise ValueError("seed entries must be whole numbers in [0, q)")
    return [int(s) for s in seed]


def _horner(seed: list[int], x: int, q: int) -> int:
    """sum_t seed[t] * x^t mod q over Python integers, for entries in [0, q)."""
    acc = 0
    for coef in reversed(seed):
        acc = (acc * x + coef) % q
    return acc


# Integers below 2^53 are exact in float64, so a matmul whose dot products
# stay below it is exact.
_FLOAT_EXACT = 2**53


def _limb_split(K: int, q: int) -> tuple[int, int, int, int]:
    """Limbs ``(nS, a, nP, b)`` of the exact float64 contraction mod q.

    Symbols split into nS limbs of a bits and power-table entries into nP
    limbs of b bits, so that every dot product of limbs, at most
    ``K*nS*(2^a-1)*(2^b-1)``, stays below 2^53; an unsplit side counts as
    ``q-1``. The split with the fewest blocks nS*nP wins, on ties the one
    with fewer symbol limbs. ``(1, 1)`` is chosen exactly when
    ``K*(q-1)^2 < 2^53``.
    """
    bits = (q - 1).bit_length()
    best = None
    for nS in range(1, bits + 1):
        if best is not None and nS > best[0] * best[2]:
            break
        a = -(-bits // nS)
        sym_max = q - 1 if nS == 1 else 2**a - 1
        for nP in range(1, bits + 1):
            b = -(-bits // nP)
            tab_max = q - 1 if nP == 1 else 2**b - 1
            if K * nS * sym_max * tab_max < _FLOAT_EXACT:
                if best is None or nS * nP < best[0] * best[2]:
                    best = (nS, a, nP, b)
                break
    return best


def _shift_steps(q: int, width: int, low_max: int) -> list[int]:
    """Shift widths that take r < q to ``(r << width) + low`` mod q in
    uint64, for any ``low <= low_max``, reducing after each shift: every
    ``(q-1) << s`` stays below 2^64, and the last shift leaves room for
    ``low``."""
    span = 64 - (q - 1).bit_length()
    last = span
    while ((q - 1) << last) + low_max >= 2**64:
        last -= 1
    last = min(last, width)
    rest = width - last
    steps = [span] * (rest // span)
    if rest % span:
        steps.append(rest % span)
    return steps + [last]


def _reduce(x: np.ndarray, q: np.uint64, quot: np.ndarray) -> None:
    """x <- x mod q in place for uint64 x; quot is scratch of x's shape."""
    # x - (x // q) * q: uint64 division by a scalar is far cheaper than %
    np.floor_divide(x, q, out=quot)
    np.multiply(quot, q, out=quot)
    np.subtract(x, quot, out=x)


def _shift_in(r: np.ndarray, steps: list[int], low: np.ndarray, q: np.uint64, quot: np.ndarray) -> None:
    """r <- ((r << sum(steps)) + low) mod q for r < q, in uint64."""
    for s in steps[:-1]:
        np.left_shift(r, np.uint64(s), out=r)
        _reduce(r, q, quot)
    np.left_shift(r, np.uint64(steps[-1]), out=r)
    np.add(r, low, out=r)
    _reduce(r, q, quot)


class _Contraction:
    """Degree-(K-1) seed polynomials at n points in [0, q), exact mod
    q <= 2^62.

    One float64 matmul of symbol limbs against the limb table (see
    :func:`_limb_split`); block (i, j) of the table is limb j of
    ``(2^(a*i) * x^t) mod q``. Built once per family (``_contraction``);
    the table is read-only and callers pass their own :meth:`buffers`.
    """

    def __init__(self, q: int, K: int, points: Sequence[int]):
        n = len(points)
        nS, a, nP, b = _limb_split(K, q)
        self.K, self.n, self.q, self.nS, self.a, self.nP = K, n, np.uint64(q), nS, a, nP
        # Row i*K + t holds the limbs of (x^t << a*i) mod q at every point
        # x. The powers come from Python integers, exact for any q <= 2^62
        # (an int64 product (q-1)*x would overflow), one power t at a time,
        # so only its nS rows are ever held as objects.
        shifts = np.uint64(b) * np.arange(nP, dtype=np.uint64)[:, None]
        mask = np.uint64(2**b - 1)
        self.table = np.empty((nS * K, nP * n))
        for t in range(K):
            powers = [pow(x, t, q) for x in points]
            rows = np.array([[(p << (a * i)) % q for p in powers] for i in range(nS)], dtype=np.uint64)
            self.table[t::K] = ((rows[:, None] >> shifts) & mask).reshape(nS, nP * n)
        self.table.setflags(write=False)
        self.combine_steps = _shift_steps(q, b, _FLOAT_EXACT - 1)

    def buffers(self, m: int) -> tuple:
        """Work arrays for up to m seed rows."""
        K, width = self.K, self.nP * self.n
        limb = np.empty((m, K), dtype=np.uint64) if self.nS > 2 else None
        return np.empty((m, self.nS * K)), limb, np.empty((m, width)), np.empty((m, width), dtype=np.uint64)

    def __call__(self, sym: np.ndarray, buffers: tuple) -> np.ndarray:
        """(m, K) int64 symbols in [0, q) -> (m, n) uint64 values, a view into buffers."""
        (m, K), n = sym.shape, self.n
        fsym, limb, acc, parts = (buf if buf is None else buf[:m] for buf in buffers)
        if self.nS == 1:
            np.copyto(fsym, sym)
        else:
            # Limb i of every symbol, a bits from bit a*i, into column block i.
            usym = sym.view(np.uint64)
            mask = np.uint64(2**self.a - 1)
            np.bitwise_and(usym, mask, out=fsym[:, :K])
            for i in range(1, self.nS):
                dst = fsym[:, i * K : (i + 1) * K]
                if i == self.nS - 1:
                    np.right_shift(usym, np.uint64(self.a * i), out=dst)
                else:
                    np.right_shift(usym, np.uint64(self.a * i), out=limb)
                    np.bitwise_and(limb, mask, out=dst)
        np.matmul(fsym, self.table, out=acc)
        # Every entry is an integer below 2^53, so the cast is exact. Limb
        # column blocks j then combine as sum_j 2^(b*j) * block_j mod q,
        # Horner-style from the top block.
        np.copyto(parts, acc, casting="unsafe")
        # acc is read no more, so its first m*n words are the quotient scratch.
        quot = acc.reshape(-1)[: m * n].view(np.uint64).reshape(m, n)
        r = parts[:, (self.nP - 1) * n :]
        _reduce(r, self.q, quot)
        for j in range(self.nP - 2, -1, -1):
            _shift_in(r, self.combine_steps, parts[:, j * n : (j + 1) * n], self.q, quot)
        return r


def kwise_eval_batch(family: KWiseFamily, seeds: np.ndarray) -> np.ndarray:
    """(B, k) seeds in [0, q) -> (B, n) int64 values at all n points, by the
    family's exact :class:`_Contraction` (the one the tile pipeline runs)."""
    seeds = np.asarray(seeds)
    if seeds.ndim != 2 or seeds.shape[1] != family.k:
        raise ValueError(f"seeds must have shape (B, {family.k})")
    # Range first: inf % 1 would warn. Integer dtypes are whole numbers.
    if seeds.size and not (
        seeds.min() >= 0 and seeds.max() < family.q and (seeds.dtype.kind in "iu" or np.all(seeds % 1 == 0))
    ):
        raise ValueError("seed entries must be whole numbers in [0, q)")
    contract = family._contraction
    return contract(np.asarray(seeds, dtype=np.int64), contract.buffers(len(seeds))).view(np.int64)


def thresholds_from_weights(weights: np.ndarray, q: int) -> np.ndarray:
    """Cumulative integer cutoffs partitioning [0, q) proportionally.

    Gap i receives about weights[i]*q units, so every gap is within one
    unit of its target. Mirror-image atoms get equal gaps whenever the
    parity of q allows it (always for an odd atom count, where the middle
    atom absorbs the odd unit), making odd moments of the discretized law
    vanish exactly. Atoms whose mass rounds below the 1/q resolution keep
    a gap of zero: dropping ~0 mass distorts the law far less than
    inflating it to a full unit would.
    """
    weights = np.asarray(weights, dtype=np.float64)
    M = weights.size
    if q < M:
        raise ValueError(f"q={q} is too coarse for {M} atoms")
    if q < _EXACT_TARGETS_Q:
        targets = weights * q
    else:
        # Float products lose the exact gap sum here. A float weight is a
        # dyadic rational, so Fraction(w) * q floors exactly; dividing by the
        # weights' exact sum keeps their rounding (~1e-16 * q units) out of
        # the remainder. Imported here so that importing the package does
        # not load fractions and decimal.
        from fractions import Fraction

        exact = [Fraction(w) for w in weights.tolist()]
        total = sum(exact)
        targets = [w * q / total for w in exact]
    gaps = [0] * M
    h = M // 2
    for i in range(h):
        gaps[i] = gaps[M - 1 - i] = int(math.floor(targets[i]))
    if M % 2:
        gaps[h] = int(math.floor(targets[h]))
    rem = q - sum(gaps)
    if M % 2 and rem % 2:
        gaps[h] += 1
        rem -= 1
    odd_unit = 0
    if M % 2 == 0 and rem % 2:
        odd_unit = 1
        rem -= 1
    # Pair units go to the largest fractional remainders (ties: outermost).
    fracs = sorted(range(h), key=lambda i: (-(targets[i] - math.floor(targets[i])), i))
    for i in fracs[: rem // 2]:
        gaps[i] += 1
        gaps[M - 1 - i] += 1
    if odd_unit:
        # upper side of the pair left with the largest deficit, so every
        # gap stays within one unit of its target
        j = max(range(h), key=lambda i: (targets[i] - gaps[i], -i), default=0)
        gaps[M - 1 - j] += 1
    thresholds = np.cumsum(np.array(gaps, dtype=np.int64))
    if thresholds[-1] != q:
        raise ValueError(f"gap allocation for q={q} does not partition [0, q)")
    return thresholds


# The atom lookup's bucket table has at most 2^16 entries.
_BUCKET_BITS = 16


class _AtomLookup:
    """Atom index 0..M-1 of every field value, read from a bucket table.

    Value v falls in bucket ``v >> shift``, with at most 2^16 buckets. A
    bucket holds the atom of every value in it, or -1 where a threshold
    below q falls inside it; only values in such buckets go through
    ``searchsorted`` on the thresholds. Built once per sampler
    (``DesignSampler._lookup``); its arrays are read-only and callers may
    pass their own buffers.
    """

    def __init__(self, thresholds: np.ndarray, q: int):
        self.thresholds = np.array(thresholds, dtype=np.int64)
        self.shift = max(0, (q - 1).bit_length() - _BUCKET_BITS)
        # Bucket b holds the atom of its lowest value b << shift: the number
        # of thresholds at or below it, so atom c fills the buckets from
        # ceil(th[c-1] / 2^shift) up to ceil(th[c] / 2^shift), none if its
        # gap is zero. Then -1 marks each bucket that a threshold below q
        # falls inside. The dtype is the smallest signed one that holds -1
        # and every atom index.
        th, M = self.thresholds, self.thresholds.size
        first = -(-th // 2**self.shift)
        self.buckets = np.repeat(np.arange(M, dtype=np.min_scalar_type(-M)), np.diff(first, prepend=0))
        inner = th[(th < q) & (th & (2**self.shift - 1) != 0)]
        self.buckets[inner >> self.shift] = -1
        for arr in (self.thresholds, self.buckets):
            arr.setflags(write=False)

    def __call__(
        self, v: np.ndarray, scratch: np.ndarray | None = None, out: np.ndarray | None = None
    ) -> np.ndarray:
        """Atom of every int64 value ``0 <= v < q``, written to out (of the
        buckets' dtype and v's shape); scratch is an int64 array of v's
        shape. Either is allocated when not given."""
        if out is None:
            out = np.empty(v.shape, dtype=self.buckets.dtype)
        bucket = np.right_shift(v, self.shift, out=scratch) if self.shift else v
        np.take(self.buckets, bucket, out=out)
        if out.size and out.min() < 0:
            split = out < 0
            out[split] = np.searchsorted(self.thresholds, v[split], side="right")
        return out


@dataclass(frozen=True)
class DesignSampler:
    """Deterministic map from k field-symbol seeds to n atom coordinates.

    tv_bound = M/q bounds the statistical distance between each
    coordinate's law (under a uniform seed) and the exact atom law.
    """

    quadrature: Quadrature1D
    family: KWiseFamily

    @functools.cached_property
    def thresholds(self) -> np.ndarray:
        """Cumulative atom cutoffs in [0, q) (:func:`thresholds_from_weights`)."""
        return thresholds_from_weights(self.quadrature.weights, self.q)

    @property
    def q(self) -> int:
        return self.family.q

    @property
    def n(self) -> int:
        return self.family.n

    @property
    def M(self) -> int:
        return self.quadrature.M

    @property
    def tv_bound(self) -> float:
        return self.M / self.q

    @property
    def gaps(self) -> np.ndarray:
        """Seed values per atom (int64): atom c takes [thresholds[c-1], thresholds[c])."""
        return np.diff(self.thresholds, prepend=0)

    @property
    def exact_tv(self) -> float:
        """Realized per-coordinate statistical distance to the atom law."""
        return 0.5 * float(np.abs(self.gaps / self.q - self.quadrature.weights).sum())

    @property
    def atom_probs(self) -> np.ndarray:
        return self.gaps / self.q

    @property
    def is_symmetric(self) -> bool:
        gaps = self.gaps
        return bool(np.array_equal(gaps, gaps[::-1]))

    @property
    def field_bits(self) -> int:
        """ceil(log2 q): bits that index one field element."""
        return (self.q - 1).bit_length()

    @property
    def block_bits(self) -> int:
        """Master-bitstream block per field symbol (widened for bias)."""
        return self.field_bits + EXTRA_BLOCK_BITS

    @functools.cached_property
    def _lookup(self) -> _AtomLookup:
        """The sampler's read-only atom lookup, built on first use."""
        return _AtomLookup(self.thresholds, self.q)


def seed_bits(sampler: DesignSampler) -> int:
    """Master-bitstream bits consumed per design sample: k * block_bits.

    Each of the k field symbols is a (ceil(log2 q) + 16)-bit block reduced
    mod q, without rejection. The reduction bias is not charged to tv_bound
    (see the module docstring).
    """
    return sampler.family.k * sampler.block_bits


def _check_n(n: int) -> None:
    if n > _MAX_N:
        raise ValueError(f"n must be <= {_MAX_N}, got {n}")


def build_sampler(M: int, K: int, n: int, tv_budget: float) -> DesignSampler:
    """Smallest-prime sampler meeting a per-coordinate statistical budget.

    q is the smallest prime >= max(n+1, ceil(M/tv_budget)), so that
    tv_bound = M/q <= tv_budget while all n evaluation points stay distinct.
    Raises ValueError for an n above ``_MAX_N``, before anything of size n
    is made.
    """
    _check_n(n)
    if not tv_budget > 0:
        raise ValueError("tv_budget must be positive")
    lo = max(n + 1, math.ceil(M / tv_budget))
    q = next_prime(lo) if lo <= _MAX_PRIME else lo
    if q > _MAX_PRIME:
        raise ValueError(f"tv_budget {tv_budget} needs a prime beyond 2^62")
    sampler = DesignSampler(gauss_hermite(M), KWiseFamily(q, K, n))
    if sampler.exact_tv > sampler.tv_bound:
        raise ValueError(
            f"q={q} too coarse for the {M}-atom rule (tv {sampler.exact_tv:.3g})"
        )
    return sampler


def _design_atoms(seed: list[int], n: int, thresholds: list[int], q: int) -> list[int]:
    """Atom of the seed polynomial's value at each point 0..n-1, over Python
    integers: Horner's rule mod q, then ``bisect`` on the thresholds."""
    return [bisect.bisect_right(thresholds, _horner(seed, x, q)) for x in range(n)]


def design_sample(sampler: DesignSampler, seed: Sequence[int]) -> np.ndarray:
    """One n-coordinate design draw from k field symbols, checked as
    :func:`kwise_eval` checks them. It runs over Python integers and is the
    reference that :func:`design_sample_batch` is held to."""
    fam = sampler.family
    atoms = _design_atoms(_seed_list(fam, seed), fam.n, sampler.thresholds.tolist(), fam.q)
    return sampler.quadrature.nodes[atoms]


def design_sample_batch(sampler: DesignSampler, seeds: np.ndarray) -> np.ndarray:
    """(B, k) seed batch -> (B, n) coordinate batch, by the family's
    contraction and the sampler's atom lookup (the tile pipeline's two)."""
    return sampler.quadrature.nodes[sampler._lookup(kwise_eval_batch(sampler.family, seeds))]


def symbols_from_bytes(sampler: DesignSampler, data: np.ndarray, n_symbols: int) -> np.ndarray:
    """Leading block_bits-wide blocks of each byte row mod q, as int64; the
    blocks are read and reduced as exact Python integers."""
    return (extract_blocks(data, n_symbols, sampler.block_bits) % sampler.q).astype(np.int64)


def design_sample_batch_f64(sampler: DesignSampler, seeds_f64: np.ndarray) -> np.ndarray:
    """:func:`design_sample_batch` of float64 seeds; needs k*(q-1)^2 < 2^53."""
    if sampler.family.k * (sampler.q - 1) ** 2 >= _FLOAT_EXACT:
        raise ValueError("q too large for the exact float64 contraction")
    return design_sample_batch(sampler, seeds_f64)


def _paired_moment(nodes: np.ndarray, probs: np.ndarray, order: int, symmetric: bool) -> float:
    """Atom moment; mirror pairs are summed jointly so that symmetric laws
    give exactly 0.0 for odd orders."""
    M = nodes.size
    powers = nodes
    for _ in range(order - 1):
        powers = powers * nodes
    if not symmetric:
        return float(np.sum(probs * powers))
    total = 0.0
    for i in range(M // 2):
        j = M - 1 - i
        total += probs[i] * powers[i] + probs[j] * powers[j]
    if M % 2:
        total += probs[M // 2] * powers[M // 2]
    return total


_UNIT = 25_000  # fixed Monte-Carlo work-unit size (samples per unit)
# The most seeds Monte-Carlo moments draw: at about 32 bytes per sample at
# peak, 2^25 samples hold about 1 GiB.
_MAX_MC_SAMPLES = 2**25


def _tv_tolerance(sampler: DesignSampler, orders: tuple[int, ...]) -> float:
    """TV-propagated deviation allowance for a product of coordinate powers.

    Single coordinate, order j: 4 * max|node|^j * tv. Cross moments use the
    exact product structure of the joint law (k >= 2): the (1,1) moment is a
    product of two means, each off by at most 2*tv*max, giving 2*max^2*tv;
    the (2,2) moment multiplies two second moments each off by 2*tv*max^2,
    giving 8*max^4*tv with the quadratic term absorbed.
    """
    peak = float(np.max(np.abs(sampler.quadrature.nodes)))
    scale = max(peak, 1.0) ** sum(orders)
    if len(orders) == 1:
        return 4.0 * scale * sampler.tv_bound
    if orders == (1, 1):
        return 2.0 * scale * sampler.tv_bound
    return 8.0 * scale * sampler.tv_bound


def _check_mode(mode: str) -> None:
    if mode not in ("exhaustive", "mc"):
        raise ValueError(f"unknown mode {mode!r}")


def verify_moments(
    sampler: DesignSampler,
    max_order: int,
    mode: str = "exhaustive",
    n_samples: int = 10**6,
    rng_seed: int = 0,
) -> tuple[dict, ...]:
    """Compare per-coordinate and pairwise moments with Gaussian targets:
    one row of the ``moments`` CSV per check, with the columns ``scope``,
    ``orders`` (``"1x1"`` for the (1, 1) cross moment), ``empirical``,
    ``target``, ``tolerance`` and ``passed`` (1 iff the empirical value is
    within the tolerance of the target).

    Exhaustive mode reads the exact law of the design over all q^k seeds
    from the thresholds and checks against the TV-propagated bound: each
    coordinate's atom law is gaps / q and, for k >= 2, the pair's is the
    outer product of gaps over q^2, since any one value of the family is
    uniform on F_q and any two are uniform on F_q^2. It costs O(M^2) for
    every q and k. Monte-Carlo mode draws
    ``n_samples`` seeds (2 to ``_MAX_MC_SAMPLES``) in 25,000-seed units, evaluates only
    coordinates 0 and 1 (about 32 bytes per sample at peak) and checks
    against that bound plus 4 standard errors. Only orders 1..max_order
    (max_order >= 1) that the quadrature matches (<= 2M-1) are compared.
    """
    if max_order < 1:
        raise ValueError(f"max_order must be >= 1, got {max_order}")
    _check_mode(mode)
    k = sampler.family.k
    nodes = sampler.quadrature.nodes
    orders = [j for j in range(1, max_order + 1) if j <= sampler.quadrature.order]
    m = min(sampler.n, 2)
    # (scope, orders, target) of every check; each mode appends one
    # (empirical, standard error) per check, in this order.
    specs = [(f"coord {i}", (j,), gaussian_moment(j)) for i in range(m) for j in orders]
    cross = [] if sampler.n < 2 or k < 2 else [((1, 1), 0.0)]
    if cross and max_order >= 4 and k >= 4 and sampler.quadrature.order >= 2:
        cross.append(((2, 2), 1.0))
    specs += [("cross (0,1)", o, target) for o, target in cross]
    stats: list[tuple[float, float]] = []
    if mode == "exhaustive":
        # Every coordinate has the one atom law gaps / q. A pair of values
        # is uniform on F_q^2 for k >= 2, as the 2 x k Vandermonde matrix
        # has rank 2. The gaps are float64: an int64 outer product
        # overflows at plan-scale q.
        sym = sampler.is_symmetric
        stats += m * [(_paired_moment(nodes, sampler.atom_probs, j, sym), 0.0) for j in orders]
        if cross:
            gaps = sampler.gaps.astype(np.float64)
            atom_pair = np.outer(gaps, gaps) / float(sampler.q**2)
            stats += [(float(nodes ** o[0] @ atom_pair @ nodes ** o[1]), 0.0) for o, _ in cross]
    else:  # "mc"
        if n_samples < 2:
            raise ValueError(f"n_samples must be >= 2 for Monte-Carlo moments, got {n_samples}")
        if n_samples > _MAX_MC_SAMPLES:
            raise ValueError(f"n_samples must be <= {_MAX_MC_SAMPLES} for Monte-Carlo moments, got {n_samples}")
        rng = np.random.Generator(np.random.Philox(key=rng_seed))
        # Only coordinates 0 and 1 are checked, so only their two evaluation
        # points are contracted and kept, one contiguous row each. Seeds are
        # drawn unit by unit: chunked integers() calls on one Generator give
        # the rows of a single call, and the contraction is exact, so the
        # rows do not depend on the unit size.
        head = KWiseFamily(sampler.q, k, m)
        Y = np.empty((m, n_samples))
        for lo in range(0, n_samples, _UNIT):
            seeds = rng.integers(0, sampler.q, size=(min(_UNIT, n_samples - lo), k), dtype=np.int64)
            Y[:, lo : lo + len(seeds)] = nodes[sampler._lookup(kwise_eval_batch(head, seeds))].T

        def mean_se(x: np.ndarray) -> tuple[float, float]:
            return float(x.mean()), float(x.std(ddof=1) / math.sqrt(n_samples))

        # Powers are running products (orders run 1, 2, ...), as numpy's power
        # has CPU-dependent last bits. Each product is built in place in one
        # scratch row, which is bit for bit the product into a new array.
        scratch = np.empty(n_samples)
        for col in Y:
            powers = col
            for j in orders:
                if j == 2:
                    powers = np.multiply(col, col, out=scratch)
                elif j > 2:
                    powers *= col
                stats.append(mean_se(powers))
        if cross:
            stats.append(mean_se(np.multiply(Y[0], Y[1], out=scratch)))
        if len(cross) > 1:
            np.multiply(Y[1], Y[1], out=Y[1])  # row 1 is not read again
            prod2 = np.multiply(Y[0], Y[0], out=scratch)
            prod2 *= Y[1]
            stats.append(mean_se(prod2))
    rows = []
    for (scope, o, target), (emp, se) in zip(specs, stats):
        tol = _tv_tolerance(sampler, o) + 4.0 * se
        row = {"scope": scope, "orders": "x".join(map(str, o)), "empirical": emp, "target": target}
        rows.append({**row, "tolerance": tol, "passed": int(abs(emp - target) <= tol)})
    return tuple(rows)


def sampler_to_json(sampler: DesignSampler) -> str:
    """JSON description (q, K, n, nodes, weights, thresholds, seed_bits)."""
    obj = {
        "q": sampler.q,
        "K": sampler.family.k,
        "n": sampler.n,
        "eval_points": list(range(sampler.n)),
        "nodes": sampler.quadrature.nodes.tolist(),
        "weights": sampler.quadrature.weights.tolist(),
        "thresholds": sampler.thresholds.tolist(),
        "block_bits": sampler.block_bits,
        "seed_bits": seed_bits(sampler),
        "tv_bound": sampler.tv_bound,
    }
    return json.dumps(obj, sort_keys=True)
