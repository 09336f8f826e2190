"""Finite-seed approximations of Gaussian moment designs.

An M-point Gauss-Hermite rule matches every Gaussian moment of order at
most 2M-1. Mapping a k-wise independent family over a prime field F_q onto
the rule's atoms (via integer threshold intervals proportional to the
weights) gives an n-dimensional random vector whose marginals are within
statistical distance M/q of the exact atom law and whose joint moments of
order <= k inherit the rule's exactness. Everything here is a pure
function of (sampler, seed), so sampling parallelizes with no coordination.

Seed accounting: one field symbol is read from a master bitstream as a
(ceil(log2 q) + 16)-bit block reduced mod q; the 16 extra bits push the
reduction bias below 2^-16 per symbol, which is folded into the stated
statistical-distance budget rather than handled by rejection.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.linalg import eigh_tridiagonal

from ._bits import extract_blocks

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
    "MomentCheck",
    "MomentReport",
    "is_prime",
    "next_prime",
    "gaussian_moment",
    "sampler_to_json",
]

_MAX_QUAD_POINTS = 64
_MAX_PRIME = 2**62
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

    @property
    def points(self) -> list[tuple[float, float]]:
        return list(zip(self.nodes.tolist(), self.weights.tolist()))


def _he_values(M: int, x: float) -> tuple[np.ndarray, float]:
    """He_0..He_M at x and the derivative He_M'(x) = M*He_{M-1}(x)."""
    vals = np.empty(M + 1)
    vals[0] = 1.0
    if M >= 1:
        vals[1] = x
    for j in range(1, M):
        vals[j + 1] = x * vals[j] - j * vals[j - 1]
    return vals, M * vals[M - 1]


def gauss_hermite(M: int) -> Quadrature1D:
    """M-point quadrature for the standard normal weight.

    Nodes are the roots of He_M: the symmetric tridiagonal Jacobi matrix
    (zero diagonal, off-diagonal sqrt(1..M-1)) supplies starting values,
    Newton steps on He_M polish them to machine accuracy, and weights come
    from the Christoffel identity w = 1/sum_{j<M} He_j(x)^2/j!. Node and
    weight pairs are symmetrized about 0 so symmetry holds exactly.
    """
    if not 1 <= M <= _MAX_QUAD_POINTS:
        raise ValueError(f"M must be in 1..{_MAX_QUAD_POINTS}, got {M}")
    if M == 1:
        return Quadrature1D(np.array([0.0]), np.array([1.0]))
    vals, _ = eigh_tridiagonal(np.zeros(M), np.sqrt(np.arange(1.0, M)))
    nodes = np.sort(vals)
    for _ in range(3):
        for i in range(M):
            v, d = _he_values(M, nodes[i])
            nodes[i] -= v[M] / d
    nodes = 0.5 * (nodes - nodes[::-1])
    if M % 2:
        nodes[M // 2] = 0.0
    inv_fact = 1.0 / np.array([math.factorial(j) for j in range(M)])
    weights = np.empty(M)
    for i in range(M):
        v, _ = _he_values(M, nodes[i])
        weights[i] = 1.0 / float(np.sum(v[:M] ** 2 * inv_fact))
    weights = 0.5 * (weights + weights[::-1])
    weights /= weights.sum()
    return Quadrature1D(nodes, weights)


@dataclass(frozen=True)
class KWiseFamily:
    """Degree-(k-1) polynomial evaluation family over F_q.

    A uniform seed of k field coefficients makes any k of the n evaluation
    outputs jointly uniform over F_q^k.
    """

    q: int
    k: int
    n: int
    eval_points: np.ndarray

    def __post_init__(self) -> None:
        if not is_prime(self.q):
            raise ValueError(f"modulus {self.q} is not prime")
        if self.k < 1:
            raise ValueError("independence order k must be >= 1")
        if not 1 <= self.n <= self.q:
            raise ValueError("need 1 <= n <= q distinct evaluation points")
        pts = np.asarray(self.eval_points, dtype=np.int64)
        if pts.shape != (self.n,):
            raise ValueError("eval_points must have length n")
        if np.any(pts < 0) or np.any(pts >= self.q):
            raise ValueError("eval_points must lie in [0, q)")
        if len(set(pts.tolist())) != self.n:
            raise ValueError("eval_points must be pairwise distinct")
        object.__setattr__(self, "eval_points", pts)

    @classmethod
    def standard(cls, q: int, k: int, n: int) -> "KWiseFamily":
        return cls(q, k, n, np.arange(n, dtype=np.int64))


def kwise_eval(family: KWiseFamily, seed: Sequence[int], i: int) -> int:
    """Value of the seed polynomial at evaluation point i (Horner, mod q)."""
    if not 0 <= i < family.n:
        raise ValueError(f"coordinate index {i} out of range")
    seed = [int(s) for s in seed]
    if len(seed) != family.k:
        raise ValueError(f"seed must have exactly {family.k} entries")
    if any(not 0 <= s < family.q for s in seed):
        raise ValueError("seed entries must lie in [0, q)")
    x = int(family.eval_points[i])
    acc = 0
    for coef in reversed(seed):
        acc = (acc * x + coef) % family.q
    return acc


def _power_table(family: KWiseFamily) -> np.ndarray:
    """eval_points[j]^t mod q for t < k, shape (k, n).

    Entries come from Python integers, so they are exact for any q <= 2^62;
    an int64 recurrence entry * x would overflow once (q-1)*x >= 2^63.
    """
    q = family.q
    points = family.eval_points.tolist()
    tab = [[pow(x, t, q) for x in points] for t in range(family.k)]
    return np.array(tab, dtype=np.int64).reshape(family.k, family.n)


def kwise_eval_batch(family: KWiseFamily, seeds: np.ndarray) -> np.ndarray:
    """Evaluate a (B, k) seed batch at all n points; returns (B, n) int64.

    Products are taken in float64 when they are exactly representable
    (k*(q-1)^2 < 2^53), which turns the contraction into a BLAS matmul;
    otherwise falls back to exact integer paths.
    """
    seeds = np.asarray(seeds)
    if seeds.ndim != 2 or seeds.shape[1] != family.k:
        raise ValueError(f"seeds must have shape (B, {family.k})")
    q = family.q
    powers = _power_table(family)
    if family.k * (q - 1) ** 2 < 2**53:
        vals = seeds.astype(np.float64) @ powers.astype(np.float64)
        return np.asarray(vals, dtype=np.int64) % q
    if family.k * (q - 1) ** 2 < 2**63:
        vals = np.einsum("bt,tn->bn", seeds.astype(np.int64), powers)
        return vals % q
    if (q - 1) ** 2 < 2**63:
        acc = np.zeros((seeds.shape[0], family.n), dtype=np.int64)
        for t in range(family.k - 1, -1, -1):
            acc = (acc * family.eval_points + seeds[:, t, None]) % q
        return acc
    out = np.empty((seeds.shape[0], family.n), dtype=object)
    for b in range(seeds.shape[0]):
        for j in range(family.n):
            out[b, j] = kwise_eval(family, seeds[b], j)
    return out


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


@dataclass(frozen=True)
class DesignSampler:
    """Deterministic map from k field-symbol seeds to n atom coordinates.

    tv_bound = M/q bounds the statistical distance between each
    coordinate's law (under a uniform seed) and the exact atom law.
    """

    quadrature: Quadrature1D
    family: KWiseFamily
    thresholds: np.ndarray

    def __post_init__(self) -> None:
        th = np.asarray(self.thresholds, dtype=np.int64)
        M = self.quadrature.M
        if th.shape != (M,):
            raise ValueError("need one cumulative threshold per atom")
        # Gaps of zero mark atoms below the 1/q mass resolution; every
        # representable atom must get a non-empty interval, ending at q.
        if np.any(np.diff(th) < 0) or th[0] < 0 or th[-1] != self.family.q:
            raise ValueError("thresholds must be nondecreasing and end at q")
        object.__setattr__(self, "thresholds", th)

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
    def exact_tv(self) -> float:
        """Realized per-coordinate statistical distance to the atom law."""
        gaps = np.diff(np.concatenate(([0], self.thresholds)))
        return 0.5 * float(np.abs(gaps / self.q - self.quadrature.weights).sum())

    @property
    def atom_probs(self) -> np.ndarray:
        return np.diff(np.concatenate(([0], self.thresholds))) / self.q

    @property
    def is_symmetric(self) -> bool:
        gaps = np.diff(np.concatenate(([0], self.thresholds)))
        return bool(np.array_equal(gaps, gaps[::-1]))

    @property
    def field_bits(self) -> int:
        """ceil(log2 q): bits that index one field element."""
        return (self.q - 1).bit_length()

    @property
    def block_bits(self) -> int:
        """Master-bitstream block per field symbol (widened for bias)."""
        return self.field_bits + EXTRA_BLOCK_BITS


def seed_bits(sampler: DesignSampler) -> int:
    """Master-bitstream bits consumed per design sample: k * block_bits.

    Each of the k field symbols is a (ceil(log2 q) + 16)-bit block reduced
    mod q; no rejection, the bias lives in the tv accounting.
    """
    return sampler.family.k * sampler.block_bits


def build_sampler(M: int, K: int, n: int, tv_budget: float) -> DesignSampler:
    """Smallest-prime sampler meeting a per-coordinate statistical budget.

    q is the smallest prime >= max(n+1, ceil(M/tv_budget)), so that
    tv_bound = M/q <= tv_budget while all n evaluation points stay distinct.
    """
    if tv_budget <= 0:
        raise ValueError("tv_budget must be positive")
    lo = max(n + 1, math.ceil(M / tv_budget))
    if lo > _MAX_PRIME:
        raise ValueError(f"tv_budget {tv_budget} needs a prime beyond 2^62")
    q = next_prime(lo)
    if q > _MAX_PRIME:
        raise ValueError(f"tv_budget {tv_budget} needs a prime beyond 2^62")
    quad = gauss_hermite(M)
    thresholds = thresholds_from_weights(quad.weights, q)
    sampler = DesignSampler(quad, KWiseFamily.standard(q, K, n), thresholds)
    if sampler.exact_tv > sampler.tv_bound:
        raise ValueError(
            f"q={q} too coarse for the {M}-atom rule (tv {sampler.exact_tv:.3g})"
        )
    return sampler


def _atoms_from_values(sampler: DesignSampler, values: np.ndarray) -> np.ndarray:
    return np.searchsorted(sampler.thresholds, values, side="right")


def design_sample(sampler: DesignSampler, seed: Sequence[int]) -> np.ndarray:
    """One n-coordinate design draw from k field symbols."""
    seed = [int(s) for s in seed]
    if len(seed) != sampler.family.k:
        raise ValueError(f"seed must have exactly {sampler.family.k} entries")
    if any(not 0 <= s < sampler.q for s in seed):
        raise ValueError("seed entries must lie in [0, q)")
    vals = kwise_eval_batch(sampler.family, np.array([seed], dtype=np.int64))[0]
    return sampler.quadrature.nodes[_atoms_from_values(sampler, vals)]


def design_sample_batch(sampler: DesignSampler, seeds: np.ndarray) -> np.ndarray:
    """(B, k) seed batch -> (B, n) coordinate batch."""
    vals = kwise_eval_batch(sampler.family, seeds)
    return sampler.quadrature.nodes[_atoms_from_values(sampler, vals)]


def symbols_from_bytes(sampler: DesignSampler, data: np.ndarray, n_symbols: int) -> np.ndarray:
    """Reduce leading block_bits-wide blocks of each byte row mod q."""
    blocks = extract_blocks(data, n_symbols, sampler.block_bits)
    if blocks.dtype == object:
        return np.array([[int(v) % sampler.q for v in row] for row in blocks], dtype=np.int64)
    return blocks % sampler.q


def design_sample_batch_f64(sampler: DesignSampler, seeds_f64: np.ndarray) -> np.ndarray:
    """Float64 fast path of :func:`design_sample_batch`.

    seeds_f64 holds integer-valued field symbols; exactness of the BLAS
    contraction requires k*(q-1)^2 < 2^53.
    """
    fam = sampler.family
    if fam.k * (fam.q - 1) ** 2 >= 2**53:
        raise ValueError("q too large for the exact float64 contraction")
    powers = _power_table(fam).astype(np.float64)
    vals = seeds_f64 @ powers
    np.mod(vals, float(fam.q), out=vals)
    atoms = np.searchsorted(sampler.thresholds.astype(np.float64), vals, side="right")
    return sampler.quadrature.nodes[atoms]


def _paired_moment(nodes: np.ndarray, probs: np.ndarray, order: int, symmetric: bool) -> float:
    """Atom moment; mirror pairs are summed jointly so that symmetric laws
    give exactly 0.0 for odd orders."""
    M = nodes.size
    if not symmetric:
        return float(np.sum(probs * nodes**order))
    total = 0.0
    for i in range(M // 2):
        j = M - 1 - i
        total += probs[i] * nodes[i] ** order + probs[j] * nodes[j] ** order
    if M % 2:
        total += probs[M // 2] * nodes[M // 2] ** order
    return total


@dataclass(frozen=True)
class MomentCheck:
    scope: str
    orders: tuple[int, ...]
    empirical: float
    target: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return abs(self.empirical - self.target) <= self.tolerance


@dataclass(frozen=True)
class MomentReport:
    mode: str
    n_evaluated: int
    checks: tuple[MomentCheck, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def rows(self) -> list[dict]:
        return [
            {
                "scope": c.scope,
                "orders": "x".join(map(str, c.orders)),
                "empirical": c.empirical,
                "target": c.target,
                "tolerance": c.tolerance,
                "passed": int(c.passed),
            }
            for c in self.checks
        ]


_EXHAUSTIVE_CAP = 10**7


def _shear_sum(table: np.ndarray, c: int) -> None:
    """Convolve a (q, q) count table, in place, with the line {s*(1, c)}.

    The result at (u, v) is the sum of the table along the line through
    (u, v) with slope c, so it depends only on w = v - c*u: out[u, v] =
    line[(v - c*u) % q] with line[w] = sum_u table[u, (w + c*u) % q].
    Rows are shifted as two slices each, so no q*q index array is built.
    """
    q = table.shape[0]
    line = np.zeros(q, dtype=np.int64)
    for u in range(q):
        o = c * u % q
        line[: q - o] += table[u, o:]
        line[q - o :] += table[u, :o]
    for u in range(q):
        o = c * u % q
        table[u, o:] = line[: q - o]
        table[u, :o] = line[q - o :]


def _seed_space_counts(steps: np.ndarray, q: int) -> np.ndarray:
    """Exact count table of sum_t s_t * steps[t] mod q over all q^k seeds.

    ``steps`` has shape (k, m) with m = 1 or 2; for the family it is the
    power table at m evaluation points, so entry (v0[, v1]) of the result,
    shape (q,) * m, counts the seeds whose values there are v0[, v1]. The
    law of a sum of independent uniform symbols is a cyclic convolution:
    starting from a point mass at 0, symbol t spreads the table over the
    line {s * steps[t] : s in F_q}. A step costs O(q^m), so the table costs
    O(k q^m) time and one q^m array, against q^k seed values enumerated.
    """
    m = np.shape(steps)[1]
    table = np.zeros((q,) * m, dtype=np.int64)
    table[(0,) * m] = 1
    for step in np.asarray(steps).tolist():
        step = [int(a) % q for a in step]
        axes = [d for d in range(m) if step[d]]
        if not axes:
            table *= q  # all q symbols land on the same cell
        elif len(axes) == 1:
            # the line runs along one axis: each cell gets that axis's sum
            table[...] = table.sum(axis=axes[0], keepdims=True)
        else:
            _shear_sum(table, step[1] * pow(step[0], -1, q) % q)
    return table


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


def verify_moments(
    sampler: DesignSampler,
    max_order: int,
    mode: str = "exhaustive",
    n_samples: int = 10**6,
    rng_seed: int = 0,
) -> MomentReport:
    """Compare per-coordinate and pairwise moments with Gaussian targets.

    Exhaustive mode reads the exact law of the design over all q^k seeds
    (requires q^k <= 10^7) and checks against the TV-propagated bound. The
    law comes from count tables of the field values built by convolution
    over the k seed symbols, O(k q) for a coordinate and O(k q^2) for the
    pair, not from the q^k seeds one by one. Monte-Carlo mode draws
    ``n_samples`` seeds (at least 2) and checks against that bound plus 4
    standard errors. Only orders 1..max_order (max_order >= 1) that the
    quadrature matches (<= 2M-1) are compared.
    """
    if max_order < 1:
        raise ValueError(f"max_order must be >= 1, got {max_order}")
    k = sampler.family.k
    nodes = sampler.quadrature.nodes
    checks: list[MomentCheck] = []
    orders = [j for j in range(1, max_order + 1) if j <= sampler.quadrature.order]
    if mode == "exhaustive":
        space = sampler.q**k
        if space > _EXHAUSTIVE_CAP:
            raise ValueError(f"seed space {space} exceeds exhaustive cap {_EXHAUSTIVE_CAP}")
        sym = sampler.is_symmetric
        powers = _power_table(sampler.family)
        atom_of = _atoms_from_values(sampler, np.arange(sampler.q))
        for i in range(min(sampler.n, 2)):
            counts = _seed_space_counts(powers[:, i : i + 1], sampler.q)
            atom_counts = np.bincount(atom_of, weights=counts, minlength=sampler.M)
            probs = atom_counts / space
            for j in orders:
                emp = _paired_moment(nodes, probs, j, sym)
                checks.append(
                    MomentCheck(f"coord {i}", (j,), emp, gaussian_moment(j), _tv_tolerance(sampler, (j,)))
                )
        if sampler.n >= 2 and k >= 2:
            pair = _seed_space_counts(powers[:, :2], sampler.q)
            # reduceat over the atoms with a non-empty interval only: an
            # empty one would read the next atom's first row (or index q)
            starts = np.concatenate(([0], sampler.thresholds[:-1]))
            live = np.flatnonzero(sampler.thresholds > starts)
            atom_pair = np.zeros((sampler.M, sampler.M))
            atom_pair[np.ix_(live, live)] = np.add.reduceat(
                np.add.reduceat(pair, starts[live], axis=0), starts[live], axis=1
            ) / space
            emp11 = float(nodes @ atom_pair @ nodes)
            checks.append(
                MomentCheck("cross (0,1)", (1, 1), emp11, 0.0, _tv_tolerance(sampler, (1, 1)))
            )
            if max_order >= 4 and k >= 4 and sampler.quadrature.order >= 2:
                emp22 = float((nodes**2) @ atom_pair @ (nodes**2))
                checks.append(
                    MomentCheck("cross (0,1)", (2, 2), emp22, 1.0, _tv_tolerance(sampler, (2, 2)))
                )
        return MomentReport("exhaustive", space, tuple(checks))
    if mode not in ("mc", "monte_carlo"):
        raise ValueError(f"unknown mode {mode!r}")
    if n_samples < 2:
        raise ValueError(f"n_samples must be >= 2 for Monte-Carlo moments, got {n_samples}")
    rng = np.random.Generator(np.random.Philox(key=rng_seed))
    seeds = rng.integers(0, sampler.q, size=(n_samples, k), dtype=np.int64)
    Y = design_sample_batch(sampler, seeds)
    for i in range(min(sampler.n, 2)):
        for j in orders:
            powers = Y[:, i] ** j
            emp = float(powers.mean())
            se = float(powers.std(ddof=1) / math.sqrt(n_samples))
            tol = _tv_tolerance(sampler, (j,)) + 4.0 * se
            checks.append(MomentCheck(f"coord {i}", (j,), emp, gaussian_moment(j), tol))
    if sampler.n >= 2 and k >= 2:
        prod = Y[:, 0] * Y[:, 1]
        se = float(prod.std(ddof=1) / math.sqrt(n_samples))
        checks.append(
            MomentCheck(
                "cross (0,1)", (1, 1), float(prod.mean()), 0.0,
                _tv_tolerance(sampler, (1, 1)) + 4.0 * se,
            )
        )
        if max_order >= 4 and k >= 4 and sampler.quadrature.order >= 2:
            prod2 = Y[:, 0] ** 2 * Y[:, 1] ** 2
            se = float(prod2.std(ddof=1) / math.sqrt(n_samples))
            checks.append(
                MomentCheck(
                    "cross (0,1)", (2, 2), float(prod2.mean()), 1.0,
                    _tv_tolerance(sampler, (2, 2)) + 4.0 * se,
                )
            )
    return MomentReport("mc", n_samples, tuple(checks))


def sampler_to_json(sampler: DesignSampler) -> str:
    """JSON description (q, K, n, nodes, weights, thresholds, seed_bits)."""
    obj = {
        "q": sampler.q,
        "K": sampler.family.k,
        "n": sampler.n,
        "eval_points": sampler.family.eval_points.tolist(),
        "nodes": sampler.quadrature.nodes.tolist(),
        "weights": sampler.quadrature.weights.tolist(),
        "thresholds": sampler.thresholds.tolist(),
        "block_bits": sampler.block_bits,
        "seed_bits": seed_bits(sampler),
        "tv_bound": sampler.tv_bound,
    }
    return json.dumps(obj, sort_keys=True)
