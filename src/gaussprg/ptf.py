"""Polynomial threshold functions: sgn(p(x)) with sgn(0) = +1.

The zero convention matters only on a measure-zero set for every
distribution used here, but fixing it keeps evaluation deterministic.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass

import numpy as np

from .hermite import (
    HermiteExpansion,
    SparsePolynomial,
    _MAX_DEGREE,
    _poly_doc,
    from_hermite,
    poly_from_json,
)

__all__ = [
    "PTF",
    "RandomPolyConfig",
    "eval_ptf",
    "eval_ptf_batch",
    "random_ptf",
    "hermite_indices",
    "halfspace_expectation",
    "linear_threshold_params",
    "normal_cdf",
    "ptf_to_json",
    "ptf_from_json",
]


@dataclass(frozen=True)
class PTF:
    poly: SparsePolynomial


def eval_ptf(f: PTF, x) -> int:
    """+1 if f.poly(x) >= 0 else -1."""
    return 1 if f.poly.evaluate(x) >= 0.0 else -1


def eval_ptf_batch(f: PTF, X: np.ndarray) -> np.ndarray:
    vals = f.poly.evaluate_batch(X)
    return np.where(vals >= 0.0, 1, -1).astype(np.int64)


# The most exponent entries, num_vars * C(num_vars + degree, degree), that
# random_ptf builds. (200, 2) has 4.1M and builds in about 5 s at 166 MiB;
# (500, 2) has 31M and takes 77 s and 2 GiB.
_MAX_ENSEMBLE_ENTRIES = 2**22


@dataclass(frozen=True)
class RandomPolyConfig:
    """Test-instance ensemble: i.i.d. standard normal coefficients over the
    orthonormal Hermite products of total degree <= degree, rescaled so the
    resulting polynomial has Gaussian L2 norm 1. Raises ValueError for sizes
    whose num_vars * C(num_vars + degree, degree) exponent entries exceed
    ``_MAX_ENSEMBLE_ENTRIES`` and for a degree above ``_MAX_DEGREE``."""

    num_vars: int
    degree: int
    rng_seed: int

    def __post_init__(self) -> None:
        if self.num_vars < 1 or self.degree < 1:
            raise ValueError("need num_vars >= 1 and degree >= 1")
        # C(a + b, b) >= 2^min(a, b), so from min(num_vars, degree) >= 23 on
        # the count is over the bound without computing it.
        n, d = self.num_vars, self.degree
        if min(n, d) >= _MAX_ENSEMBLE_ENTRIES.bit_length() or n * math.comb(n + d, d) > _MAX_ENSEMBLE_ENTRIES:
            raise ValueError(
                f"num_vars * C(num_vars + degree, degree) must be <= {_MAX_ENSEMBLE_ENTRIES}, "
                f"got num_vars={self.num_vars}, degree={self.degree}"
            )
        if d > _MAX_DEGREE:
            raise ValueError(f"degree must be <= {_MAX_DEGREE}, got {d}")


def hermite_indices(num_vars: int, max_degree: int) -> list[tuple[int, ...]]:
    """All multi-indices with |a|_1 <= max_degree, graded lexicographic:
    by total degree, then lexicographically within each degree."""
    out = []
    for total in range(max_degree + 1):
        # The variable multisets of size total, as sorted index tuples in
        # lexicographic order, map to the degree-total exponent vectors in
        # reverse lexicographic order.
        block = []
        for combo in itertools.combinations_with_replacement(range(num_vars), total):
            a = [0] * num_vars
            for i in combo:
                a[i] += 1
            block.append(tuple(a))
        out.extend(reversed(block))
    return out


def random_ptf(config: RandomPolyConfig) -> PTF:
    idx = hermite_indices(config.num_vars, config.degree)
    rng = np.random.default_rng(config.rng_seed)
    g = rng.standard_normal(len(idx))
    g /= np.linalg.norm(g)  # Parseval: unit coefficient norm <=> |p|_2 = 1
    he = HermiteExpansion(config.num_vars, dict(zip(idx, g.tolist())))
    return PTF(from_hermite(he))


def normal_cdf(t: float) -> float:
    return 0.5 * (1.0 + math.erf(t / math.sqrt(2.0)))


def halfspace_expectation(w, theta: float) -> float:
    """E[sgn(w . X - theta)] = 1 - 2*Phi(theta/|w|_2) for standard Gaussian X."""
    w = np.asarray(w, dtype=np.float64)
    norm = float(np.linalg.norm(w))
    if norm == 0.0:
        raise ValueError("weight vector must be nonzero")
    return 1.0 - 2.0 * normal_cdf(theta / norm)


def linear_threshold_params(f: PTF) -> tuple[np.ndarray, float]:
    """Extract (w, theta) with f.poly = w . x - theta; degree must be <= 1."""
    p = f.poly
    if p.degree > 1:
        raise ValueError("analytic baseline exists only for degree-1 PTFs")
    w = np.zeros(p.num_vars)
    theta = 0.0
    for exps, coef in p.terms.items():
        s = sum(exps)
        if s == 0:
            theta = -coef
        else:
            w[exps.index(1)] = coef
    return w, theta


def ptf_to_json(f: PTF) -> str:
    """:func:`poly_to_json`'s document of ``f.poly`` with ``"kind": "ptf"``."""
    return json.dumps({"kind": "ptf", **_poly_doc(f.poly)}, sort_keys=True)


def ptf_from_json(text: str) -> PTF:
    obj = json.loads(text)
    if obj.get("kind") != "ptf":
        raise ValueError("not a PTF document")
    return PTF(poly_from_json(obj))
