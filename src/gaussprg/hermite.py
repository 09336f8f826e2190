"""Polynomials of Gaussian variables in the monomial and Hermite bases.

The basis convention is fixed once for the whole package: probabilists'
Hermite polynomials He_j, orthogonal for the standard normal weight
exp(-x^2/2)/sqrt(2*pi), with the three-term recurrence

    He_0 = 1,   He_1 = x,   He_{j+1}(x) = x*He_j(x) - j*He_{j-1}(x),

and orthonormal products

    h_a(x) = prod_i He_{a_i}(x_i) / sqrt(a_i!),    a in Z_{>=0}^n.

With this normalization Parseval holds: sum_a c_a^2 = E[p(X)^2] for X a
standard n-dimensional Gaussian, so Gaussian L2 norms and degree
projections are exact coefficient operations.

Both 1-D change-of-basis matrices (monomial <-> He) have integer entries,
so conversions are done with exact integer tables per variable; the only
floating-point steps are coefficient arithmetic and the sqrt(a!) scalings.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Iterable, Mapping, Sequence

import numpy as np

__all__ = [
    "SparsePolynomial",
    "HermiteExpansion",
    "hermite_1d",
    "to_hermite",
    "from_hermite",
    "l2_norm",
    "degree_part",
    "derivative_moment_rhs",
    "poly_to_json",
    "poly_from_json",
]


def _power_table(columns, max_exps: Sequence[int]) -> list[list]:
    """``[[x, x^2, ..., x^m] for x, m in zip(columns, max_exps)]``.

    Each power is the previous one times ``x``. numpy's ``power`` is not
    used because its last bits depend on the CPU's SIMD dispatch, nor
    Python's ``**``, so one table built from floats or from arrays gives
    the same bits.
    """
    table = []
    for x, m in zip(columns, max_exps):
        row = [x] if m else []
        for _ in range(m - 1):
            row.append(row[-1] * x)
        table.append(row)
    return table


def _whole(v) -> int | None:
    """``v`` as an int if it is a whole number (an integer or an integral
    float) and not a bool, else None."""
    if isinstance(v, (int, np.integer)) and not isinstance(v, bool):
        return int(v)
    if isinstance(v, (float, np.floating)) and float(v).is_integer():
        return int(v)
    return None


def _clean_terms(num_vars: int, terms: Mapping) -> dict[tuple[int, ...], float]:
    """``{exponents: coefficient}`` with int exponents and float
    coefficients, zeros dropped. Each exponent vector must have
    ``num_vars`` whole non-negative entries and each coefficient must be a
    real number (not a bool or a string), else ValueError."""
    if num_vars < 1:
        raise ValueError("num_vars must be a positive integer")
    clean: dict[tuple[int, ...], float] = {}
    for exps, coef in terms.items():
        key = tuple(_whole(e) for e in exps)
        if len(key) != num_vars or any(e is None or e < 0 for e in key):
            raise ValueError(f"bad exponent vector {exps!r}")
        if isinstance(coef, bool) or not isinstance(coef, (int, float, np.integer, np.floating)):
            raise ValueError(f"coef must be a number, got {coef!r}")
        c = float(coef)
        if c != 0.0:
            clean[key] = c
    return clean


@dataclass(frozen=True)
class SparsePolynomial:
    """Multivariate real polynomial stored as {exponent vector: coefficient}.

    Terms with coefficient exactly 0.0 are dropped on construction, so the
    stored support is canonical. ``degree`` is the largest 1-norm of an
    exponent vector (0 for the zero polynomial). Instances are immutable;
    all arithmetic returns new objects.
    """

    num_vars: int
    terms: dict[tuple[int, ...], float]
    degree: int = field(init=False)

    def __post_init__(self) -> None:
        clean = _clean_terms(self.num_vars, self.terms)
        object.__setattr__(self, "terms", clean)
        deg = max((sum(e) for e in clean), default=0)
        object.__setattr__(self, "degree", deg)

    @classmethod
    def zero(cls, num_vars: int) -> "SparsePolynomial":
        return cls(num_vars, {})

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def _max_exponents(self) -> list[int]:
        return [max((exps[i] for exps in self.terms), default=0) for i in range(self.num_vars)]

    def evaluate(self, x: Iterable[float]) -> float:
        xs = [float(v) for v in x]
        if len(xs) != self.num_vars:
            raise ValueError(f"expected {self.num_vars} coordinates, got {len(xs)}")
        powers = _power_table(xs, self._max_exponents())
        total = 0.0
        for exps, coef in self.terms.items():
            t = coef
            for i, e in enumerate(exps):
                if e:
                    t *= powers[i][e - 1]
            total += t
        return total

    def evaluate_batch(self, X: np.ndarray) -> np.ndarray:
        """Evaluate at every row of an (N, num_vars) array.

        Gives the same bits as :meth:`evaluate` on each row: both multiply
        the same powers in the same order.
        """
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2 or X.shape[1] != self.num_vars:
            raise ValueError(f"expected shape (N, {self.num_vars})")
        out = np.zeros(X.shape[0])
        powers = _power_table(np.ascontiguousarray(X.T), self._max_exponents())
        term = np.empty(X.shape[0])
        for exps, coef in self.terms.items():
            factors = [powers[i][e - 1] for i, e in enumerate(exps) if e]
            if not factors:
                out += coef
                continue
            np.multiply(coef, factors[0], out=term)
            for f in factors[1:]:
                term *= f
            out += term
        return out

    def partial_derivative(self, i: int) -> "SparsePolynomial":
        if not 0 <= i < self.num_vars:
            raise ValueError(f"variable index {i} out of range")
        new: dict[tuple[int, ...], float] = {}
        for exps, coef in self.terms.items():
            e = exps[i]
            if e == 0:
                continue
            key = exps[:i] + (e - 1,) + exps[i + 1 :]
            new[key] = new.get(key, 0.0) + coef * e
        return SparsePolynomial(self.num_vars, new)

    def __mul__(self, other):
        if isinstance(other, SparsePolynomial):
            if self.num_vars != other.num_vars:
                raise ValueError("mismatched num_vars")
            new: dict[tuple[int, ...], float] = {}
            for ea, ca in self.terms.items():
                for eb, cb in other.terms.items():
                    key = tuple(a + b for a, b in zip(ea, eb))
                    new[key] = new.get(key, 0.0) + ca * cb
            return SparsePolynomial(self.num_vars, new)
        c = float(other)
        return SparsePolynomial(self.num_vars, {e: c * v for e, v in self.terms.items()})

    __rmul__ = __mul__


@dataclass(frozen=True)
class HermiteExpansion:
    """Coefficients c_a of a polynomial over the orthonormal products h_a."""

    num_vars: int
    coeffs: dict[tuple[int, ...], float]

    def __post_init__(self) -> None:
        object.__setattr__(self, "coeffs", _clean_terms(self.num_vars, self.coeffs))


@lru_cache(maxsize=None)
def _he_monomial_table(j: int) -> tuple[int, ...]:
    """Integer coefficients of He_j in ascending monomial order."""
    if j == 0:
        return (1,)
    prev, cur = (1,), (0, 1)
    for m in range(1, j):
        nxt = [0] * (m + 2)
        for p, c in enumerate(cur):
            nxt[p + 1] += c
        for p, c in enumerate(prev):
            nxt[p] -= m * c
        prev, cur = cur, tuple(nxt)
    return cur


@lru_cache(maxsize=None)
def _monomial_he_table(j: int) -> tuple[int, ...]:
    """Integer coefficients of x^j over He_0..He_j (all non-negative)."""
    cur = (1,)
    for _ in range(j):
        nxt = [0] * (len(cur) + 1)
        for m, c in enumerate(cur):
            nxt[m + 1] += c  # x*He_m contributes He_{m+1}
            if m >= 1:
                nxt[m - 1] += m * c  # ... and m*He_{m-1}
        cur = tuple(nxt)
    return cur


def hermite_1d(j: int) -> np.ndarray:
    """Monomial coefficients of He_j, ascending powers, length j+1."""
    if j < 0:
        raise ValueError("j must be non-negative")
    return np.array(_he_monomial_table(j), dtype=np.float64)


def _sqrt_fact_prod(idx: tuple[int, ...]) -> float:
    return math.sqrt(math.prod(math.factorial(a) for a in idx))


def _change_basis(coeffs, table) -> dict[tuple[int, ...], float]:
    """``{m: sum of c * prod_i table(idx_i)[m_i]}`` over the ``(idx, c)``
    pairs of ``coeffs``: a change of basis, ``table(j)`` being the integer
    coefficients of basis element j in the other basis."""
    out: dict[tuple[int, ...], float] = {}
    for idx, c in coeffs:
        tabs = [table(j) for j in idx]
        supports = [[m for m, v in enumerate(t) if v] for t in tabs]
        for m in itertools.product(*supports):
            w = c
            for t, mi in zip(tabs, m):
                w *= t[mi]
            out[m] = out.get(m, 0.0) + w
    return out


def to_hermite(p: SparsePolynomial) -> HermiteExpansion:
    """Expand p over the orthonormal basis h_a."""
    raw = _change_basis(p.terms.items(), _monomial_he_table)
    coeffs = {a: r * _sqrt_fact_prod(a) for a, r in raw.items() if r != 0.0}
    return HermiteExpansion(p.num_vars, coeffs)


def from_hermite(h: HermiteExpansion) -> SparsePolynomial:
    """Inverse of :func:`to_hermite`."""
    scaled = ((a, c / _sqrt_fact_prod(a)) for a, c in h.coeffs.items())
    return SparsePolynomial(h.num_vars, _change_basis(scaled, _he_monomial_table))


def l2_norm(p: SparsePolynomial) -> float:
    """Gaussian L2 norm sqrt(E[p(X)^2]), via Parseval."""
    h = to_hermite(p)
    return math.sqrt(sum(c * c for c in h.coeffs.values()))


def degree_part(p: SparsePolynomial, k: int) -> SparsePolynomial:
    """Projection of p onto Hermite degree exactly k, in the monomial basis."""
    if k < 0:
        raise ValueError("k must be non-negative")
    h = to_hermite(p)
    sel = {a: c for a, c in h.coeffs.items() if sum(a) == k}
    return from_hermite(HermiteExpansion(p.num_vars, sel))


def derivative_moment_rhs(p: SparsePolynomial, ell: int) -> float:
    """sum_k k(k-1)...(k-ell+1) * |p^[k]|_2^2.

    Equals E[|D_{V_1} ... D_{V_ell} p(X)|^2] for independent standard
    Gaussian directions V_j and argument X; the empty falling factorial
    (ell = 0) is 1, so the value degenerates to |p|_2^2.
    """
    if ell < 0:
        raise ValueError("ell must be non-negative")
    h = to_hermite(p)
    by_degree: dict[int, float] = {}
    for a, c in h.coeffs.items():
        k = sum(a)
        by_degree[k] = by_degree.get(k, 0.0) + c * c
    total = 0.0
    for k, mass in sorted(by_degree.items()):
        ff = 1.0
        for t in range(ell):
            ff *= k - t
        if ff:
            total += ff * mass
    return total


def _poly_doc(p: SparsePolynomial) -> dict:
    """``{"num_vars": n, "terms": [{"exps": [...], "coef": c}, ...]}``, the
    terms in sorted exponent order."""
    rows = [{"exps": list(e), "coef": c} for e, c in sorted(p.terms.items())]
    return {"num_vars": p.num_vars, "terms": rows}


def poly_to_json(p: SparsePolynomial) -> str:
    """Shared polynomial text format (see README for the schema)."""
    return json.dumps(_poly_doc(p), sort_keys=True)


def poly_from_json(text: str | Mapping) -> SparsePolynomial:
    """Inverse of :func:`poly_to_json`. A malformed document, a non-integral
    ``num_vars`` or exponent, a coefficient that is not a number and two
    terms with one exponent vector raise ValueError."""
    obj = json.loads(text) if isinstance(text, str) else text
    try:
        num_vars = _whole(obj["num_vars"])
        if num_vars is None:
            raise ValueError(f"num_vars must be an integer, got {obj['num_vars']!r}")
        terms: dict[tuple, float] = {}
        for row in obj["terms"]:
            exps, coef = tuple(row["exps"]), row["coef"]
            if exps in terms:
                raise ValueError(f"two terms have exponents {list(exps)}")
            terms[exps] = coef
        return SparsePolynomial(num_vars, terms)
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed polynomial JSON ({type(exc).__name__}: {exc})") from None
