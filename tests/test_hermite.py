import math

import numpy as np
import pytest

from gaussprg.hermite import (
    HermiteExpansion,
    SparsePolynomial,
    degree_part,
    derivative_moment_rhs,
    from_hermite,
    hermite_1d,
    l2_norm,
    poly_from_json,
    poly_to_json,
    to_hermite,
)


def gaussian_expectation(p: SparsePolynomial) -> float:
    """Independent oracle: E[p(X)] by termwise Gaussian moments
    E[prod X_i^e_i] = prod (e_i - 1)!! (even e_i) or 0."""

    def moment(e: int) -> float:
        if e % 2:
            return 0.0
        out = 1.0
        for t in range(e - 1, 0, -2):
            out *= t
        return out

    return sum(c * math.prod(moment(e) for e in exps) for exps, c in p.terms.items())


def random_sparse(rng: np.random.Generator, n: int, d: int) -> SparsePolynomial:
    terms = {}
    for _ in range(rng.integers(1, 7)):
        exps = tuple(int(v) for v in rng.integers(0, d + 1, size=n))
        if sum(exps) > d:
            continue
        terms[exps] = float(rng.standard_normal())
    return SparsePolynomial(n, terms)


class TestHermite1D:
    def test_base_case(self):
        assert hermite_1d(0).tolist() == [1.0]

    def test_he2(self):
        assert hermite_1d(2).tolist() == [-1.0, 0.0, 1.0]

    def test_he3(self):
        assert hermite_1d(3).tolist() == [0.0, -3.0, 0.0, 1.0]

    def test_recurrence(self):
        # He_{j+1} = x He_j - j He_{j-1}, coefficient-wise
        for j in range(1, 12):
            prev, cur, nxt = hermite_1d(j - 1), hermite_1d(j), hermite_1d(j + 1)
            shifted = np.concatenate(([0.0], cur))
            expect = shifted - j * np.concatenate((prev, [0.0, 0.0]))
            assert np.allclose(nxt, expect, atol=0)

    def test_negative_degree_rejected(self):
        with pytest.raises(ValueError):
            hermite_1d(-1)


class TestToHermite:
    def test_constant(self):
        he = to_hermite(SparsePolynomial(1, {(0,): 1.0}))
        assert he.coeffs == {(0,): 1.0}

    def test_x_squared(self):
        he = to_hermite(SparsePolynomial(1, {(2,): 1.0}))
        assert he.coeffs[(0,)] == pytest.approx(1.0, abs=1e-12)
        assert he.coeffs[(2,)] == pytest.approx(math.sqrt(2.0), abs=1e-12)

    def test_cross_term(self):
        he = to_hermite(SparsePolynomial(2, {(1, 1): 1.0}))
        assert set(he.coeffs) == {(1, 1)}
        assert he.coeffs[(1, 1)] == pytest.approx(1.0, abs=1e-14)

    def test_degree_bound(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            p = random_sparse(rng, 3, 4)
            he = to_hermite(p)
            assert all(sum(a) <= p.degree for a in he.coeffs)


class TestRoundTrip:
    @pytest.mark.parametrize("seed", range(8))
    def test_round_trip(self, seed):
        rng = np.random.default_rng(seed)
        p = random_sparse(rng, int(rng.integers(1, 5)), 4)
        q = from_hermite(to_hermite(p))
        assert set(q.terms) <= set(p.terms) | set(q.terms)
        for exps in set(p.terms) | set(q.terms):
            a = p.terms.get(exps, 0.0)
            b = q.terms.get(exps, 0.0)
            assert b == pytest.approx(a, rel=1e-10, abs=1e-10)

    def test_zero_polynomial_total(self):
        z = SparsePolynomial.zero(2)
        assert z.degree == 0 and z.is_zero
        assert l2_norm(z) == 0.0
        assert to_hermite(z).coeffs == {}
        assert degree_part(z, 1).is_zero
        assert derivative_moment_rhs(z, 1) == 0.0


class TestL2Norm:
    def test_linear(self):
        assert l2_norm(SparsePolynomial(1, {(1,): 1.0})) == pytest.approx(1.0, abs=1e-12)

    def test_x_squared(self):
        assert l2_norm(SparsePolynomial(1, {(2,): 1.0})) == pytest.approx(
            math.sqrt(3.0), abs=1e-12
        )

    def test_cross(self):
        assert l2_norm(SparsePolynomial(2, {(1, 1): 1.0})) == pytest.approx(1.0, abs=1e-12)

    def test_parseval_against_moment_oracle(self):
        # 200 random sparse polynomials, n <= 4, d <= 4
        rng = np.random.default_rng(123)
        for _ in range(200):
            n = int(rng.integers(1, 5))
            p = random_sparse(rng, n, 4)
            square = gaussian_expectation(p * p)
            he = to_hermite(p)
            parseval = sum(c * c for c in he.coeffs.values())
            assert abs(parseval - square) <= 1e-9 * max(square, 1.0)
            assert l2_norm(p) == pytest.approx(math.sqrt(square), rel=1e-9, abs=1e-12)


class TestDegreePart:
    def test_x_squared_parts(self):
        p = SparsePolynomial(1, {(2,): 1.0})
        assert degree_part(p, 2).terms == {(2,): 1.0, (0,): -1.0}
        assert degree_part(p, 0).terms == {(0,): 1.0}

    def test_no_content(self):
        p = SparsePolynomial(1, {(1,): 1.0})
        assert degree_part(p, 2).is_zero

    def test_parts_sum_to_p(self):
        rng = np.random.default_rng(5)
        for _ in range(40):
            p = random_sparse(rng, 3, 4)
            total = {}
            for k in range(p.degree + 1):
                for exps, coef in degree_part(p, k).terms.items():
                    total[exps] = total.get(exps, 0.0) + coef
            for exps in set(p.terms) | set(total):
                assert total.get(exps, 0.0) == pytest.approx(
                    p.terms.get(exps, 0.0), rel=1e-9, abs=1e-9
                )

    def test_parseval_across_parts(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            p = random_sparse(rng, 2, 4)
            total = sum(l2_norm(degree_part(p, k)) ** 2 for k in range(p.degree + 1))
            assert total == pytest.approx(l2_norm(p) ** 2, rel=1e-9, abs=1e-12)


class TestDerivativeMomentRhs:
    def test_x_squared_one_derivative(self):
        p = SparsePolynomial(1, {(2,): 1.0})
        assert derivative_moment_rhs(p, 1) == pytest.approx(4.0, rel=1e-12)

    def test_linear_one_derivative(self):
        p = SparsePolynomial(1, {(1,): 1.0})
        assert derivative_moment_rhs(p, 1) == pytest.approx(1.0, rel=1e-12)

    def test_zero_derivatives_is_l2_squared(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            p = random_sparse(rng, 3, 3)
            assert derivative_moment_rhs(p, 0) == pytest.approx(
                l2_norm(p) ** 2, rel=1e-12
            )

    def test_beyond_degree_vanishes(self):
        p = SparsePolynomial(1, {(1,): 3.0})
        assert derivative_moment_rhs(p, 2) == 0.0


class TestOrthonormality:
    def test_gram_matrix_is_identity(self):
        # all |a|, |b| <= 4 in 3 variables, integrated by a tensor
        # Gauss-Hermite grid exact for the degree-8 products
        from itertools import product

        from gaussprg.designs import gauss_hermite

        quad = gauss_hermite(5)
        idx = [a for a in product(range(5), repeat=3) if sum(a) <= 4]
        tables = {j: hermite_1d(j) for j in range(5)}

        def he_val(j, x):
            return sum(c * x**p for p, c in enumerate(tables[j]))

        grid = list(product(range(5), repeat=3))
        H = np.empty((len(idx), len(grid)))
        wts = np.empty(len(grid))
        for gi, g in enumerate(grid):
            wts[gi] = math.prod(quad.weights[c] for c in g)
            x = [quad.nodes[c] for c in g]
            for ai, a in enumerate(idx):
                H[ai, gi] = math.prod(
                    he_val(a[d], x[d]) / math.sqrt(math.factorial(a[d])) for d in range(3)
                )
        gram = (H * wts) @ H.T
        assert np.max(np.abs(gram - np.eye(len(idx)))) <= 1e-9


class TestPolynomialType:
    def test_zero_coefficients_dropped(self):
        p = SparsePolynomial(2, {(1, 0): 0.0, (0, 1): 2.0})
        assert set(p.terms) == {(0, 1)}

    def test_degree(self):
        p = SparsePolynomial(2, {(1, 2): 1.0, (0, 1): 1.0})
        assert p.degree == 3

    def test_bad_exponents(self):
        with pytest.raises(ValueError):
            SparsePolynomial(2, {(1,): 1.0})
        with pytest.raises(ValueError):
            SparsePolynomial(2, {(-1, 0): 1.0})
        for bad in [(1.7, 0), (True, 0)]:
            with pytest.raises(ValueError):
                SparsePolynomial(2, {bad: 1.0})
        with pytest.raises(ValueError):
            SparsePolynomial(0, {})
        # Hermite multi-indices pass the same check, and coefficients must
        # be real numbers: no bool, no numeric string.
        for bad in [(1.5,), (True,)]:
            with pytest.raises(ValueError):
                HermiteExpansion(1, {bad: 1.0})
        for coef in ["3", True]:
            with pytest.raises(ValueError):
                SparsePolynomial(1, {(1,): coef})
            with pytest.raises(ValueError):
                HermiteExpansion(1, {(1,): coef})

    def test_evaluate_matches_batch(self):
        # Both paths build x^e by the same products, so they agree exactly.
        for seed in (11, 12, 13, 14):
            rng = np.random.default_rng(seed)
            for d in range(1, 6):
                p = random_sparse(rng, 3, d)
                X = rng.standard_normal((50, 3))
                assert p.evaluate_batch(X).tolist() == [p.evaluate(x) for x in X]

    def test_partial_derivative(self):
        p = SparsePolynomial(2, {(2, 1): 3.0, (0, 1): 1.0})
        dp = p.partial_derivative(0)
        assert dp.terms == {(1, 1): 6.0}

    def test_json_round_trip(self):
        p = SparsePolynomial(2, {(1, 0): 1.5, (0, 2): -2.0})
        q = poly_from_json(poly_to_json(p))
        assert q.num_vars == p.num_vars and q.terms == p.terms
        # Integral floats read as integers.
        q = poly_from_json({"num_vars": 1.0, "terms": [{"exps": [2.0], "coef": 1.0}]})
        assert q.num_vars == 1 and q.terms == {(2,): 1.0}
        assert type(next(iter(q.terms))[0]) is int

    @pytest.mark.parametrize(
        "call, message",
        [
            (lambda: SparsePolynomial(2, {}).evaluate([1.0]), "^expected 2 coordinates, got 1$"),
            (lambda: SparsePolynomial(2, {}).evaluate_batch(np.zeros((3, 1))), r"^expected shape \(N, 2\)$"),
            (lambda: SparsePolynomial(2, {}).evaluate_batch(np.zeros(2)), r"^expected shape \(N, 2\)$"),
            (lambda: SparsePolynomial(2, {}).partial_derivative(2), "^variable index 2 out of range$"),
            (lambda: SparsePolynomial(2, {}).partial_derivative(-1), "^variable index -1 out of range$"),
            (lambda: SparsePolynomial(1, {}) * SparsePolynomial(2, {}), "^mismatched num_vars$"),
            (lambda: degree_part(SparsePolynomial(1, {(2,): 1.0}), -1), "^k must be non-negative$"),
            (lambda: derivative_moment_rhs(SparsePolynomial(1, {(2,): 1.0}), -1), "^ell must be non-negative$"),
        ],
    )
    def test_argument_errors(self, call, message):
        with pytest.raises(ValueError, match=message):
            call()
