import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from amsal import (
    Assignment,
    InvalidInput,
    center_columns,
    cross_covariance,
    singular_value_sum,
    spectral_norm,
    svd,
)


def _reconstruct(res):
    """Multiply the SVD factors back together."""
    return (res.u * res.sigma) @ res.v.T


def _frobenius_norm(a):
    return float(np.sqrt(np.sum(a * a)))


def test_svd_identity():
    res = svd(np.eye(3))
    np.testing.assert_allclose(res.sigma, [1.0, 1.0, 1.0])


def test_svd_diagonal():
    res = svd(np.diag([3.0, 1.0]))
    np.testing.assert_allclose(res.sigma, [3.0, 1.0])
    np.testing.assert_allclose(res.u, np.eye(2))
    np.testing.assert_allclose(res.v, np.eye(2))


def test_svd_reconstruction_and_orthonormality():
    rng = np.random.default_rng(0)
    a = rng.standard_normal((5, 3))
    res = svd(a)
    err = np.linalg.norm(a - _reconstruct(res)) / max(1.0, np.linalg.norm(a))
    assert err <= 1e-8
    assert np.abs(res.u.T @ res.u - np.eye(3)).max() <= 1e-10
    assert np.abs(res.v.T @ res.v - np.eye(3)).max() <= 1e-10


def test_svd_random_suite():
    rng = np.random.default_rng(1)
    for _ in range(100):
        rows, cols = rng.integers(1, 20, size=2)
        a = rng.standard_normal((rows, cols)) * rng.uniform(1e-3, 1e3)
        res = svd(a)
        r = min(rows, cols)
        err = np.linalg.norm(a - _reconstruct(res)) / max(1.0, np.linalg.norm(a))
        assert err <= 1e-8
        assert np.abs(res.u.T @ res.u - np.eye(r)).max() <= 1e-10
        assert np.abs(res.v.T @ res.v - np.eye(r)).max() <= 1e-10
        assert res.sigma.min() >= 0.0
        assert np.all(np.diff(res.sigma) <= 0.0)


def test_svd_sign_convention_deterministic():
    rng = np.random.default_rng(2)
    a = rng.standard_normal((6, 4))
    r1, r2 = svd(a), svd(a)
    np.testing.assert_array_equal(r1.u, r2.u)
    np.testing.assert_array_equal(r1.v, r2.v)
    # the largest-magnitude entry of every left singular vector is positive
    for j in range(r1.u.shape[1]):
        col = r1.u[:, j]
        assert col[np.abs(col).argmax()] > 0


def test_svd_rejects_nonfinite():
    with pytest.raises(InvalidInput):
        svd(np.array([[1.0, np.nan], [0.0, 1.0]]))


@pytest.mark.parametrize("a", [
    [["1", "x"], ["0", "1"]],
    [[1.0, 2.0], [3.0]],
    [[1.0, 2j], [0.0, 1.0]],
    np.array([[1.0, 2j], [0.0, 1.0]]),
], ids=["strings", "ragged", "complex", "complex-array"])
def test_svd_rejects_non_numeric_input_naming_it(a):
    with pytest.raises(InvalidInput, match="^a must"):
        svd(a)


def test_weyl_perturbation_bound():
    rng = np.random.default_rng(3)
    for _ in range(200):
        a = rng.standard_normal((6, 4))
        e = rng.standard_normal((6, 4)) * rng.uniform(0.01, 10.0)
        sa = svd(a).sigma
        sae = svd(a + e).sigma
        assert np.all(np.abs(sa - sae) <= spectral_norm(e) + 1e-9)


def test_cross_covariance_hand_cases():
    x = np.array([[1.0], [-1.0]])
    z = np.array([[1.0], [-1.0]])
    ident = Assignment(np.array([0, 1]))
    swap = Assignment(np.array([1, 0]))
    np.testing.assert_allclose(cross_covariance(x, z, ident), [[2.0]])
    np.testing.assert_allclose(cross_covariance(x, z, swap), [[-2.0]])


def test_cross_covariance_elementwise_oracle():
    rng = np.random.default_rng(4)
    x = rng.standard_normal((3, 2))
    z = rng.standard_normal((2, 1))
    pi = Assignment(np.array([1, 0, 1]))
    expected = np.zeros((2, 1))
    for i in range(3):
        expected += np.outer(x[i], z[pi.map[i]])
    np.testing.assert_allclose(cross_covariance(x, z, pi), expected, atol=1e-12)


@settings(max_examples=30, deadline=None)
@given(
    arrays(np.float64, (4, 3), elements=st.floats(-100, 100)),
    st.floats(-10, 10),
)
def test_cross_covariance_linear_in_x(x, alpha):
    z = np.array([[1.0, 2.0], [0.5, -1.0]])
    pi = Assignment(np.array([0, 1, 1, 0]))
    lhs = cross_covariance(alpha * x, z, pi)
    rhs = alpha * cross_covariance(x, z, pi)
    np.testing.assert_allclose(lhs, rhs, atol=1e-9)


def test_cross_covariance_dimension_mismatch():
    with pytest.raises(InvalidInput):
        cross_covariance(np.ones((2, 2)), np.ones((2, 2)), Assignment(np.array([0, 1, 0])))


def test_cross_covariance_map_errors_name_the_first_bad_row():
    x, z = np.ones((3, 2)), np.ones((2, 2))
    with pytest.raises(InvalidInput, match=r"^row 1: record id 2 outside \[0, 2\)$"):
        cross_covariance(x, z, Assignment(np.array([0, 2, 3])))
    with pytest.raises(InvalidInput, match=r"^row 2: the map has 2 rows, expected 3$"):
        cross_covariance(x, z, Assignment(np.array([0, 1])))
    with pytest.raises(InvalidInput, match=r"^row 1: record id -1 is negative$"):
        Assignment(np.array([0, -1]))


def test_center_columns():
    centered, means = center_columns(np.array([[5.0], [5.0], [5.0]]))
    np.testing.assert_allclose(centered, np.zeros((3, 1)))
    np.testing.assert_allclose(means, [5.0])

    x = np.array([[1.0, 2.0], [3.0, 6.0]])
    centered, means = center_columns(x)
    np.testing.assert_allclose(centered, [[-1.0, -2.0], [1.0, 2.0]])
    np.testing.assert_allclose(means, [2.0, 4.0])

    again, means2 = center_columns(centered)
    np.testing.assert_array_equal(again, centered)
    np.testing.assert_allclose(means2, [0.0, 0.0], atol=1e-12)
    assert np.abs(centered.mean(axis=0)).max() <= 1e-12


@pytest.mark.parametrize("n,k,m", [
    (500, 128, 128),  # 16-row blocks
    (37, 128, 128),   # a short last block
    (16, 128, 128),   # one block: plain product
    (300, 8, 8),      # small: plain product
    (40, 768, 768),   # blocks under 16 rows: plain product
    (129, 64, 1),
])
def test_blocked_matmul_matches_plain_product(n, k, m):
    from amsal.linalg import _matmul

    rng = np.random.default_rng(n * 1000 + k + m)
    a = rng.standard_normal((n, k))
    b = rng.standard_normal((k, m))
    np.testing.assert_array_equal(_matmul(a, b), a @ b)
    # transposed views, as the eraser checks pass them
    np.testing.assert_array_equal(_matmul(b.T, a.T), b.T @ a.T)


@pytest.mark.parametrize("n,d", [
    (500, 128),  # 16-row blocks
    (37, 128),   # a short last block
    (16, 128),   # one block: plain product
    (300, 8),    # small: plain product
    (40, 768),   # blocks under 16 rows: plain product
])
def test_blocked_gram_matches_plain_product(n, d):
    from amsal.linalg import _gram

    a = np.random.default_rng(n * 1000 + d).standard_normal((n, d))
    plain = a.T @ a
    np.testing.assert_allclose(_gram(a), plain, rtol=0, atol=1e-12 * np.abs(plain).max())


def test_top_eigenvalue_bound_is_an_upper_bound_within_its_factor():
    from amsal.linalg import EIG_SQUARINGS, _top_eigenvalue_bound

    rng = np.random.default_rng(17)
    grams = [np.eye(128), np.eye(1), np.diag([0.0, 0.0, 5.0])]
    for n, d in ((500, 128), (300, 8), (100, 16), (20, 64)):
        a = rng.standard_normal((n, d)) * rng.uniform(0.1, 10.0, size=d)
        grams.append(a.T @ a)
    # the top direction orthogonal to the all-ones vector and to every
    # coordinate axis but two, where a power iteration from ones stalls
    q = np.linalg.qr(rng.standard_normal((128, 128)))[0]
    q[:, 0] = 0.0
    q[:2, 0] = [2 ** -0.5, -(2 ** -0.5)]
    q = np.linalg.qr(q)[0]
    grams.append((q * np.linspace(1.0, 2.0, 128)[::-1]) @ q.T)
    for g in grams:
        exact = np.linalg.eigvalsh(g)[-1]
        got = _top_eigenvalue_bound(g)
        assert exact * (1 - 1e-12) <= got <= exact * g.shape[0] ** 0.5 ** EIG_SQUARINGS * (1 + 1e-12)
    assert _top_eigenvalue_bound(np.eye(128)) == pytest.approx(128 ** 0.5 ** EIG_SQUARINGS)
    assert _top_eigenvalue_bound(np.zeros((5, 5))) == 0.0


def test_norms():
    a = np.diag([3.0, 1.0])
    assert spectral_norm(a) == pytest.approx(3.0)
    assert _frobenius_norm(a) == pytest.approx(np.sqrt(10.0))
    zero = np.zeros((2, 3))
    assert spectral_norm(zero) == 0.0
    assert _frobenius_norm(zero) == 0.0
    rng = np.random.default_rng(5)
    b = rng.standard_normal((4, 4))
    assert spectral_norm(b) <= _frobenius_norm(b) + 1e-12


def test_singular_value_sum():
    assert singular_value_sum(np.zeros((3, 2))) == 0.0
    assert singular_value_sum(np.eye(4)) == pytest.approx(4.0)
    rng = np.random.default_rng(6)
    a = rng.standard_normal((3, 2))
    eigs = np.linalg.eigvalsh(a.T @ a)
    assert singular_value_sum(a) == pytest.approx(np.sqrt(np.clip(eigs, 0, None)).sum())


def test_numerical_rank():
    assert svd(np.eye(3)).rank == 3
    assert svd(np.zeros((2, 2))).rank == 0
    a = np.diag([1.0, 1e-14])
    assert svd(a).rank == 1
