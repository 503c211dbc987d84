import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from wlckf.augmented import (
    RCOND,
    AugmentedMatrix,
    AugmentedVector,
    augmented_to_real,
    augmented_to_real_matrix,
    build_transform,
    psd_sqrt,
    real_matrix_to_augmented,
)
from wlckf.errors import ConsistencyError, DimensionError, NotPSDError

finite = st.floats(-10, 10, allow_nan=False, allow_infinity=False)


def real_vectors(length):
    return arrays(np.float64, (length,), elements=finite)


def test_transform_n1_exact():
    t = build_transform(1)
    assert np.array_equal(t, np.array([[1, 1j], [1, -1j]]))


@pytest.mark.parametrize("n", range(1, 9))
def test_transform_unitary_within_factor_2(n):
    t = build_transform(n)
    eye2 = 2 * np.eye(2 * n)
    assert np.max(np.abs(t @ t.conj().T - eye2)) <= 1e-14
    assert np.max(np.abs(t.conj().T @ t - eye2)) <= 1e-14


def test_transform_inverse_is_half_hermitian():
    t = build_transform(3)
    assert np.max(np.abs(np.linalg.inv(t) - t.conj().T / 2)) <= 1e-14


def test_transform_is_built_once_and_read_only():
    t = build_transform(3)
    assert build_transform(3) is t
    assert not t.flags.writeable
    with pytest.raises(ValueError):
        t[0, 0] = 2.0


def test_full_matches_block_reference_for_rectangular_blocks():
    rng = np.random.default_rng(5)
    m1 = rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
    m2 = rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
    reference = np.block([[m1, m2], [np.conj(m2), np.conj(m1)]])
    assert np.array_equal(AugmentedMatrix(m1, m2).full(), reference)


def test_augmented_to_real_basic():
    z = augmented_to_real(AugmentedVector([1 + 2j]))
    assert z == pytest.approx([1.0, 2.0])


@given(real_vectors(8))
def test_vector_round_trip(z):
    back = augmented_to_real(AugmentedVector(z[:4] + 1j * z[4:]))
    assert np.max(np.abs(back - z)) < 1e-14


def test_system_mode_identity():
    m = real_matrix_to_augmented(np.eye(2), "system")
    assert m.m1 == pytest.approx(np.eye(1))
    assert m.m2 == pytest.approx(np.zeros((1, 1)))


def test_system_mode_rotation_generator_is_multiplication_by_j():
    m = real_matrix_to_augmented([[0.0, -1.0], [1.0, 0.0]], "system")
    assert np.allclose(m.m1, [[1j]], atol=1e-15)
    assert np.allclose(m.m2, [[0.0]], atol=1e-15)


def test_covariance_mode_single_channel_is_maximally_improper():
    m = real_matrix_to_augmented(np.diag([1.0, 0.0]), "covariance")
    assert np.allclose(m.m1, [[1.0]], atol=1e-15)
    assert np.allclose(m.m2, [[1.0]], atol=1e-15)


def test_covariance_mode_identity_drops_to_half_eye():
    back = augmented_to_real_matrix(AugmentedMatrix([[1.0]], [[0.0]]), "covariance")
    assert back == pytest.approx(np.diag([0.5, 0.5]))


@pytest.mark.parametrize("rho", [0.0, 0.25, 0.5, 0.75, 1.0])
def test_covariance_mode_scalar_impropriety_split(rho):
    aug = AugmentedMatrix([[1.0]], [[rho]])
    back = augmented_to_real_matrix(aug, "covariance")
    expected = np.diag([(1 + rho) / 2, (1 - rho) / 2])
    assert back == pytest.approx(expected, abs=1e-14)


@given(arrays(np.float64, (6, 6), elements=finite))
@settings(max_examples=50)
def test_matrix_round_trip_both_modes(m):
    m = m + m.T  # symmetric is the common case but any matrix round-trips
    for mode in ("system", "covariance"):
        aug = real_matrix_to_augmented(m, mode)
        back = augmented_to_real_matrix(aug, mode)
        assert np.max(np.abs(back - m)) <= 1e-12 * max(1.0, np.max(np.abs(m)))


@given(arrays(np.float64, (6, 6), elements=finite))
@settings(max_examples=50)
def test_lift_satisfies_block_pattern_exactly(m):
    aug = real_matrix_to_augmented(m, "covariance")
    full = aug.full()
    assert np.array_equal(full[3:, :3], np.conj(full[:3, 3:]))
    assert np.array_equal(full[3:, 3:], np.conj(full[:3, :3]))


def test_matrix_round_trip_psd():
    rng = np.random.default_rng(0)
    a = rng.standard_normal((6, 6))
    m = a @ a.T
    aug = real_matrix_to_augmented(m, "covariance")
    back = augmented_to_real_matrix(aug, "covariance")
    assert np.max(np.abs(back - m)) <= 1e-12 * np.max(np.abs(m))


def test_real_matrix_to_augmented_rejects_odd():
    with pytest.raises(DimensionError):
        real_matrix_to_augmented(np.eye(3), "system")


def test_block_pattern_always_has_real_composite_form():
    # The block-conjugate pattern is exactly the condition for a real
    # composite image, so any stored matrix drops cleanly, phases included.
    rng = np.random.default_rng(9)
    for _ in range(10):
        m = AugmentedMatrix(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)),
                            rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
        out = augmented_to_real_matrix(m, "covariance")
        assert out.dtype == np.float64


def test_psd_sqrt_scaled_identity():
    b = psd_sqrt(4 * np.eye(2))
    assert b @ b.T == pytest.approx(4 * np.eye(2))


def test_psd_sqrt_rank_deficient():
    m = np.ones((2, 2))
    b = psd_sqrt(m)
    assert b @ b.T == pytest.approx(m, abs=1e-12)


def test_psd_sqrt_rejects_indefinite():
    with pytest.raises(NotPSDError):
        psd_sqrt(np.diag([1.0, -0.5]))


def test_psd_sqrt_rejects_asymmetric():
    with pytest.raises(ConsistencyError):
        psd_sqrt(np.array([[1.0, 1.0], [0.0, 1.0]]))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_psd_sqrt_rejects_non_finite_entries(bad):
    # A NaN eigenvalue would pass the PSD test and be flushed to a zero column.
    m = np.eye(2)
    m[0, 0] = bad
    with pytest.raises(ConsistencyError, match="finite entries") as info:
        psd_sqrt(np.stack([np.eye(2), m]))
    assert info.value.index == (1,)


@pytest.mark.parametrize("k", [1, 2, 3, 5])
def test_psd_sqrt_residual_on_random_psd(k):
    rng = np.random.default_rng(k)
    a = rng.standard_normal((4, k))  # rank-deficient for k < 4
    m = a @ a.T
    b = psd_sqrt(m)
    res = np.linalg.norm(b @ b.T - m)
    assert res <= 1e-10 * max(1.0, np.linalg.norm(m))


@pytest.mark.parametrize("k", [1, 2, 4, 8])
def test_psd_sqrt_stack_equals_members_bit_for_bit(k):
    # Full-rank and rank-deficient members, over two batch axes.
    rng = np.random.default_rng(30 + k)
    stack = np.empty((3, 2, k, k))
    for i in np.ndindex(3, 2):
        a = rng.standard_normal((k, max(1, k - i[0])))
        stack[i] = a @ a.T
    factors = psd_sqrt(stack)
    assert factors.shape == stack.shape
    for i in np.ndindex(3, 2):
        assert np.array_equal(factors[i], psd_sqrt(stack[i]))


def test_psd_sqrt_stack_names_first_failing_member():
    good = np.eye(2)
    with pytest.raises(NotPSDError, match="below") as info:
        psd_sqrt(np.stack([good, np.diag([1.0, -0.5]), np.diag([-1.0, 1.0])]))
    assert info.value.index == (1,)
    with pytest.raises(ConsistencyError, match="symmetric matrix") as info:
        psd_sqrt(np.stack([[good, good], [good, np.array([[1.0, 1.0], [0.0, 1.0]])]]))
    assert info.value.index == (1, 1)


def test_augmented_matrix_product_keeps_pattern():
    rng = np.random.default_rng(3)
    a = AugmentedMatrix(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)),
                        rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
    b = AugmentedMatrix(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)),
                        rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
    prod = a @ b
    assert np.max(np.abs(prod.full() - a.full() @ b.full())) < 1e-12


def test_augmented_matrix_vector_product_is_conjugate_symmetric():
    rng = np.random.default_rng(4)
    a = AugmentedMatrix(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)),
                        rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
    v = AugmentedVector(rng.standard_normal(2) + 1j * rng.standard_normal(2))
    out = a @ v
    assert np.max(np.abs(out.full() - a.full() @ v.full())) < 1e-12


@given(st.integers(0, 10_000))
@settings(max_examples=50, deadline=None)
def test_solve_right_solves_and_keeps_pattern(seed):
    from wlckf.augmented import block_conjugate, solve_right

    rng = np.random.default_rng(seed)
    # A Hermitian a, as solve_right requires: a random augmented covariance plus 3 I, which keeps it well conditioned.
    z = rng.standard_normal((4, 4))
    cov = real_matrix_to_augmented(z @ z.T, "covariance")
    a = AugmentedMatrix(cov.m1 + 3.0 * np.eye(2), cov.m2)
    b = AugmentedMatrix(rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2)),
                        rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2)))
    x_top, singular = solve_right(b.full()[:3], a.full())
    assert not singular
    full = block_conjugate(x_top[:, :2], x_top[:, 2:])
    residual = full @ a.full() - b.full()
    assert np.max(np.abs(residual)) <= 1e-9 * max(1.0, np.max(np.abs(b.full())))
    assert np.array_equal(full[3:, 2:], np.conj(full[:3, :2]))
    assert np.array_equal(full[3:, :2], np.conj(full[:3, 2:]))


def _batch_with_one_singular_s(singular_member=2, size=5, n=2, m=2):
    """Top block rows of P C^H and full S = C P C^H + R for a batch of random models.

    The singular member measures the same composite channel twice, with R = 0.
    """
    rng = np.random.default_rng(11)
    b_top, s = [], []
    for i in range(size):
        g = rng.standard_normal((2 * m, 2 * n))
        r = 0.5 * np.eye(2 * m)
        if i == singular_member:
            g[1] = g[0]
            r = np.zeros((2 * m, 2 * m))
        z = rng.standard_normal((2 * n, 2 * n))
        p = real_matrix_to_augmented(z @ z.T + 0.1 * np.eye(2 * n), "covariance").full()
        c = real_matrix_to_augmented(g, "system").full()
        s.append(c @ p @ c.conj().T + real_matrix_to_augmented(r, "covariance").full())
        b_top.append((p @ c.conj().T)[:n])
    return np.stack(b_top), np.stack(s)


def _svd_singular(a):
    """The singular-value form of solve_right's rule."""
    sv = np.linalg.svd(a, compute_uv=False)
    return (sv[..., 0] == 0) | (sv[..., -1] <= RCOND * sv[..., 0])


def _hermitian_with_condition(rng, n, cond):
    """A random 2n x 2n Hermitian augmented array, PSD or indefinite, with condition number ``cond``."""
    q = np.linalg.qr(rng.standard_normal((2 * n, 2 * n)))[0]
    magnitudes = np.geomspace(1.0, 1.0 / cond, 2 * n)
    signs = np.where(rng.random(2 * n) < 0.25, -1.0, 1.0)
    full = real_matrix_to_augmented(q @ np.diag(signs * magnitudes) @ q.T, "covariance").full()
    return (full + full.conj().T) / 2


def _hermitian_stacks():
    """(b_top, a) stacks of Hermitian a with condition numbers from 1e4 to 1e18, for n = 1, 2 and 4.

    The members within 1% of 1 / RCOND, where rounding may decide the rule, are left out.
    """
    rng = np.random.default_rng(13)
    conds = np.geomspace(1e4, 1e18, 57)
    conds = conds[np.abs(conds * RCOND - 1) > 0.01]
    for n in (1, 2, 4):
        a = np.stack([_hermitian_with_condition(rng, n, cond) for cond in conds])
        b_top = rng.standard_normal((len(conds), n, 2 * n)) + 1j * rng.standard_normal((len(conds), n, 2 * n))
        yield b_top, a


def test_solve_right_batch_takes_lstsq_only_for_the_singular_member(monkeypatch):
    from wlckf.augmented import solve_right

    calls = {"solve": 0, "lstsq": 0}
    for name in calls:
        def counted(*args, _name=name, _fn=getattr(np.linalg, name), **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    b_top, s = _batch_with_one_singular_s()
    x_top, singular = solve_right(b_top, s)
    assert calls == {"solve": 1, "lstsq": 1}
    assert singular.tolist() == [False, False, True, False, False]
    for i in range(len(s)):
        alone, flag = solve_right(b_top[i], s[i])
        assert flag == singular[i]
        assert np.array_equal(alone, x_top[i])
    # The eigenvalue test flags exactly what the singular-value rule flags.
    for b_top, a in _hermitian_stacks():
        calls.update(solve=0, lstsq=0)
        x_top, singular = solve_right(b_top, a)
        assert np.array_equal(singular, _svd_singular(a))
        assert 0 < np.count_nonzero(singular) < len(a)
        assert calls == {"solve": 1, "lstsq": np.count_nonzero(singular)}
        for i in range(len(a)):
            alone, flag = solve_right(b_top[i], a[i])
            assert flag == singular[i]
            assert np.array_equal(alone, x_top[i])


def test_block_conjugate_and_covariance_act_per_slice():
    from wlckf.augmented import block_conjugate
    from wlckf.linear import _covariance

    rng = np.random.default_rng(12)

    def cmat(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    m1, m2, top = cmat(2, 4, 3, 2), cmat(2, 4, 3, 2), cmat(2, 4, 3, 6)
    full, cov = block_conjugate(m1, m2), _covariance(top)
    for i in np.ndindex(2, 4):
        assert np.array_equal(full[i], block_conjugate(m1[i], m2[i]))
        assert np.array_equal(cov[i], _covariance(top[i]))


def test_batched_conversions_check_each_member_on_its_own_scale():
    from wlckf.augmented import full_to_real_matrix

    big = real_matrix_to_augmented(1e6 * np.eye(2), "covariance").full()
    small = real_matrix_to_augmented(np.eye(2), "covariance").full()
    assert np.array_equal(full_to_real_matrix(np.stack([big, small]), "covariance")[1], np.eye(2))
    # A residue of 1e-6 passes against the big member's scale, not against the small one's.
    with pytest.raises(ConsistencyError):
        full_to_real_matrix(np.stack([big, small + 1e-6j * np.eye(2)]), "covariance")
