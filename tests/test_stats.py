import numpy as np
import pytest

from wlckf.augmented import augmented_to_real_matrix, real_matrix_to_augmented
from wlckf.errors import ConsistencyError, DimensionError, NotPSDError
from wlckf.stats import (
    SecondOrderStats,
    composite_factor,
    empirical_stats,
    sample,
    sample_batch,
    substream,
    validate,
)


def random_valid_stats(seed, n=2, mean_scale=1.0):
    """Valid stats by construction: mapped from a real composite covariance."""
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((2 * n, 2 * n))
    mu = mean_scale * rng.standard_normal(2 * n)
    cov = real_matrix_to_augmented(a @ a.T / (2 * n), "covariance")
    return SecondOrderStats(mu[:n] + 1j * mu[n:], cov.m1, cov.m2)


def test_propriety_matches_dual_channel_condition():
    # Proper iff the composite has equal channel covariances and
    # antisymmetric cross-covariance.
    rng = np.random.default_rng(1)
    for k in range(20):
        stats = random_valid_stats(k, n=2)
        cov_z = augmented_to_real_matrix(stats.augmented_cov(), "covariance")
        ruu, rvv, ruv = cov_z[:2, :2], cov_z[2:, 2:], cov_z[:2, 2:]
        dual = np.allclose(ruu, rvv, atol=1e-9) and np.allclose(ruv, -ruv.T, atol=1e-9)
        scale = max(1.0, np.max(np.abs(stats.hermitian_cov)))
        assert (np.max(np.abs(stats.complementary_cov)) <= 1e-9 * scale) == dual
    # and a constructed proper case
    c = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    stats = SecondOrderStats(np.zeros(2), c @ c.conj().T, np.zeros((2, 2)))
    cov_z = augmented_to_real_matrix(stats.augmented_cov(), "covariance")
    assert np.allclose(cov_z[:2, :2], cov_z[2:, 2:])
    assert np.allclose(cov_z[:2, 2:], -cov_z[:2, 2:].T)


def test_validate_rejects_excess_complementary():
    with pytest.raises(NotPSDError):
        validate(SecondOrderStats(np.zeros(1), [[1.0]], [[1.2]]))


def test_validate_accepts_proper_identity():
    validate(SecondOrderStats(np.zeros(2), np.eye(2), np.zeros((2, 2))))


def test_validate_rejects_asymmetric_complementary():
    rt = np.array([[0.1, 0.2], [0.3, 0.1]])
    with pytest.raises(ConsistencyError, match="symmetric"):
        validate(SecondOrderStats(np.zeros(2), np.eye(2), rt))


def test_validate_rejects_non_hermitian():
    r = np.array([[1.0, 1j], [1j, 1.0]])
    with pytest.raises(ConsistencyError, match="Hermitian"):
        validate(SecondOrderStats(np.zeros(2), r, np.zeros((2, 2))))


@pytest.mark.parametrize("m1, m2", [
    ([[np.nan, 0.0], [0.0, 1.0]], np.zeros((2, 2))),
    (np.eye(2), [[0.0, np.inf], [np.inf, 0.0]]),
], ids=["nan-hermitian", "inf-complementary"])
def test_validate_rejects_non_finite_covariances(m1, m2):
    with pytest.raises(ConsistencyError, match="non-finite"):
        validate(SecondOrderStats(np.zeros(2), m1, m2))


def test_sample_maximally_improper_is_real():
    stats = SecondOrderStats(np.zeros(1), [[1.0]], [[1.0]])
    x = sample(stats, 1000, substream(0, 0))
    assert np.max(np.abs(x.imag)) == 0.0


def test_sample_proper_moments():
    stats = SecondOrderStats(np.zeros(1), [[1.0]], [[0.0]])
    x = sample(stats, 100_000, substream(1, 0))
    emp = empirical_stats(x)
    assert abs(emp.hermitian_cov[0, 0] - 1.0) < 0.05
    assert abs(emp.complementary_cov[0, 0]) < 0.05


def test_sample_improper_channel_split():
    stats = SecondOrderStats(np.zeros(1), [[1.0]], [[0.8]])
    x = sample(stats, 100_000, substream(2, 0))
    assert np.var(x.real) == pytest.approx(0.9, abs=0.05)
    assert np.var(x.imag) == pytest.approx(0.1, abs=0.05)


def test_sample_reproducible():
    stats = random_valid_stats(5)
    a = sample(stats, 100, substream(7, 3))
    b = sample(stats, 100, substream(7, 3))
    assert np.array_equal(a, b)


def test_substreams_are_order_independent():
    stats = random_valid_stats(5)
    b_first = sample(stats, 10, substream(7, 1))
    _ = sample(stats, 10, substream(7, 0))
    b_again = sample(stats, 10, substream(7, 1))
    assert np.array_equal(b_first, b_again)


def test_empirical_stats_two_points():
    emp = empirical_stats(np.array([[1 + 0j], [-1 + 0j]]))
    assert emp.mean == pytest.approx([0.0])
    assert emp.hermitian_cov[0, 0] == pytest.approx(2.0)
    assert emp.complementary_cov[0, 0] == pytest.approx(2.0)


def test_empirical_stats_constant_samples():
    emp = empirical_stats(np.full((5, 2), 1 + 1j))
    assert np.max(np.abs(emp.hermitian_cov)) == 0.0
    assert np.max(np.abs(emp.complementary_cov)) == 0.0


def test_empirical_stats_rejects_single_sample():
    with pytest.raises(DimensionError):
        empirical_stats(np.ones((1, 2), complex))


def test_empirical_stats_rejects_ragged():
    with pytest.raises(DimensionError):
        empirical_stats([np.ones(2), np.ones(3)])


def test_sample_round_trip_large():
    stats = random_valid_stats(11, n=2, mean_scale=0.5)
    x = sample(stats, 1_000_000, substream(3, 0))
    emp = empirical_stats(x)
    assert np.max(np.abs(emp.mean - stats.mean)) < 0.01
    assert np.max(np.abs(emp.hermitian_cov - stats.hermitian_cov)) < 0.01
    assert np.max(np.abs(emp.complementary_cov - stats.complementary_cov)) < 0.01


def test_empirical_error_shrinks_with_sample_count():
    stats = random_valid_stats(13, n=1)

    def err(count, key):
        emp = empirical_stats(sample(stats, count, substream(17, key)))
        return max(
            np.max(np.abs(emp.hermitian_cov - stats.hermitian_cov)),
            np.max(np.abs(emp.complementary_cov - stats.complementary_cov)),
        )

    # 100x more samples: error should shrink roughly 10x; allow 3x slack.
    assert err(100_000, 1) < err(1_000, 0) / 3


def stacked_stats(members):
    return SecondOrderStats(*(np.stack([getattr(s, name) for s in members]) for name in
                              ("mean", "hermitian_cov", "complementary_cov")))


@pytest.mark.parametrize("n", [1, 2, 4, 8])
def test_factor_route_stack_equals_members_bit_for_bit(n):
    # Improper, proper and maximally improper (singular) members.
    members = [random_valid_stats(40 + n, n), random_valid_stats(41 + n, n)]
    members[1] = SecondOrderStats(members[1].mean, members[1].hermitian_cov)
    members.append(SecondOrderStats(np.ones(n), np.eye(n), np.eye(n)))
    stats = stacked_stats(members)
    mu_z, b = composite_factor(stats)
    draws = sample_batch(stats, 5, [substream(9, i) for i in range(3)])
    assert draws.shape == (3, 5, n)
    for i, member in enumerate(members):
        mu_i, b_i = composite_factor(member)
        assert np.array_equal(mu_z[i], mu_i) and np.array_equal(b[i], b_i)
        assert np.array_equal(draws[i], sample(member, 5, substream(9, i)))


def test_factor_route_stack_names_first_failing_member():
    good = random_valid_stats(50)
    asymmetric = SecondOrderStats(np.zeros(2), np.eye(2), [[0.0, 0.3], [0.0, 0.0]])
    indefinite = SecondOrderStats(np.zeros(2), np.eye(2), 1.5 * np.eye(2))
    with pytest.raises(ConsistencyError, match="M2 is not symmetric") as info:
        composite_factor(stacked_stats([good, asymmetric, indefinite]))
    assert info.value.index == (1,)
    with pytest.raises(NotPSDError) as info:
        sample_batch(stacked_stats([good, indefinite, good]), 3, [substream(0, i) for i in range(3)])
    assert info.value.index == (1,)


def test_sample_batch_needs_one_generator_per_member():
    stats = stacked_stats([random_valid_stats(51), random_valid_stats(52)])
    with pytest.raises(DimensionError):
        sample_batch(stats, 3, [substream(0, 0)])


def test_sample_is_a_batch_of_one_and_refuses_batched_statistics():
    stats = random_valid_stats(53)
    assert np.array_equal(sample(stats, 4, substream(0, 0)), sample_batch(stacked_stats([stats]), 4, [substream(0, 0)])[0])
    with pytest.raises(DimensionError):
        sample(stacked_stats([stats, random_valid_stats(54)]), 3, substream(0, 0))
    with pytest.raises(DimensionError):
        sample(stats, 0, substream(0, 0))
