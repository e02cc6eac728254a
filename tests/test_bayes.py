import numpy as np
import pytest

from mcmatrix import BayesConfig, bayesian_signed_rank, posterior_samples
from mcmatrix.errors import ValidationError

from conftest import posterior_bits, swapped_posterior_bits
from oracles import bayes_posterior_means


def test_config_validation():
    with pytest.raises(ValidationError, match="rope must be finite"):
        bayesian_signed_rank([[1.0]], BayesConfig(rope=-0.1))[0]
    with pytest.raises(ValidationError, match="prior strength must be finite"):
        bayesian_signed_rank([[1.0]], BayesConfig(prior_strength=0.0))[0]
    with pytest.raises(ValidationError, match="mc_samples must be at least 1"):
        bayesian_signed_rank([[1.0]], BayesConfig(mc_samples=0))[0]
    with pytest.raises(ValidationError, match="seed must be a 64-bit"):
        bayesian_signed_rank([[1.0]], BayesConfig(seed=-1))[0]


@pytest.mark.parametrize("field, value, message", [
    ("mc_samples", True, "mc_samples must be an integer"),
    ("mc_samples", float("nan"), "mc_samples must be an integer"),
    ("mc_samples", float("inf"), "mc_samples must be an integer"),
    ("mc_samples", 2.7, "mc_samples must be an integer"),
    ("mc_samples", 2000.0, "mc_samples must be an integer"),
    ("mc_samples", "2000", "mc_samples must be an integer"),
    ("seed", False, "seed must be an integer"),
    ("seed", float("nan"), "seed must be an integer"),
    ("seed", float("inf"), "seed must be an integer"),
    ("seed", 1.5, "seed must be an integer"),
    ("rope", "0.1", "rope must be a real number"),
    ("rope", None, "rope must be a real number"),
    ("rope", True, "rope must be a real number"),
    ("rope", 0.1 + 0j, "rope must be a real number"),
    pytest.param("rope", 10**400, "rope must be finite", id="rope-int-past-float-range"),
    ("prior_strength", "1", "prior strength must be a real number"),
    ("prior_strength", 1j, "prior strength must be a real number"),
    ("prior_strength", float("nan"), "prior strength must be finite"),
])
def test_config_of_the_wrong_kind_is_refused(field, value, message):
    config = BayesConfig(**{field: value})
    with pytest.raises(ValidationError, match=message):
        config.validate()
    with pytest.raises(ValidationError, match=message):
        bayesian_signed_rank([[1.0]], config)


def test_config_accepts_numpy_scalars():
    config = BayesConfig(rope=np.float64(0.05), prior_strength=np.float32(2.0),
                         mc_samples=np.int64(300), seed=np.uint64(2**64 - 1))
    plain = BayesConfig(rope=0.05, prior_strength=2.0, mc_samples=300, seed=2**64 - 1)
    assert list(bayesian_signed_rank([[0.3, -0.1]], config)) == list(bayesian_signed_rank(
        [[0.3, -0.1]], plain))


def test_block_rows_must_be_one_length_of_numbers():
    with pytest.raises(ValidationError, match="one row of differences per pair"):
        bayesian_signed_rank([1.0, 2.0], BayesConfig(mc_samples=10))
    with pytest.raises(ValidationError, match="in rows of one length"):
        bayesian_signed_rank([[1.0, 2.0], [1.0]], BayesConfig(mc_samples=10))
    with pytest.raises(ValidationError, match="differences must be numbers"):
        bayesian_signed_rank([["0.5"], ["x"]], BayesConfig(mc_samples=10))
    assert len(bayesian_signed_rank(np.empty((0, 3)), BayesConfig(mc_samples=10))) == 0


@pytest.mark.parametrize("rows", [
    [["0.5", "-0.25"]],
    [[True, False]],
    [[0.5, True]],
    [np.array([0.5, -0.25]), np.array([True, False])],
    [[0.5 + 0j, -0.25]],
    [[None, -0.25]],
    np.array([[0.5, -0.25]], dtype=object),
], ids=["strings", "bools", "mixed-bool", "bool-row", "complex", "none", "object"])
def test_non_numbers_refused(rows):
    with pytest.raises(ValidationError, match="differences must be numbers"):
        bayesian_signed_rank(rows, BayesConfig(mc_samples=10))


def test_empty_and_nonfinite_input():
    with pytest.raises(ValidationError, match="need at least one difference"):
        bayesian_signed_rank([[]], BayesConfig())[0]
    with pytest.raises(ValidationError):
        bayesian_signed_rank([[np.nan]], BayesConfig())[0]


def test_uniform_positive_differences_concentrate_right():
    # All pair sums exceed the rope except those involving the zero
    # pseudo-observation, whose expected weight is 2 / ((q+1)(q+2)).
    q = 20
    config = BayesConfig(rope=0.01, mc_samples=30_000, seed=11)
    posterior = bayesian_signed_rank([[10.0] * q], config)[0]
    assert posterior.theta_right >= 0.99
    analytic_rope = 2.0 / ((q + 1) * (q + 2))
    assert posterior.theta_rope == pytest.approx(analytic_rope, rel=0.15)
    assert posterior.theta_left == 0.0


def test_symmetric_differences_balance():
    config = BayesConfig(rope=0.0, mc_samples=40_000, seed=5)
    posterior = bayesian_signed_rank([[0.4, -0.4]], config)[0]
    samples = posterior_samples([0.4, -0.4], config)
    gap = samples[:, 0] - samples[:, 2]
    se = float(gap.std(ddof=1) / np.sqrt(samples.shape[0]))
    assert abs(posterior.theta_left - posterior.theta_right) <= 3.0 * se


def test_posterior_fields_partition():
    config = BayesConfig(mc_samples=5_000, seed=3)
    posterior = bayesian_signed_rank([[0.3, -0.1, 0.02, 0.0]], config)[0]
    triple = (posterior.theta_left, posterior.theta_rope, posterior.theta_right)
    assert all(0.0 <= t <= 1.0 for t in triple)
    assert sum(triple) == pytest.approx(1.0, abs=1e-9)
    assert posterior.mc_samples_used == 5_000


def test_per_sample_triples_sum_to_one_exactly():
    config = BayesConfig(mc_samples=4_000, seed=17)
    samples = posterior_samples([1.0, -0.5, 0.25, 0.0, 2.0], config)
    totals = (samples[:, 0] + samples[:, 2]) + samples[:, 1]
    assert (totals == 1.0).all()


def test_seed_determinism_bit_identical():
    config = BayesConfig(mc_samples=12_345, seed=99)
    a = bayesian_signed_rank([[0.5, -0.2, 0.1]], config)[0]
    b = bayesian_signed_rank([[0.5, -0.2, 0.1]], config)[0]
    assert a == b
    c = bayesian_signed_rank([[0.5, -0.2, 0.1]], BayesConfig(mc_samples=12_345, seed=100))[0]
    assert c != a


@pytest.mark.parametrize("factor", [2.0, 0.25, 1024.0])
def test_power_of_two_scaling_invariance(factor):
    diffs = [0.37, -0.11, 0.023, 0.5]
    base = BayesConfig(rope=0.01, mc_samples=8_192, seed=21)
    scaled = BayesConfig(rope=0.01 * factor, mc_samples=8_192, seed=21)
    assert bayesian_signed_rank([diffs], base)[0] == bayesian_signed_rank(
        [[d * factor for d in diffs]], scaled
    )[0]


def test_integer_exact_scaling_invariance():
    # Non-dyadic factor on data where every product is float-exact.
    diffs = [3.0, -1.0, 2.0, 5.0]
    base = BayesConfig(rope=0.25, mc_samples=8_192, seed=34)
    scaled = BayesConfig(rope=0.75, mc_samples=8_192, seed=34)
    assert bayesian_signed_rank([diffs], base)[0] == bayesian_signed_rank(
        [[d * 3.0 for d in diffs]], scaled
    )[0]


def test_convergence_doubling_within_three_se():
    diffs = [0.3, -0.2, 0.15, 0.05, -0.4, 0.22]
    small = BayesConfig(mc_samples=16_384, seed=8)
    large = BayesConfig(mc_samples=32_768, seed=8)
    theta_small = bayesian_signed_rank([diffs], small)[0]
    theta_large = bayesian_signed_rank([diffs], large)[0]
    samples = posterior_samples(diffs, small)
    se = samples.std(axis=0, ddof=1) / np.sqrt(samples.shape[0])
    deltas = np.array(
        [
            theta_large.theta_left - theta_small.theta_left,
            theta_large.theta_rope - theta_small.theta_rope,
            theta_large.theta_right - theta_small.theta_right,
        ]
    )
    assert (np.abs(deltas) <= 3.0 * np.maximum(se, 1e-12)).all()


@pytest.mark.parametrize(
    "n, rope, prior_strength, shift",
    [(n, rope, s, 0.0) for n in (3, 10, 30) for rope in (0.0, 0.05) for s in (0.5, 1.0, 3.0)]
    # Every difference above 2 rope: theta_left is 0 in every sample.
    + [(10, 0.05, 1.0, 1.0)],
)
def test_sample_mean_within_four_se_of_closed_form(n, rope, prior_strength, shift):
    diffs = np.random.default_rng(n).normal(0.02, 0.1, size=n) + shift
    config = BayesConfig(rope=rope, prior_strength=prior_strength,
                         mc_samples=20_000, seed=1)
    samples = posterior_samples(diffs, config)
    se = samples.std(axis=0, ddof=1) / np.sqrt(samples.shape[0])
    error = np.abs(samples.mean(axis=0)
                   - np.array(bayes_posterior_means(diffs, rope, prior_strength)))
    assert (error <= np.where(se > 0.0, 4.0 * se, 1e-12)).all()


def test_boundary_sums_fall_in_rope():
    # z = [0, d]: the pair (0, 0) sums to 0 and (d, d) to 2d = 2r exactly;
    # both must count as "no meaningful difference" (closed rope).
    config = BayesConfig(rope=0.5, mc_samples=2_000, seed=2)
    posterior = bayesian_signed_rank([[0.5]], config)[0]
    assert posterior.theta_rope == 1.0
    assert posterior.theta_left == 0.0 and posterior.theta_right == 0.0


def test_samples_match_posterior_means():
    config = BayesConfig(mc_samples=10_000, seed=55)
    diffs = [0.2, -0.3, 0.4]
    posterior = bayesian_signed_rank([diffs], config)[0]
    samples = posterior_samples(diffs, config)
    means = samples.mean(axis=0)
    assert posterior.theta_left == pytest.approx(means[0], abs=1e-12)
    assert posterior.theta_rope == pytest.approx(means[1], abs=1e-12)
    assert posterior.theta_right == pytest.approx(means[2], abs=1e-12)


@pytest.mark.parametrize("rope", [0.0, 0.01, 0.5])
def test_mirror_equals_negated_differences_bit_for_bit(rope):
    rng = np.random.default_rng(21)
    config = BayesConfig(rope=rope, mc_samples=9_000, seed=4)
    cases = [
        np.round(rng.normal(0.0, 0.3, size=20), 1),  # tied |d|, sums on the rope edge
        np.array([0.0, 0.0, 0.4, -0.2, 0.0, 0.0]),    # half the differences are zero
        np.array([0.0]),
        np.array([0.7]),
        rng.normal(0.0, 0.2, size=108),
    ]
    for d in cases:
        table = bayesian_signed_rank([d], config)
        mirror = posterior_bits(bayesian_signed_rank([-d], config)[0])
        assert swapped_posterior_bits(table[0]) == mirror
        assert posterior_bits(table.cell(-1)) == mirror


def test_prior_pseudo_observation_is_not_configurable():
    # A nonzero pseudo-observation would make a reversed pair's posterior
    # differ from the mirror of the pair's posterior.
    with pytest.raises(TypeError):
        BayesConfig(prior_pseudo_observation=0.3)
