import os
import threading
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mcmatrix import BayesConfig, bayes, bayesian_signed_rank, posterior_samples
from mcmatrix.bayes import CHUNK_SIZE
from mcmatrix.errors import ValidationError

from conftest import posterior_bits, swapped_posterior_bits
from oracles import bayes_chunks_serial, bayes_posterior_means, bayesian_signed_rank_serial

# The kernel splits a chunk over threads only while the BLAS runs each
# product on one thread; forcing more workers under a threaded BLAS is
# outside its contract.  CI runs this file with OPENBLAS_NUM_THREADS=1.
needs_pinned_blas = pytest.mark.skipif(
    bayes._blas_threads() != 1, reason="needs OPENBLAS_NUM_THREADS=1")
# Every worker count the kernel takes on this machine, and a few more.
CPUS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
SHARES = sorted(set(range(2, CPUS + 1)) | {3, 5, 16, 64})
WORKERS = [1] + [pytest.param(w, marks=needs_pinned_blas)
                 for w in sorted({2, 3, 5, max(2, CPUS)})]
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS")


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
        flipped = table.oriented(np.array([0]), flip=True)
        assert posterior_bits(table.record(*(column[0] for column in flipped))) == mirror


def test_prior_pseudo_observation_is_not_configurable():
    # A nonzero pseudo-observation would make a reversed pair's posterior
    # differ from the mirror of the pair's posterior.
    with pytest.raises(TypeError):
        BayesConfig(prior_pseudo_observation=0.3)


def _per_sample(z, config, workers):
    """Each row's per-sample thetas from the kernel split over ``workers``."""
    parts = [[] for _ in z]
    bayes._chunks(z, config, lambda i, thetas: parts[i].append(thetas), workers)
    return [np.concatenate(p).tobytes() for p in parts]


def _serial_per_sample(z, config):
    parts = [[] for _ in z]
    for i, thetas in bayes_chunks_serial(z, config):
        parts[i].append(thetas)
    return [np.concatenate(p).tobytes() for p in parts]


def _means_bits(table):
    return np.stack([table.theta_left, table.theta_rope, table.theta_right], axis=1).tobytes()


@pytest.mark.parametrize("workers", WORKERS)
@settings(max_examples=8, deadline=None)
@given(n=st.integers(1, 149), pairs=st.integers(1, max(7, CPUS)),
       samples=st.sampled_from([1, 424, 8193, 12345]), decimals=st.integers(1, 3),
       rope=st.sampled_from([0.0, 0.01, 0.05]), strength=st.sampled_from([0.5, 1.0, 3.0]),
       seed=st.integers(0, 2**64 - 1))
@example(n=108, pairs=2, samples=12345, decimals=2, rope=0.01, strength=1.0, seed=0)
@example(n=149, pairs=7, samples=424, decimals=1, rope=0.05, strength=3.0, seed=1)
@example(n=1, pairs=3, samples=8193, decimals=3, rope=0.0, strength=0.5, seed=2)
# q + 1 = 193 and 230 are widths whose row slices change bits on OpenBLAS's
# x86-64 kernels: those chunks run whole.
@example(n=192, pairs=2, samples=8193, decimals=2, rope=0.01, strength=1.0, seed=3)
@example(n=229, pairs=3, samples=8193, decimals=2, rope=0.01, strength=1.0, seed=4)
def test_threaded_kernel_matches_the_serial_loop_bit_for_bit(
        workers, n, pairs, samples, decimals, rope, strength, seed):
    rows = np.round(np.random.default_rng(seed % 1000).normal(0.0, 0.2, size=(pairs, n)),
                    decimals)
    config = BayesConfig(rope=rope, prior_strength=strength, mc_samples=samples, seed=seed)
    with mock.patch.object(bayes, "_workers", lambda: workers):
        table = bayesian_signed_rank(rows, config)
    assert _means_bits(table) == bayesian_signed_rank_serial(rows, config).tobytes()
    z = bayes._prepare(rows, config)
    assert _per_sample(z, config, workers) == _serial_per_sample(z, config)


@needs_pinned_blas
@pytest.mark.parametrize("workers", [16, 64])
def test_many_workers_match_the_serial_loop_bit_for_bit(workers):
    rows = np.round(np.random.default_rng(workers).normal(0.0, 0.2, size=(workers, 108)), 2)
    for samples in (424, CHUNK_SIZE + 424):
        config = BayesConfig(rope=0.01, mc_samples=samples, seed=workers)
        with mock.patch.object(bayes, "_workers", lambda: workers):
            table = bayesian_signed_rank(rows, config)
        assert _means_bits(table) == bayesian_signed_rank_serial(rows, config).tobytes()


def _slices(size, width, share):
    """A product buffer and slice edges as ``bayes._chunks`` makes them."""
    rows = -(-size // share)
    return np.empty((share * rows, width)), [size * t // share for t in range(share + 1)]


@pytest.mark.parametrize("share", SHARES)
def test_slice_check_passes_only_slices_that_keep_the_whole_products_bits(share):
    # A chunk is split only where this check passes on the BLAS in use:
    # then the product of each slice of the weights with a 0/1 region is
    # the whole product's rows.  Widths 193 and 230 fail on OpenBLAS's
    # x86-64 kernels, and small slices take a small-matrix kernel.
    for width in (2, 13, 50, 109, 193, 230):
        regions = [(np.random.default_rng(s).random((width, width)) < 0.5).astype(float)
                   for s in range(2)]
        for size in (3, 424, CHUNK_SIZE):
            if share > size:
                continue
            w = bayes._chunk_generator(3, 0).dirichlet(np.ones(width), size=size)
            buf, edges = _slices(size, width, share)
            if bayes._slices_keep_bits(w, buf, edges):
                for region in regions:
                    whole = w @ region
                    for lo, hi in zip(edges, edges[1:]):
                        assert (w[lo:hi] @ region).tobytes() == whole[lo:hi].tobytes(), (
                            width, size, share, lo, hi)


def test_slice_check_sees_one_changed_bit(monkeypatch):
    matmul = np.matmul
    w = bayes._chunk_generator(3, 0).dirichlet(np.ones(109), size=424)
    buf, edges = _slices(424, 109, 2)

    def last_bit_off_in_slices(a, b, out):
        matmul(a, b, out=out)
        if len(a) < len(w):
            out[len(a) // 2, 7:8].view(np.uint64)[...] ^= np.uint64(1)
        return out

    monkeypatch.setattr(np, "matmul", last_bit_off_in_slices)
    assert not bayes._slices_keep_bits(w, buf, edges)


def test_a_chunk_shape_that_fails_the_slice_check_runs_whole(monkeypatch):
    monkeypatch.setattr(bayes, "_SLICES_CHECKED", {})
    monkeypatch.setattr(bayes, "_slices_keep_bits", lambda w, buf, edges: False)
    monkeypatch.setattr(bayes, "_workers", lambda: 3)
    monkeypatch.setattr(threading.Thread, "start", _no_thread)
    rows = np.random.default_rng(9).normal(0.0, 0.2, size=(5, 108))
    config = BayesConfig(mc_samples=CHUNK_SIZE + 424, seed=6)
    assert _means_bits(bayesian_signed_rank(rows, config)) == (
        bayesian_signed_rank_serial(rows, config).tobytes())
    assert bayes._SLICES_CHECKED == {(CHUNK_SIZE, 109, 3): False, (424, 109, 3): False}


def _no_thread(self):
    raise AssertionError("a thread was started")


@pytest.mark.parametrize("env, cpus, workers", [
    ({}, 4, 1),
    ({"OPENBLAS_NUM_THREADS": "1"}, 4, 4),
    ({"OPENBLAS_NUM_THREADS": "1"}, 2, 2),
    ({"OPENBLAS_NUM_THREADS": "2"}, 4, 1),
    ({"OPENBLAS_NUM_THREADS": "abc"}, 4, 1),
    ({"OPENBLAS_NUM_THREADS": "abc", "OMP_NUM_THREADS": "1"}, 4, 4),
    ({"OPENBLAS_NUM_THREADS": "0", "OMP_NUM_THREADS": " 1"}, 3, 3),
    ({"OPENBLAS_NUM_THREADS": "2", "OMP_NUM_THREADS": "1"}, 4, 1),
    ({"GOTO_NUM_THREADS": "2", "OMP_NUM_THREADS": "1"}, 4, 1),
    ({"GOTO_NUM_THREADS": "1", "OMP_NUM_THREADS": "2"}, 4, 4),
    ({"MKL_NUM_THREADS": "1"}, 4, 1),
], ids=["unset", "pinned", "pinned-2-cpus", "two-blas-threads", "not-a-number",
        "omp-after-not-a-number", "omp-after-zero", "openblas-first", "goto-before-omp",
        "goto-pinned", "mkl-only"])
def test_worker_count_follows_a_pinned_openblas(monkeypatch, env, cpus, workers):
    for name in BLAS_THREAD_VARS:
        monkeypatch.delenv(name, raising=False)
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    monkeypatch.setattr(bayes, "_openblas", lambda: True)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
    monkeypatch.setattr(threading.Thread, "start", _no_thread)
    assert bayes._workers() == workers
    monkeypatch.delattr(os, "sched_getaffinity")
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    assert bayes._workers() == workers
    monkeypatch.setattr(bayes, "_openblas", lambda: False)
    assert bayes._workers() == 1


@pytest.mark.parametrize("show_config, openblas", [
    (lambda mode: {"Build Dependencies": {"blas": {"name": "scipy-openblas"}}}, True),
    (lambda mode: {"Build Dependencies": {"blas": {"name": "openblas"}}}, True),
    (lambda mode: {"Build Dependencies": {"blas": {"name": "mkl-sdl"}}}, False),
    (lambda mode: {"Build Dependencies": {"blas": {"name": "accelerate"}}}, False),
    (lambda mode: {"Build Dependencies": {}}, False),
    (lambda: None, False),  # numpy < 1.26 takes no mode
], ids=["scipy-openblas", "openblas", "mkl", "accelerate", "no-blas-entry", "no-mode"])
def test_only_openblas_is_split(monkeypatch, show_config, openblas):
    monkeypatch.setattr(np, "show_config", show_config)
    assert bayes._openblas.__wrapped__() is openblas


def test_no_thread_starts_while_the_blas_is_unpinned(monkeypatch):
    for name in BLAS_THREAD_VARS:
        monkeypatch.delenv(name, raising=False)
    monkeypatch.setattr(threading.Thread, "start", _no_thread)
    rows = np.random.default_rng(8).normal(0.0, 0.2, size=(5, 108))
    config = BayesConfig(mc_samples=CHUNK_SIZE + 424, seed=2)
    assert _means_bits(bayesian_signed_rank(rows, config)) == (
        bayesian_signed_rank_serial(rows, config).tobytes())
