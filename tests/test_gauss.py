"""Conjugate Gaussian regression: fits, updates, and predictive moments."""

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from markov_bayes import (
    DimensionMismatch,
    GaussPosterior,
    RankDeficient,
    RegressionData,
    fit_posterior,
    gauss_batch,
    gauss_sequential,
    map_estimate,
    predictive_density,
)
from markov_bayes.gauss import MAX_NORMAL_CONDITION, _factor

seeds = st.integers(min_value=0, max_value=10**9)


def make_data(rng: random.Random, n: int, dim: int) -> RegressionData:
    npr = np.random.default_rng(rng.randrange(2**32))
    x = npr.normal(size=(n, dim))
    w = npr.normal(size=dim)
    y = x @ w + 0.1 * npr.normal(size=n)
    return RegressionData(design=x, targets=y)


# ---------- container validation ----------


def test_regression_data_shape_checks():
    with pytest.raises(DimensionMismatch):
        RegressionData(design=np.ones((3, 2)), targets=np.ones(2))
    with pytest.raises(DimensionMismatch):
        RegressionData(design=np.ones(3), targets=np.ones(3))
    with pytest.raises(ValueError):
        RegressionData(design=np.ones((0, 2)), targets=np.ones(0))


def test_posterior_rejects_bad_covariances():
    with pytest.raises(DimensionMismatch):
        GaussPosterior(mean=np.zeros(2), cov=np.eye(3))
    with pytest.raises(ValueError):
        GaussPosterior(mean=np.zeros(2), cov=np.array([[1.0, 0.5], [0.2, 1.0]]))
    with pytest.raises(RankDeficient):
        GaussPosterior(mean=np.zeros(2), cov=np.array([[1.0, 0.0], [0.0, -1.0]]))


def test_noise_scale_must_be_positive():
    data = RegressionData(design=np.ones((3, 1)), targets=np.ones(3))
    with pytest.raises(ValueError):
        fit_posterior(data, 0.0)
    with pytest.raises(ValueError):
        fit_posterior(data, -1.0)


@pytest.mark.parametrize(
    "mean, cov",
    [([math.nan], [[1.0]]), ([None], [[1e300]]), ([0.0], [[math.inf]]),
     ([0.0, -math.inf], [[1.0, 0.0], [0.0, 1.0]]), ([10**400], [[1.0]])],
)
def test_posterior_refuses_non_finite_entries(mean, cov):
    with pytest.raises(ValueError, match="finite|float range"):
        GaussPosterior(mean=mean, cov=cov)


@pytest.mark.parametrize("sigma", [math.inf, math.nan])
def test_noise_scale_must_be_finite(sigma):
    data = RegressionData(design=np.ones((3, 1)), targets=np.ones(3))
    prior = GaussPosterior(mean=[0.0], cov=[[1.0]])
    for route in (gauss_sequential, gauss_batch):
        with pytest.raises(ValueError, match="finite"):
            route(data, sigma, prior)
    with pytest.raises(ValueError, match="finite"):
        fit_posterior(data, sigma)
    with pytest.raises(ValueError, match="finite"):
        predictive_density(prior, [1.0], sigma)


# ---------- improper-prior fit ----------


@given(seeds)
@settings(max_examples=40, deadline=None)
def test_fit_mean_is_the_least_squares_solution(seed):
    rng = random.Random(seed)
    dim = rng.randint(1, 5)
    data = make_data(rng, dim + rng.randint(1, 20), dim)
    post = fit_posterior(data, 0.5)
    ols, *_ = np.linalg.lstsq(data.design, data.targets, rcond=None)
    assert np.max(np.abs(post.mean - ols)) < 1e-9
    assert np.array_equal(map_estimate(post), post.mean)


def test_fit_covariance_matches_the_normal_matrix_inverse():
    rng = random.Random(11)
    data = make_data(rng, 12, 3)
    sigma = 0.7
    post = fit_posterior(data, sigma)
    want = sigma * sigma * np.linalg.inv(data.design.T @ data.design)
    assert np.max(np.abs(post.cov - want)) < 1e-9


def test_fit_refuses_underdetermined_and_collinear_designs():
    with pytest.raises(RankDeficient):
        fit_posterior(RegressionData(design=np.ones((1, 2)), targets=np.ones(1)), 1.0)
    x = np.array([[1.0, 2.0], [2.0, 4.0], [3.0, 6.0]])
    with pytest.raises(RankDeficient):
        fit_posterior(RegressionData(design=x, targets=np.ones(3)), 1.0)


# ---------- predictive moments ----------


def test_predictive_density_in_one_dimension():
    # scalar case is hand-computable: mean m*x, variance v*x^2 + sigma^2
    post = GaussPosterior(mean=np.array([2.0]), cov=np.array([[0.25]]))
    mean, var = predictive_density(post, np.array([3.0]), sigma=0.5)
    assert mean == pytest.approx(6.0)
    assert var == pytest.approx(0.25 * 9.0 + 0.25)


def test_predictive_density_dimension_check():
    post = GaussPosterior(mean=np.zeros(2), cov=np.eye(2))
    with pytest.raises(DimensionMismatch):
        predictive_density(post, np.array([1.0]), sigma=1.0)


# ---------- proper-prior updates ----------


@given(seeds)
@settings(max_examples=40, deadline=None)
def test_sequential_equals_batch(seed):
    rng = random.Random(seed)
    dim = rng.randint(1, 4)
    data = make_data(rng, rng.randint(1, 15), dim)
    prior = GaussPosterior(mean=np.zeros(dim), cov=np.eye(dim))
    seq = gauss_sequential(data, 0.5, prior)
    bat = gauss_batch(data, 0.5, prior)
    assert np.max(np.abs(seq.mean - bat.mean)) < 1e-9
    assert np.max(np.abs(seq.cov - bat.cov)) < 1e-9


@given(seeds)
@settings(max_examples=30, deadline=None)
def test_batch_is_split_invariant(seed):
    rng = random.Random(seed)
    dim = rng.randint(1, 4)
    n = rng.randint(2, 12)
    data = make_data(rng, n, dim)
    cut = rng.randint(1, n - 1)
    prior = GaussPosterior(mean=np.zeros(dim), cov=np.eye(dim))
    head = RegressionData(design=data.design[:cut], targets=data.targets[:cut])
    tail = RegressionData(design=data.design[cut:], targets=data.targets[cut:])
    in_two = gauss_batch(tail, 0.5, gauss_batch(head, 0.5, prior))
    at_once = gauss_batch(data, 0.5, prior)
    assert np.max(np.abs(in_two.mean - at_once.mean)) < 1e-9
    assert np.max(np.abs(in_two.cov - at_once.cov)) < 1e-9


def test_batch_matches_the_closed_form():
    rng = random.Random(5)
    data = make_data(rng, 10, 2)
    sigma = 0.5
    prior = GaussPosterior(mean=np.array([1.0, -2.0]), cov=np.diag([2.0, 0.5]))
    post = gauss_batch(data, sigma, prior)
    prec0 = np.linalg.inv(prior.cov)
    prec = prec0 + data.design.T @ data.design / sigma**2
    cov = np.linalg.inv(prec)
    mean = cov @ (prec0 @ prior.mean + data.design.T @ data.targets / sigma**2)
    assert np.max(np.abs(post.mean - mean)) < 1e-9
    assert np.max(np.abs(post.cov - cov)) < 1e-9


def test_update_dimension_checks():
    prior = GaussPosterior(mean=np.zeros(3), cov=np.eye(3))
    data = RegressionData(design=np.ones((4, 2)), targets=np.ones(4))
    with pytest.raises(DimensionMismatch):
        gauss_sequential(data, 1.0, prior)
    with pytest.raises(DimensionMismatch):
        gauss_batch(data, 1.0, prior)


def test_tight_prior_dominates_and_wide_prior_recovers_the_fit():
    rng = random.Random(3)
    data = make_data(rng, 30, 2)
    sigma = 0.5
    wide = GaussPosterior(mean=np.zeros(2), cov=1e12 * np.eye(2))
    post = gauss_batch(data, sigma, wide)
    fit = fit_posterior(data, sigma)
    assert np.max(np.abs(post.mean - fit.mean)) < 1e-6
    tight = GaussPosterior(mean=np.array([7.0, -7.0]), cov=1e-12 * np.eye(2))
    post = gauss_batch(data, sigma, tight)
    assert np.max(np.abs(post.mean - tight.mean)) < 1e-6


# ---------- one guard for every route ----------


def near_collinear_probe(seed: int) -> RegressionData:
    """5000x8 uniform design whose last column is the one before plus 1e-6 noise."""
    npr = np.random.default_rng(seed)
    x = npr.uniform(-1.0, 1.0, (5000, 8))
    x[:, -1] = x[:, -2] + 1e-6 * npr.standard_normal(5000)
    y = x @ npr.uniform(-2.0, 2.0, 8) + 0.5 * npr.standard_normal(5000)
    return RegressionData(design=x, targets=y)


@pytest.mark.parametrize("seed", range(4))
def test_sequential_and_batch_agree_or_refuse_together_near_collinearity(seed):
    data = near_collinear_probe(seed)
    prior = GaussPosterior(mean=np.zeros(8), cov=1e8 * np.eye(8))
    with pytest.raises(RankDeficient):
        fit_posterior(data, 0.5)
    posts = []
    for update in (gauss_sequential, gauss_batch):
        try:
            posts.append(update(data, 0.5, prior))
        except RankDeficient:
            pass
    if not posts:
        return
    assert len(posts) == 2, "only one of the two updates refused"
    seq, bat = posts
    # agreement to a share of scale: 1 + max|mean| for means, max|cov| for covariances
    mean_scale = 1.0 + max(np.max(np.abs(seq.mean)), np.max(np.abs(bat.mean)))
    cov_scale = max(np.max(np.abs(seq.cov)), np.max(np.abs(bat.cov)))
    assert np.max(np.abs(seq.mean - bat.mean)) <= 1e-6 * mean_scale
    assert np.max(np.abs(seq.cov - bat.cov)) <= 1e-6 * cov_scale


def test_every_route_refuses_a_duplicate_column():
    rng = random.Random(13)
    data = make_data(rng, 40, 3)
    x = np.column_stack([data.design, data.design[:, -1]])
    data = RegressionData(design=x, targets=data.targets)
    prior = GaussPosterior(mean=np.zeros(4), cov=1e10 * np.eye(4))
    with pytest.raises(RankDeficient):
        fit_posterior(data, 0.5)
    with pytest.raises(RankDeficient):
        gauss_sequential(data, 0.5, prior)
    with pytest.raises(RankDeficient):
        gauss_batch(data, 0.5, prior)


# ---------- the triangular solves, up to the guard and past it ----------


def conditioned_design(seed: int, n: int, dim: int, cond: float) -> RegressionData:
    """An ``n x dim`` design whose singular values run from 1 down to ``1/cond``."""
    npr = np.random.default_rng(seed)
    u, _ = np.linalg.qr(npr.normal(size=(n, dim)))
    v, _ = np.linalg.qr(npr.normal(size=(dim, dim)))
    x = (u * np.logspace(0.0, -np.log10(cond), dim)) @ v
    y = x @ npr.uniform(-2.0, 2.0, dim) + 0.01 * npr.standard_normal(n)
    return RegressionData(design=x, targets=y)


def _rows(data: RegressionData, rows: slice) -> RegressionData:
    return RegressionData(design=data.design[rows], targets=data.targets[rows])


@pytest.mark.parametrize("cond", [10.0, 1e5, 3e5], ids=["well", "cond2-1e10", "cond2-9e10"])
@pytest.mark.parametrize("seed", range(4))
def test_fit_seq_and_batch_agree_up_to_the_guard(seed, cond):
    # the fit of all rows, and each update of the fit of the first half
    # by the second, are one posterior; agreement is to a share of scale
    # as in the near-collinear benchmark ops
    data = conditioned_design(seed, 200, 4, cond)
    sigma = 0.5
    assert np.linalg.cond(data.design) ** 2 == pytest.approx(cond**2, rel=1e-6)
    fit = fit_posterior(data, sigma)
    half = fit_posterior(_rows(data, slice(0, 100)), sigma)
    posts = [fit, *(update(_rows(data, slice(100, None)), sigma, half)
                    for update in (gauss_sequential, gauss_batch))]
    mean_scale = 1.0 + max(np.max(np.abs(p.mean)) for p in posts)
    cov_scale = max(np.max(np.abs(p.cov)) for p in posts)
    for post in posts[1:]:
        assert np.max(np.abs(post.mean - fit.mean)) <= 1e-6 * mean_scale
        assert np.max(np.abs(post.cov - fit.cov)) <= 1e-6 * cov_scale
    ols, *_ = np.linalg.lstsq(data.design, data.targets, rcond=None)
    assert np.max(np.abs(fit.mean - ols)) <= 1e-6 * mean_scale


@pytest.mark.parametrize("seed", range(3))
def test_every_route_refuses_a_design_past_the_guard(seed):
    data = conditioned_design(seed, 200, 4, 1e7)
    assert np.linalg.cond(data.design) ** 2 > MAX_NORMAL_CONDITION
    # a prior too wide to lift the smallest information above the guard
    prior = GaussPosterior(mean=np.zeros(4), cov=1e16 * np.eye(4))
    with pytest.raises(RankDeficient):
        fit_posterior(data, 1.0)
    with pytest.raises(RankDeficient):
        gauss_sequential(data, 1.0, prior)
    with pytest.raises(RankDeficient):
        gauss_batch(data, 1.0, prior)


def test_every_route_refuses_a_factor_whose_condition_cannot_be_computed():
    # rows scaled past the float range leave NaN in the factor, on which the
    # SVD behind the condition number does not converge
    data = RegressionData(design=[[1.0, 2.0], [2.0, 1.0], [3.0, 1.0]], targets=[1.0, 2.0, 3.0])
    prior = GaussPosterior(mean=np.zeros(2), cov=np.eye(2))
    with np.errstate(all="ignore"):
        with pytest.raises(RankDeficient, match="condition nan exceeds"):
            fit_posterior(data, 1e-320)
        for update in (gauss_sequential, gauss_batch):
            with pytest.raises(RankDeficient, match="condition nan exceeds"):
                update(data, 1e-320, prior)


@pytest.mark.parametrize("seed", range(4))
def test_sequential_refuses_exactly_where_batch_does(seed):
    # bisect the design's condition to where batch's outcome flips, to a
    # relative 1e-12; on both sides of the flip seq must do what batch does
    prior = GaussPosterior(mean=np.zeros(4), cov=1e16 * np.eye(4))

    def refusal(update, cond):
        got = _outcome(update, conditioned_design(seed, 200, 4, cond), 0.5, prior)
        return got if isinstance(got, str) else None

    lo, hi = 5e5, 2e6
    assert refusal(gauss_batch, lo) is None and refusal(gauss_batch, hi) is not None
    while hi - lo > 1e-12 * lo:
        mid = (lo + hi) / 2
        if refusal(gauss_batch, mid) is None:
            lo = mid
        else:
            hi = mid
    for cond in (lo, hi):
        assert refusal(gauss_sequential, cond) == refusal(gauss_batch, cond), cond


# ---------- Potter's loop against the outer-product reference ----------


def _outer_product_sequential(data, sigma, prior):
    """Potter's update as first written: a fresh ``np.outer`` matrix per row."""
    _factor(data, sigma, prior)
    var = sigma * sigma
    mean = prior.mean.copy()
    root = prior.root.copy()
    for x, y in zip(data.design, data.targets):
        f = x @ root
        gain = root @ f
        a = 1.0 / (float(f @ f) + var)
        mean += (a * float(y - x @ mean)) * gain
        root -= (a / (1.0 + math.sqrt(a * var))) * np.outer(gain, f)
    return GaussPosterior(mean=mean, cov=root @ root.T)


def _outcome(update, data, sigma, prior):
    try:
        post = update(data, sigma, prior)
    except RankDeficient as e:
        return str(e)
    return post


def _potter_designs():
    for seed in range(4):
        yield f"probe-{seed}", near_collinear_probe(seed), 0.5, 1e8 * np.eye(8)
    rng = random.Random(29)
    for case in range(40):
        npr = np.random.default_rng(case)
        dim = rng.randint(1, 6)
        data = make_data(rng, rng.randint(1, 60), dim)
        a = npr.normal(size=(dim, dim))
        cov = a @ a.T + 10.0 ** rng.randint(-2, 10) * np.eye(dim)
        if case % 5 == 4:
            # a duplicated column under a wide prior: every route refuses
            design = np.column_stack([data.design, data.design[:, -1]])
            data = RegressionData(design=design, targets=data.targets)
            cov = 1e12 * np.eye(dim + 1)
        yield f"random-{case}", data, rng.uniform(0.05, 3.0), cov
    # every width from 1 to 9, where BLAS changes how it blocks a product,
    # with the design laid out as the CSV reader leaves it: a column slice
    # of one array that also holds the targets
    rng = random.Random(32)
    for dim in range(1, 10):
        npr = np.random.default_rng(dim)
        data = make_data(rng, rng.randint(40, 120), dim)
        values = np.column_stack([data.design, data.targets])
        data = RegressionData(design=values[:, :dim], targets=values[:, dim])
        a = npr.normal(size=(dim, dim))
        cov = a @ a.T + 10.0 ** rng.randint(-2, 10) * np.eye(dim)
        yield f"width-{dim}", data, rng.uniform(0.05, 3.0), cov


@pytest.mark.parametrize(
    "data, sigma, cov",
    [case[1:] for case in _potter_designs()],
    ids=[case[0] for case in _potter_designs()],
)
def test_sequential_is_bit_identical_to_the_outer_product_loop(data, sigma, cov):
    dim = data.design.shape[1]
    prior = GaussPosterior(mean=np.linspace(-1.0, 1.0, dim), cov=cov)
    got = _outcome(gauss_sequential, data, sigma, prior)
    want = _outcome(_outer_product_sequential, data, sigma, prior)
    if isinstance(want, str):
        assert got == want
    else:
        assert not isinstance(got, str), got
        assert np.array_equal(got.mean, want.mean)
        assert np.array_equal(got.cov, want.cov)
