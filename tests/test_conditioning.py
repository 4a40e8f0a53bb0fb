"""Jointification, disintegration, and Bayesian inversion."""

import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from markov_bayes import (
    FinSpace,
    Kernel,
    NotAProductSpace,
    SpaceMismatch,
    as_equal,
    canonicalize,
    compose,
    condition,
    delta,
    disintegrate,
    invert,
    is_uniquely_invertible_at,
    jointify,
    pair_label,
    product,
    state,
    support,
    swap,
    uniform_row,
)
from markov_bayes.sampling import rand_kernel, rand_space, rand_state

seeds = st.integers(min_value=0, max_value=10**9)


def rat(text: str) -> Fraction:
    return Fraction(text)


# ---------- support ----------


def test_support_members():
    x = FinSpace("X", ("a", "b", "c"))
    pi = state(x, ("1/2", "0", "1/2"))
    assert support(pi).members == {"a", "c"}
    assert support(pi).space == x


def test_support_requires_a_state(std_kernel):
    with pytest.raises(SpaceMismatch):
        support(std_kernel)


# ---------- jointify / disintegrate ----------


def test_jointify_worked_example(std_kernel, std_prior):
    joint = jointify(std_prior, std_kernel)
    assert joint.probs == (rat("3/8"), rat("1/8"), rat("1/4"), rat("1/4"))


def test_jointify_space_mismatch(std_kernel):
    y_state = state(std_kernel.target, ("1/2", "1/2"))
    with pytest.raises(SpaceMismatch):
        jointify(y_state, std_kernel)


def test_disintegrate_worked_example(std_kernel, std_prior, xy):
    x, y = xy
    joint = state(product(x, y), ("3/8", "1/8", "1/4", "1/4"))
    d = disintegrate(joint)
    assert d.marginal == std_prior
    assert d.channel == std_kernel


def test_disintegrate_needs_product_structure():
    x = FinSpace("X", ("a", "b"))
    with pytest.raises(NotAProductSpace):
        disintegrate(state(x, ("1/2", "1/2")))


def test_disintegrate_fills_dead_rows_uniformly(xy):
    x, y = xy
    joint = state(product(x, y), ("1/2", "1/2", "0", "0"))
    d = disintegrate(joint)
    assert d.marginal.probs == (1, 0)
    assert d.channel.dist("x0") == (rat("1/2"), rat("1/2"))
    assert d.channel.dist("x1") == uniform_row(2)


@given(seeds)
def test_disintegrate_inverts_jointify(seed):
    rng = random.Random(seed)
    x, y = rand_space(rng, "X", 4), rand_space(rng, "Y", 4)
    omega = rand_state(rng, product(x, y))
    d = disintegrate(omega)
    assert jointify(d.marginal, d.channel) == omega


@given(seeds)
def test_jointify_then_disintegrate_recovers_on_support(seed):
    rng = random.Random(seed)
    x, y = rand_space(rng, "X", 4), rand_space(rng, "Y", 4)
    pi, f = rand_state(rng, x), rand_kernel(rng, x, y)
    d = disintegrate(jointify(pi, f))
    assert d.marginal == pi
    assert as_equal(d.channel, f, pi)


# ---------- inversion ----------


def test_invert_worked_example(std_kernel, std_prior):
    inv = invert(std_kernel, std_prior)
    assert compose(std_prior, std_kernel).probs == (rat("5/8"), rat("3/8"))
    assert inv.rows == (
        (rat("3/5"), rat("2/5")),
        (rat("1/3"), rat("2/3")),
    )


def test_invert_satisfies_the_joint_equation(std_kernel, std_prior, xy):
    x, y = xy
    push = compose(std_prior, std_kernel)
    inv = invert(std_kernel, std_prior)
    assert jointify(std_prior, std_kernel) == compose(
        jointify(push, inv), swap(y, x)
    )


@given(seeds)
def test_invert_joint_equation_random(seed):
    rng = random.Random(seed)
    x, y = rand_space(rng, "X", 4), rand_space(rng, "Y", 4)
    pi, f = rand_state(rng, x), rand_kernel(rng, x, y)
    inv = invert(f, pi)
    push = compose(pi, f)
    assert jointify(pi, f) == compose(jointify(push, inv), swap(y, x))


def test_invert_uniform_rows_off_the_pushforward_support(xy):
    x, y = xy
    f = Kernel(x, y, ((1, 0), (1, 0)))  # y1 never happens
    inv = invert(f, state(x, ("1/3", "2/3")))
    assert inv.dist("y0") == (rat("1/3"), rat("2/3"))
    assert inv.dist("y1") == uniform_row(2)


def _invert_through_the_pushforward(f, pi):
    """The earlier route: push ``pi`` through ``f``, then divide each column."""
    push = compose(pi, f).probs
    nx = len(f.source)
    rows = []
    for j, mass in enumerate(push):
        if mass:
            rows.append(
                tuple(f.rows[i][j] * pi.probs[i] / mass for i in range(nx))
            )
        else:
            rows.append(uniform_row(nx))
    return Kernel(f.target, f.source, tuple(rows))


def test_invert_matches_the_pushforward_route():
    zero_priors = dead_outputs = 0
    for seed in range(300):
        rng = random.Random(seed)
        x, y = rand_space(rng, "X", 5), rand_space(rng, "Y", 5)
        pi, f = rand_state(rng, x), rand_kernel(rng, x, y)
        assert invert(f, pi) == _invert_through_the_pushforward(f, pi)
        zero_priors += 0 in pi.probs
        dead_outputs += 0 in compose(pi, f).probs
    assert zero_priors > 0 and dead_outputs > 0


@given(seeds)
def test_double_inversion_comes_back_almost_surely(seed):
    rng = random.Random(seed)
    x, y = rand_space(rng, "X", 4), rand_space(rng, "Y", 4)
    pi, f = rand_state(rng, x), rand_kernel(rng, x, y)
    inv = invert(f, pi)
    push = compose(pi, f)
    assert as_equal(invert(inv, push), f, pi)


# ---------- almost-sure equality and canonical representatives ----------


def test_as_equal_counterexample(xy):
    x, y = xy
    f = Kernel(x, y, ((1, 0), (0, 1)))
    g = Kernel(x, y, ((0, 1), (0, 1)))
    assert not as_equal(f, g, state(x, ("1/2", "1/2")))


def test_as_equal_ignores_dead_rows(xy):
    x, y = xy
    f = Kernel(x, y, ((1, 0), (0, 1)))
    g = Kernel(x, y, ((1, 0), (1, 0)))
    assert as_equal(f, g, delta(x, "x0"))
    assert as_equal(f, f, delta(x, "x0"))


def test_as_equal_space_mismatch(std_kernel, std_prior):
    flipped = Kernel(
        std_kernel.target, std_kernel.source, std_kernel.rows
    )
    with pytest.raises(SpaceMismatch):
        as_equal(std_kernel, flipped, std_prior)


def test_canonicalize_replaces_only_dead_rows(xy):
    x, y = xy
    f = Kernel(x, y, (("1/2", "1/2"), (0, 1)))
    canon = canonicalize(f, delta(x, "x0"))
    assert canon.dist("x0") == (rat("1/2"), rat("1/2"))
    assert canon.dist("x1") == uniform_row(2)


def test_canonicalize_is_a_noop_on_full_support(std_kernel, std_prior):
    assert canonicalize(std_kernel, std_prior) is std_kernel


@given(seeds)
def test_canonicalize_is_idempotent_and_almost_sure(seed):
    rng = random.Random(seed)
    x, y = rand_space(rng, "X", 4), rand_space(rng, "Y", 4)
    pi, f = rand_state(rng, x), rand_kernel(rng, x, y)
    canon = canonicalize(f, pi)
    assert canonicalize(canon, pi) == canon
    assert as_equal(canon, f, pi)


# ---------- pointwise invertibility ----------


def test_unique_invertibility_worked_example(std_kernel, xy):
    x, _ = xy
    pi = delta(x, "x0")
    assert compose(pi, std_kernel).probs == (rat("3/4"), rat("1/4"))
    assert is_uniquely_invertible_at(std_kernel, pi, "y0")
    assert is_uniquely_invertible_at(std_kernel, pi, "y1")


def test_unique_invertibility_fails_on_a_dead_column(xy):
    x, y = xy
    f = Kernel(x, y, ((1, 0), (1, 0)))
    pi = state(x, ("1/2", "1/2"))
    assert is_uniquely_invertible_at(f, pi, "y0")
    assert not is_uniquely_invertible_at(f, pi, "y1")


# ---------- conditionals of parametrized joints ----------


def test_condition_reads_off_each_joint(xy):
    x, y = xy
    a = FinSpace("A", ("a0", "a1"))
    s = Kernel(
        a,
        product(x, y),
        (
            ("3/8", "1/8", "1/4", "1/4"),
            ("0", "1/2", "1/2", "0"),
        ),
    )
    t = condition(s)
    assert t.source == product(x, a)
    assert t.dist(pair_label("x0", "a0")) == (rat("3/4"), rat("1/4"))
    assert t.dist(pair_label("x1", "a1")) == (1, 0)


@given(seeds)
def test_condition_rebuilds_the_joint_rows(seed):
    rng = random.Random(seed)
    a = rand_space(rng, "A", 3)
    x, y = rand_space(rng, "X", 3), rand_space(rng, "Y", 3)
    s = rand_kernel(rng, a, product(x, y))
    t = condition(s)
    na, ny = len(a), len(y)
    for ai, row in enumerate(s.rows):
        marginal = disintegrate(state(s.target, row)).marginal
        for xi in range(len(x)):
            for yi in range(ny):
                left = marginal.probs[xi] * t.rows[xi * na + ai][yi]
                assert left == row[xi * ny + yi]
