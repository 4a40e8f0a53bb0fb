"""The sequential and batch learning pipeline over finite models."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from markov_bayes import (
    FinSpace,
    Kernel,
    Model,
    ObjectMismatch,
    PosteriorTrace,
    SpaceMismatch,
    TrainingSet,
    UnknownLabel,
    ZeroLikelihoodBatch,
    ZeroLikelihoodObservation,
    batch_update,
    batch_update_factorized,
    batch_update_literal,
    compose,
    delta,
    full_predictive,
    invert,
    joint_channel,
    observation_space,
    output_marginal,
    output_marginal_mismatch,
    pair_label,
    posterior_channel,
    predictive,
    product,
    replicated_joint_channel,
    sequential_update,
    state,
    uniform_state,
)
from markov_bayes.sampling import rand_kernel, rand_model, rand_observations, rand_state

seeds = st.integers(min_value=0, max_value=10**9)


def rat(text: str) -> Fraction:
    return Fraction(text)


def pairs(*labels):
    return TrainingSet(tuple(labels))


# ---------- model construction ----------


def test_model_validates_its_pieces(two_point_model):
    m = two_point_model
    with pytest.raises(SpaceMismatch):
        Model(m.params, m.input_state, m.input_space, m.input_state, m.output_space, m.channel)
    with pytest.raises(SpaceMismatch):
        Model(m.params, m.prior, m.input_space, m.prior, m.output_space, m.channel)
    with pytest.raises(ObjectMismatch):
        Model(m.params, m.prior, m.input_space, m.input_state, m.output_space, m.prior)
    flipped = Kernel(m.channel.source, m.params, ((1, 0), (0, 1)))
    with pytest.raises(ObjectMismatch):
        Model(m.params, m.prior, m.input_space, m.input_state, m.output_space, flipped)


def test_observation_space(two_point_model):
    z = observation_space(two_point_model)
    assert z.elements == (pair_label("x0", "y0"), pair_label("x0", "y1"))


# ---------- the joint observation channel ----------


def test_joint_channel_collapses_to_the_output_on_a_point_input(two_point_model):
    # |X| = 1 with a delta input state leaves the channel rows unchanged
    fj = joint_channel(two_point_model)
    assert fj.source == two_point_model.params
    assert fj.rows == ((rat("2/3"), rat("1/3")), (rat("1/4"), rat("3/4")))


def test_joint_channel_weighs_by_the_input_state():
    m = FinSpace("M", ("m0",))
    x = FinSpace("X", ("x0", "x1"))
    y = FinSpace("Y", ("y0", "y1"))
    channel = Kernel(product(m, x), y, ((1, 0), ("1/2", "1/2")))
    model = Model(m, delta(m, "m0"), x, state(x, ("1/3", "2/3")), y, channel)
    fj = joint_channel(model)
    assert fj.dist("m0") == (
        rat("1/3"),  # (x0, y0)
        0,
        rat("1/3"),  # (x1, y0)
        rat("1/3"),  # (x1, y1)
    )


@given(seeds)
@settings(max_examples=50)
def test_joint_channel_entries_match_the_product_formula(seed):
    rng = random.Random(seed)
    model = rand_model(rng, 3, 3, 3)
    fj = joint_channel(model)
    zspace = observation_space(model)
    for m in model.params.elements:
        for x in model.input_space.elements:
            px = model.input_state.probs[model.input_space.index(x)]
            for y in model.output_space.elements:
                want = px * model.channel.entry(pair_label(m, x), y)
                assert fj.entry(m, pair_label(x, y)) == want
    assert fj.target == zspace


def test_replicated_joint_channel_shapes(two_point_model):
    with pytest.raises(ValueError):
        replicated_joint_channel(two_point_model, 0)
    r1 = replicated_joint_channel(two_point_model, 1)
    assert r1.rows == joint_channel(two_point_model).rows
    r2 = replicated_joint_channel(two_point_model, 2)
    assert len(r2.target) == 4
    z = observation_space(two_point_model)
    first = pair_label(pair_label("x0", "y0"), pair_label("x0", "y1"))
    fj = joint_channel(two_point_model)
    assert r2.entry("m0", first) == fj.entry("m0", z.elements[0]) * fj.entry(
        "m0", z.elements[1]
    )


# ---------- sequential updates ----------


def test_sequential_worked_example(two_point_model):
    trace = sequential_update(two_point_model, pairs(("x0", "y0")))
    assert trace.final.probs == (rat("8/11"), rat("3/11"))
    trace = sequential_update(two_point_model, pairs(("x0", "y0"), ("x0", "y1")))
    assert [s.probs for s in trace.states] == [
        (rat("1/2"), rat("1/2")),
        (rat("8/11"), rat("3/11")),
        (rat("32/59"), rat("27/59")),
    ]


def test_sequential_empty_training_set(two_point_model):
    trace = sequential_update(two_point_model, pairs())
    assert trace.states == (two_point_model.prior,)
    assert trace.final == two_point_model.prior


def test_sequential_rejects_unknown_labels(two_point_model):
    with pytest.raises(UnknownLabel):
        sequential_update(two_point_model, pairs(("x9", "y0")))
    with pytest.raises(UnknownLabel):
        sequential_update(two_point_model, pairs(("x0", "y9")))


def _dead_model():
    # every parameter puts all its mass on y0, so observing y1 is impossible
    m = FinSpace("M", ("m0", "m1"))
    x = FinSpace("X", ("x0",))
    y = FinSpace("Y", ("y0", "y1"))
    channel = Kernel(product(m, x), y, ((1, 0), (1, 0)))
    return Model(m, uniform_state(m), x, delta(x, "x0"), y, channel)


def test_sequential_zero_likelihood_reports_the_step():
    with pytest.raises(ZeroLikelihoodObservation) as exc:
        sequential_update(_dead_model(), pairs(("x0", "y0"), ("x0", "y1")))
    assert exc.value.step == 1
    assert exc.value.label == pair_label("x0", "y1")


def test_sequential_checks_every_label_before_the_first_step():
    # the first observation has zero mass, but the unknown label after it
    # is reported first, as on the batch route
    data = pairs(("x0", "y1"), ("x0", "y9"))
    with pytest.raises(UnknownLabel):
        sequential_update(_dead_model(), data)
    with pytest.raises(UnknownLabel):
        batch_update(_dead_model(), data)


# ---------- batch updates ----------


def test_batch_worked_example(two_point_model):
    post = batch_update(two_point_model, pairs(("x0", "y0"), ("x0", "y1")))
    assert post.probs == (rat("32/59"), rat("27/59"))


def test_batch_empty_returns_the_prior(two_point_model):
    assert batch_update(two_point_model, pairs()) == two_point_model.prior


def test_batch_single_observation_equals_one_sequential_step(two_point_model):
    data = pairs(("x0", "y1"))
    assert batch_update(two_point_model, data) == sequential_update(
        two_point_model, data
    ).final


def test_batch_zero_likelihood():
    model = _dead_model()
    with pytest.raises(ZeroLikelihoodBatch):
        batch_update(model, pairs(("x0", "y0"), ("x0", "y1")))
    with pytest.raises(ZeroLikelihoodBatch):
        batch_update_factorized(model, pairs(("x0", "y1")))


def test_both_batch_routes_take_the_worked_value(two_point_model):
    data = pairs(("x0", "y0"), ("x0", "y1"))
    want = (rat("32/59"), rat("27/59"))
    assert batch_update_literal(two_point_model, data).probs == want
    assert batch_update_factorized(two_point_model, data).probs == want


def test_batch_dispatch_is_route_independent(two_point_model):
    data = pairs(("x0", "y0"), ("x0", "y1"), ("x0", "y0"))
    assert batch_update(two_point_model, data) == batch_update_literal(
        two_point_model, data
    )


@given(seeds)
@settings(max_examples=50, deadline=None)
def test_sequential_and_batch_coincide(seed):
    rng = random.Random(seed)
    model = rand_model(rng, 4, 4, 4)
    data = rand_observations(rng, model, rng.randint(0, 5))
    assert sequential_update(model, data).final == batch_update(model, data)


@pytest.mark.parametrize("seed", range(5))
def test_sequential_and_batch_coincide_on_heavy_repeats(seed):
    # one input and two outputs: forty observations fall on two columns of
    # the joint channel, one of them up to thirty times
    rng = random.Random(seed)
    m = FinSpace("M", ("m0", "m1", "m2"))
    x = FinSpace("X", ("x0",))
    y = FinSpace("Y", ("y0", "y1"))
    channel = rand_kernel(rng, product(m, x), y, full_support=True)
    model = Model(m, rand_state(rng, m, full_support=True), x, delta(x, "x0"), y, channel)
    heavy = rng.randint(20, 30)
    observed = [("x0", "y0")] * heavy + [("x0", "y1")] * (40 - heavy)
    rng.shuffle(observed)
    data = TrainingSet(tuple(observed))
    assert sequential_update(model, data).final == batch_update(model, data)


@given(seeds)
@settings(max_examples=30, deadline=None)
def test_batch_is_order_invariant(seed):
    rng = random.Random(seed)
    model = rand_model(rng, 3, 3, 3)
    data = list(rand_observations(rng, model, 4))
    shuffled = list(data)
    rng.shuffle(shuffled)
    assert batch_update(model, TrainingSet(tuple(data))) == batch_update(
        model, TrainingSet(tuple(shuffled))
    )


def _observations_by_inversion(rng, model, count):
    # the reference route: condition the running state by inverting the
    # whole joint channel after every draw
    fj = joint_channel(model)
    z_space = fj.target
    ny = len(model.output_space)
    current = model.prior
    pairs = []
    for _ in range(count):
        push = compose(current, fj).probs
        j = rng.choice([j for j, p in enumerate(push) if p])
        pairs.append(
            (model.input_space.elements[j // ny], model.output_space.elements[j % ny])
        )
        current = compose(delta(z_space, z_space.elements[j]), invert(fj, current))
    return TrainingSet(tuple(pairs))


def test_rand_observations_matches_the_inversion_loop():
    for seed in range(300):
        rng = random.Random(seed)
        model = rand_model(rng, 4, 3, 3)
        count = rng.randint(0, 8)
        fast, slow = random.Random(), random.Random()
        fast.setstate(rng.getstate())
        slow.setstate(rng.getstate())
        got = rand_observations(fast, model, count)
        assert got == _observations_by_inversion(slow, model, count), seed
        assert fast.getstate() == slow.getstate(), seed


# ---------- posterior channel and prediction ----------


def test_posterior_channel_of_a_constant_model_returns_the_prior():
    m = FinSpace("M", ("m0", "m1"))
    x = FinSpace("X", ("x0",))
    y = FinSpace("Y", ("y0", "y1"))
    channel = Kernel(product(m, x), y, (("1/3", "2/3"), ("1/3", "2/3")))
    prior = state(m, ("1/4", "3/4"))
    model = Model(m, prior, x, delta(x, "x0"), y, channel)
    pc = posterior_channel(model)
    for z in observation_space(model).elements:
        assert pc.dist(z) == prior.probs


def test_predictive_worked_example():
    m = FinSpace("M", ("m0", "m1"))
    x = FinSpace("X", ("x0",))
    y = FinSpace("Y", ("y0", "y1"))
    channel = Kernel(product(m, x), y, (("1/2", "1/2"), (0, 1)))
    model = Model(m, uniform_state(m), x, delta(x, "x0"), y, channel)
    posterior = state(m, ("32/59", "27/59"))
    assert predictive(model, posterior, "x0").probs == (
        rat("16/59"),
        rat("43/59"),
    )


def test_predictive_with_a_point_posterior_reads_a_row(two_point_model):
    m = two_point_model.params
    got = predictive(two_point_model, delta(m, "m1"), "x0")
    assert got.probs == (rat("1/4"), rat("3/4"))


def test_predictive_rejects_unknown_inputs(two_point_model):
    with pytest.raises(UnknownLabel):
        predictive(two_point_model, two_point_model.prior, "x7")


def test_output_marginal(two_point_model):
    # prior-averaged row: 1/2*(2/3,1/3) + 1/2*(1/4,3/4)
    assert output_marginal(two_point_model).probs == (rat("11/24"), rat("13/24"))


def test_full_predictive_matches_the_triple_sum(two_point_model):
    model = two_point_model
    got = full_predictive(model)
    # brute force: average the per-parameter predictive over the joint of
    # one training observation and the posterior it induces
    pi_x = model.input_state
    pi_y = output_marginal(model)
    pc = posterior_channel(model)
    for x_star in model.input_space.elements:
        want = [Fraction(0)] * len(model.output_space)
        for xi, xl in enumerate(model.input_space.elements):
            for yi, yl in enumerate(model.output_space.elements):
                weight = pi_x.probs[xi] * pi_y.probs[yi]
                post = pc.dist(pair_label(xl, yl))
                for mi, ml in enumerate(model.params.elements):
                    row = model.channel.dist(pair_label(ml, x_star))
                    for k in range(len(model.output_space)):
                        want[k] += weight * post[mi] * row[k]
        assert got.dist(x_star) == tuple(want)


def test_full_predictive_of_a_constant_model_is_the_channel():
    m = FinSpace("M", ("m0", "m1"))
    x = FinSpace("X", ("x0", "x1"))
    y = FinSpace("Y", ("y0", "y1"))
    rows = (("1/3", "2/3"), ("3/5", "2/5"), ("1/3", "2/3"), ("3/5", "2/5"))
    channel = Kernel(product(m, x), y, rows)
    model = Model(m, uniform_state(m), x, uniform_state(x), y, channel)
    got = full_predictive(model)
    assert got.dist("x0") == (rat("1/3"), rat("2/3"))
    assert got.dist("x1") == (rat("3/5"), rat("2/5"))


def test_full_predictive_with_a_point_prior_reads_that_parameter(two_point_model):
    m = two_point_model
    model = Model(
        m.params, delta(m.params, "m0"), m.input_space, m.input_state,
        m.output_space, m.channel,
    )
    assert full_predictive(model).dist("x0") == (rat("2/3"), rat("1/3"))


# ---------- diagnostics ----------


def test_output_marginal_mismatch_flags_skew(two_point_model):
    result = output_marginal_mismatch(
        two_point_model, pairs(("x0", "y0"), ("x0", "y1"))
    )
    assert result is not None
    expected, empirical = result
    assert expected.probs == (rat("11/24"), rat("13/24"))
    assert empirical.probs == (rat("1/2"), rat("1/2"))


def test_output_marginal_mismatch_is_silent_on_agreement():
    m = FinSpace("M", ("m0",))
    x = FinSpace("X", ("x0",))
    y = FinSpace("Y", ("y0", "y1"))
    channel = Kernel(product(m, x), y, (("1/2", "1/2"),))
    model = Model(m, delta(m, "m0"), x, delta(x, "x0"), y, channel)
    data = pairs(("x0", "y0"), ("x0", "y1"))
    assert output_marginal_mismatch(model, data) is None
    assert output_marginal_mismatch(model, pairs()) is None


# ---------- containers ----------


def test_training_set_iterates_in_order():
    data = pairs(("x0", "y0"), ("x1", "y1"))
    assert len(data) == 2
    assert list(data) == [("x0", "y0"), ("x1", "y1")]


def test_posterior_trace_final_and_len(two_point_model):
    trace = sequential_update(two_point_model, pairs(("x0", "y0")))
    assert isinstance(trace, PosteriorTrace)
    assert len(trace) == 2
    assert trace.final == trace.states[-1]
