"""The sequential and batch learning pipeline over finite models."""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from markov_bayes import (
    PS_UNIT,
    FinSpace,
    Kernel,
    Model,
    ObjectMismatch,
    ParaMorphism,
    PosteriorTrace,
    PSObject,
    SpaceMismatch,
    TrainingSet,
    UnknownLabel,
    ZeroLikelihoodBatch,
    ZeroLikelihoodObservation,
    batch_update,
    batch_update_factorized,
    batch_update_literal,
    bayes_learn,
    compose,
    delta,
    invert,
    joint_channel,
    observation_space,
    pair_label,
    posterior_channel,
    predictive,
    product,
    ps_induced,
    ps_tensor,
    replicated_joint_channel,
    right_unitor,
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


def test_both_routes_name_an_unhashable_label_as_unknown(two_point_model):
    # the batch route counts the pairs in a dict before it indexes them
    data = pairs(("x0", "y0"), (["x0"], "y0"))
    for update in (sequential_update, batch_update):
        with pytest.raises(UnknownLabel, match=r"\['x0'\]"):
            update(two_point_model, data)


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


def _sharp_model(rng: random.Random) -> Model:
    """A small random model whose channel rows are often point masses and
    whose prior and input state may leave points out, so observations can be
    certain or impossible under the running state."""

    def dist(k):
        if rng.random() < 0.4:
            hot = rng.randrange(k)
            return tuple(Fraction(int(i == hot)) for i in range(k))
        w = [rng.randint(0, 4) for _ in range(k)]
        w[rng.randrange(k)] += 1
        return tuple(Fraction(v, sum(w)) for v in w)

    m = FinSpace("M", tuple(f"m{i}" for i in range(rng.randint(1, 4))))
    x = FinSpace("X", tuple(f"x{i}" for i in range(rng.randint(1, 2))))
    y = FinSpace("Y", tuple(f"y{i}" for i in range(rng.randint(2, 3))))
    channel = Kernel(product(m, x), y, tuple(dist(len(y)) for _ in range(len(m) * len(x))))
    return Model(m, state(m, dist(len(m))), x, state(x, dist(len(x))), y, channel)


def test_each_sequential_step_is_the_full_inverse_at_the_observed_column():
    """The oracle: every state is the row of the whole joint channel's
    inverse, against the state before it, at the observed column, and the
    first observation of zero predictive mass raises at its own index.

    The models have zero channel entries on the support of the running
    state, and observations that are certain under it, so that the event
    channel's ``other`` outcome has no mass."""
    zero_on_support = certain = zero_likelihood = steps = 0
    for seed in range(400):
        rng = random.Random(seed)
        model = rand_model(rng) if seed % 2 else _sharp_model(rng)
        fj = joint_channel(model)
        z = fj.target
        columns = [rng.randrange(len(z)) for _ in range(rng.randint(1, 8))]
        ny = len(model.output_space)
        data = TrainingSet(
            tuple(
                (model.input_space.elements[j // ny], model.output_space.elements[j % ny])
                for j in columns
            )
        )
        expected = [model.prior]
        dead = None
        for k, j in enumerate(columns):
            mass = compose(expected[-1], fj)._num[0][j]
            if not mass:
                dead = k
                break
            support = [i for i, p in enumerate(expected[-1]._num[0]) if p]
            zero_on_support += any(fj._num[i][j] == 0 for i in support)
            certain += all(fj._num[i][j] == fj._den[i] for i in support)
            expected.append(
                compose(delta(z, z.elements[j]), posterior_channel(model, expected[-1]))
            )
        if dead is not None:
            zero_likelihood += 1
            with pytest.raises(ZeroLikelihoodObservation) as exc:
                sequential_update(model, data)
            assert exc.value.step == dead, seed
            assert exc.value.label == z.elements[columns[dead]]
            continue
        assert sequential_update(model, data).states == tuple(expected), seed
        steps += len(columns)
    assert zero_on_support > 0 and certain > 0 and zero_likelihood > 0, (
        zero_on_support, certain, zero_likelihood
    )
    assert steps > 400, steps


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


#: Per kind of model: its entry weights, the weights one entry of each row
#: is drawn from, and the range of its parameter count.
_POOLS = {
    # zero prior and channel entries, and the primes 53 and 59 in numerators
    # (``53/59``) and in row sums (``1/53``)
    "rough primes": ((0, 0, 0, 1, 2, 3, 4, 6, 52, 53, 59), (1, 6, 53, 59), (2, 4)),
    # 3127 = 53 * 59, where neither prime occurs alone: a composite element
    # of the coprime base
    "composite cofactor": ((0, 0, 1, 2, 3, 3127, 6254), (1, 3127), (2, 4)),
    # values and row sums past one machine word
    "past a word": ((0, 1, 2, 3, 2**61 - 1, 10**40), (1, 2**61 - 1, 10**40), (2, 4)),
    # one parameter and one-hot rows: every observed value is 1, so the base
    # is empty
    "all ones": ((0,), (1,), (1, 1)),
}


def _zeros_and_rough_primes_model(rng: random.Random, pool, lead, params) -> Model:
    """A model whose rows are weights drawn from ``pool``, one of them from
    ``lead`` so that no row sums to 0, with ``randint(*params)`` parameters."""

    def row(k):
        w = [rng.choice(pool) for _ in range(k)]
        w[rng.randrange(k)] = rng.choice(lead)
        return tuple(Fraction(v, sum(w)) for v in w)

    m = FinSpace("M", tuple(f"m{i}" for i in range(rng.randint(*params))))
    x = FinSpace("X", tuple(f"x{i}" for i in range(rng.randint(1, 2))))
    y = FinSpace("Y", tuple(f"y{i}" for i in range(rng.randint(2, 3))))
    channel = Kernel(product(m, x), y, tuple(row(len(y)) for _ in range(len(m) * len(x))))
    return Model(m, state(m, row(len(m))), x, state(x, row(len(x))), y, channel)


def _has_rough_feature(kind: str, model: Model) -> bool:
    """Whether ``model`` has what its kind of model is drawn for."""
    values = [*model.channel._den, *(v for row in model.channel._num for v in row)]
    if kind == "rough primes":
        return any(d % 53 == 0 or d % 59 == 0 for d in model.channel._den)
    if kind == "composite cofactor":
        return any(v and v % 3127 == 0 for v in values)
    if kind == "past a word":
        return max(values) >= 2**64
    return len(model.params) == 1 and max(values) == 1


def test_batch_routes_agree_on_zeros_rough_primes_and_repeats():
    """The batch update is the literal replicated-channel posterior at small
    n and the sequential final state at any n, or all refuse together, on
    models with zero entries, rough primes, a composite cofactor, values
    past one machine word or nothing but 1s, and on data that repeat a few
    pairs up to hundreds of times."""
    for kind, (pool, lead, params) in _POOLS.items():
        seen = dict.fromkeys(
            ("zero prior", "zero channel", "rough", "literal", "repeats", "dead"), 0
        )
        for seed in range(160 if kind == "rough primes" else 60):
            rng = random.Random(seed)
            model = _zeros_and_rough_primes_model(rng, pool, lead, params)
            seen["zero prior"] += 0 in model.prior._num[0]
            seen["zero channel"] += any(0 in row for row in model.channel._num)
            seen["rough"] += _has_rough_feature(kind, model)
            base = list(rand_observations(rng, model, rng.randint(1, 3)))
            small = seed % 2 == 0
            n = rng.randint(1, 3) if small else rng.randint(100, 300)
            observed = [rng.choice(base) for _ in range(n)]
            if rng.random() < 0.5:
                # a pair that may have zero mass under every live parameter
                xs, ys = model.input_space.elements, model.output_space.elements
                observed[rng.randrange(n)] = (rng.choice(xs), rng.choice(ys))
            data = TrainingSet(tuple(observed))
            try:
                want = sequential_update(model, data).final
            except ZeroLikelihoodObservation:
                seen["dead"] += 1
                with pytest.raises(ZeroLikelihoodBatch):
                    batch_update(model, data)
                if small:
                    with pytest.raises(ZeroLikelihoodBatch):
                        batch_update_literal(model, data)
                continue
            got = batch_update(model, data)
            assert got == want
            if small:
                seen["literal"] += 1
                assert got == batch_update_literal(model, data)
            else:
                seen["repeats"] += 1
        # the zeros and refusals are the first kind's to reach
        checked = seen if kind == "rough primes" else ("rough", "literal", "repeats")
        assert min(seen[k] for k in checked) >= 10, (kind, seen)


def test_batch_removes_a_large_prime_shared_across_columns():
    # 53 divides each parameter's likelihood in a different column, so only
    # the product over both observations has it in common
    m = FinSpace("M", ("m0", "m1"))
    x = FinSpace("X", ("x0",))
    y = FinSpace("Y", ("y0", "y1"))
    channel = Kernel(product(m, x), y, (("53/60", "7/60"), ("7/60", "53/60")))
    model = Model(m, state(m, ("1/3", "2/3")), x, delta(x, "x0"), y, channel)
    data = pairs(("x0", "y0"), ("x0", "y1"))
    posterior = batch_update(model, data)
    assert posterior.probs == (rat("1/3"), rat("2/3"))
    assert posterior == sequential_update(model, data).final


def test_batch_cancels_a_large_prime_within_one_parameter():
    # 59 is a numerator of m0's row at x0 and the denominator of its row
    # at x1, so it cancels inside m0's likelihood
    m = FinSpace("M", ("m0", "m1"))
    x = FinSpace("X", ("x0", "x1"))
    y = FinSpace("Y", ("y0", "y1"))
    channel = Kernel(
        product(m, x),
        y,
        (("59/60", "1/60"), ("1/59", "58/59"), ("1/2", "1/2"), ("1/2", "1/2")),
    )
    model = Model(m, state(m, ("1/3", "2/3")), x, uniform_state(x), y, channel)
    data = pairs(("x0", "y0"), ("x1", "y1"))
    posterior = batch_update(model, data)
    assert posterior.probs == (rat("29/44"), rat("15/44"))
    assert posterior == sequential_update(model, data).final


def test_sequential_and_batch_agree_exactly_past_ten_thousand_bits(two_point_model):
    rng = random.Random(4500)
    data = TrainingSet(
        tuple(("x0", rng.choice(("y0", "y1"))) for _ in range(4500))
    )
    final = sequential_update(two_point_model, data).final
    assert max(p.denominator.bit_length() for p in final.probs) >= 10_000
    assert final == batch_update(two_point_model, data)


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


# ---------- the learner's backward pass is the update ----------


def _learner_posterior(model: Model, prior) -> Kernel:
    """The backward pass of the learner of ``model`` with parameters under
    ``prior``, its unit input stripped.

    The model is taken as a parametrized morphism out of the unit whose
    body is the joint observation channel, so the backward pass sends an
    observed pair back to a parameter state.
    """
    m = model.params
    param = PSObject(m, prior)
    body = ps_induced(
        ps_tensor(param, PS_UNIT), compose(right_unitor(m), joint_channel(model))
    )
    learner = bayes_learn(ParaMorphism(param, PS_UNIT, body.dst, body))
    return compose(learner.body.backward.rep, right_unitor(m))


@given(seeds)
@settings(max_examples=50, deadline=None)
def test_the_learners_backward_pass_is_the_one_observation_update(seed):
    rng = random.Random(seed)
    model = rand_model(rng)
    back = _learner_posterior(model, model.prior)
    assert back == posterior_channel(model)
    mass = compose(model.prior, joint_channel(model)).probs
    labels = itertools.product(model.input_space.elements, model.output_space.elements)
    for (x, y), p in zip(labels, mass):
        if not p:
            continue
        data = pairs((x, y))
        row = compose(delta(observation_space(model), pair_label(x, y)), back)
        assert row == sequential_update(model, data).final == batch_update(model, data)


@given(seeds)
@settings(max_examples=50, deadline=None)
def test_folding_the_learner_over_data_is_the_batch_update(seed):
    # each step re-bases the learner's parameter state on the last posterior
    rng = random.Random(seed)
    model = rand_model(rng)
    data = rand_observations(rng, model, rng.randint(0, 5))
    obs = observation_space(model)
    current = model.prior
    for x, y in data:
        current = compose(delta(obs, pair_label(x, y)), _learner_posterior(model, current))
    assert current == batch_update(model, data)


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
