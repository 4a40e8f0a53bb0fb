"""Parametrized morphisms, lenses, and the learner construction."""

import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from markov_bayes import (
    PS_UNIT,
    FinSpace,
    Kernel,
    LensMorphism,
    ObjectMismatch,
    ParaMorphism,
    PSObject,
    bayes_learn,
    bayes_lens,
    dagger,
    delta,
    lens_compose,
    lens_identity,
    pair_label,
    para_compose,
    para_embed,
    para_identity,
    ps_associator,
    ps_compose,
    ps_identity,
    ps_induced,
    ps_left_unitor_inv,
    ps_right_unitor_inv,
    ps_tensor,
    reparametrize,
    state,
    uniform_state,
)
from markov_bayes.sampling import (
    rand_para_morphism,
    rand_ps_morphism,
    rand_ps_object,
)

seeds = st.integers(min_value=0, max_value=10**9)


def rat(text: str) -> Fraction:
    return Fraction(text)


def para_pair(rng):
    """Two composable random parametrized morphisms."""
    f = rand_para_morphism(rng, rand_ps_object(rng, "X", 3), "P", "Y")
    g = rand_para_morphism(rng, f.dst, "Q", "Z")
    return f, g


# ---------- shape validation ----------


def test_para_body_must_start_at_the_parameter_pair():
    rng = random.Random(0)
    src = rand_ps_object(rng, "X", 3)
    p = rand_ps_object(rng, "P", 3)
    body = rand_ps_morphism(rng, src, "Y", 3)  # missing the parameter factor
    with pytest.raises(ObjectMismatch):
        ParaMorphism(param=p, src=src, dst=body.dst, body=body)


def test_lens_must_run_in_opposite_directions():
    rng = random.Random(1)
    f = rand_ps_morphism(rng, rand_ps_object(rng, "X", 3), "Y", 3)
    with pytest.raises(ObjectMismatch):
        LensMorphism(forward=f, backward=f)


# ---------- para composition ----------


def test_para_compose_pairs_the_parameter_spaces():
    rng = random.Random(2)
    f, g = para_pair(rng)
    h = para_compose(f, g)
    assert h.param.space.name == pair_label(g.param.space.name, f.param.space.name)
    assert len(h.param.space) == len(g.param.space) * len(f.param.space)
    assert h.src == f.src
    assert h.dst == g.dst


def test_para_compose_object_mismatch():
    rng = random.Random(3)
    f, g = para_pair(rng)
    with pytest.raises(ObjectMismatch):
        para_compose(g, f)


@given(seeds)
def test_para_compose_matches_the_direct_composite(seed):
    # running the packed body equals regrouping by hand and running the parts
    rng = random.Random(seed)
    f, g = para_pair(rng)
    h = para_compose(f, g)
    direct = ps_compose(
        ps_associator(g.param, f.param, f.src),
        ps_compose(ps_tensor(ps_identity(g.param), f.body), g.body),
    )
    assert h.body == direct


@given(seeds)
def test_para_identity_is_neutral_up_to_the_unit_parameter(seed):
    # composing with the trivially parametrized identity only pads the
    # parameter with the unit object; stripping the padding recovers f
    rng = random.Random(seed)
    f = rand_para_morphism(rng, rand_ps_object(rng, "X", 3), "P", "Y")
    after = para_compose(f, para_identity(f.dst))
    assert reparametrize(after, ps_left_unitor_inv(f.param)) == f
    before = para_compose(para_identity(f.src), f)
    assert reparametrize(before, ps_right_unitor_inv(f.param)) == f


# ---------- reparametrization ----------


def test_reparametrize_with_identity_is_a_noop():
    rng = random.Random(4)
    f = rand_para_morphism(rng, rand_ps_object(rng, "X", 3), "P", "Y")
    assert reparametrize(f, ps_identity(f.param)) == f


def test_reparametrize_with_a_point_selects_a_parameter_row(xy):
    x, y = xy
    p = FinSpace("P", ("p0", "p1"))
    src = PSObject(x, uniform_state(x))
    pobj = PSObject(p, delta(p, "p1"))
    body_kernel = Kernel(
        ps_tensor(pobj, src).space,
        y,
        (
            (1, 0),
            (1, 0),
            ("1/4", "3/4"),
            ("1/2", "1/2"),
        ),
    )
    body = ps_induced(ps_tensor(pobj, src), body_kernel)
    f = ParaMorphism(param=pobj, src=src, dst=body.dst, body=body)
    alpha = ps_induced(PS_UNIT, delta(p, "p1"))
    g = reparametrize(f, alpha)
    assert g.param == alpha.src
    # rows of the new body are the p1 rows of the old one
    assert g.body.rep.rows[0] == (rat("1/4"), rat("3/4"))
    assert g.body.rep.rows[1] == (rat("1/2"), rat("1/2"))


def test_reparametrize_with_a_mixture_averages_rows(xy):
    x, y = xy
    p = FinSpace("P", ("p0", "p1"))
    src = PSObject(x, delta(x, "x0"))
    pobj = PSObject(p, uniform_state(p))
    body_kernel = Kernel(
        ps_tensor(pobj, src).space,
        y,
        (
            (1, 0),
            ("1/2", "1/2"),
            (0, 1),
            ("1/2", "1/2"),
        ),
    )
    body = ps_induced(ps_tensor(pobj, src), body_kernel)
    f = ParaMorphism(param=pobj, src=src, dst=body.dst, body=body)
    alpha = ps_induced(PS_UNIT, uniform_state(p))
    g = reparametrize(f, alpha)
    # live row x0: the average of (1,0) and (0,1)
    assert g.body.rep.rows[0] == (rat("1/2"), rat("1/2"))


def test_reparametrize_checks_the_target():
    rng = random.Random(6)
    f = rand_para_morphism(rng, rand_ps_object(rng, "X", 3), "P", "Y")
    wrong = ps_identity(rand_ps_object(rng, "Q", 3))
    with pytest.raises(ObjectMismatch):
        reparametrize(f, wrong)


# ---------- lenses from channels ----------


def test_bayes_lens_of_identity_is_the_identity_lens():
    rng = random.Random(7)
    a = rand_ps_object(rng, "A", 4)
    assert bayes_lens(ps_identity(a)) == lens_identity(a)


def test_bayes_lens_backward_worked_example(xy, std_kernel):
    x, _ = xy
    src = PSObject(x, state(x, ("1/2", "1/2")))
    lens = bayes_lens(ps_induced(src, std_kernel))
    assert lens.backward.rep.rows == (
        (rat("3/5"), rat("2/5")),
        (rat("1/3"), rat("2/3")),
    )


@given(seeds)
def test_bayes_lens_respects_composition(seed):
    rng = random.Random(seed)
    f = rand_ps_morphism(rng, rand_ps_object(rng, "X", 4), "Y", 4)
    g = rand_ps_morphism(rng, f.dst, "Z", 4)
    assert bayes_lens(ps_compose(f, g)) == lens_compose(bayes_lens(f), bayes_lens(g))


@given(seeds)
def test_lens_composite_backward_is_the_dagger_of_the_forward(seed):
    rng = random.Random(seed)
    f = rand_ps_morphism(rng, rand_ps_object(rng, "X", 4), "Y", 4)
    g = rand_ps_morphism(rng, f.dst, "Z", 4)
    composite = lens_compose(bayes_lens(f), bayes_lens(g))
    assert composite.backward == dagger(composite.forward)


def test_lens_compose_with_identity():
    rng = random.Random(8)
    f = rand_ps_morphism(rng, rand_ps_object(rng, "X", 4), "Y", 4)
    lens = bayes_lens(f)
    assert lens_compose(lens_identity(f.src), lens) == lens
    assert lens_compose(lens, lens_identity(f.dst)) == lens


# ---------- learners ----------


def test_bayes_learn_keeps_param_and_inverts_the_body():
    rng = random.Random(9)
    f = rand_para_morphism(rng, rand_ps_object(rng, "X", 3), "P", "Y")
    learner = bayes_learn(f)
    assert learner.param == f.param
    assert learner.body.forward == f.body
    assert learner.body.backward == dagger(f.body)


@given(seeds)
def test_bayes_learn_commutes_with_composition(seed):
    rng = random.Random(seed)
    f, g = para_pair(rng)
    composed_then_learned = bayes_learn(para_compose(f, g))
    learned_then_composed = para_compose(bayes_learn(f), bayes_learn(g))
    assert composed_then_learned.param == learned_then_composed.param
    assert composed_then_learned.body.forward == learned_then_composed.body.forward
    assert composed_then_learned.body.backward == learned_then_composed.body.backward


@given(seeds)
def test_bayes_learn_commutes_with_reparametrization(seed):
    # alpha is generated first so the model's parameter object is exactly
    # its pushforward target, which is the state the reparametrized
    # inversion is taken against
    rng = random.Random(seed)
    alpha = rand_ps_morphism(rng, rand_ps_object(rng, "Q", 3), "P", 3)
    src = rand_ps_object(rng, "X", 3)
    body = rand_ps_morphism(rng, ps_tensor(alpha.dst, src), "Y", 3)
    f = ParaMorphism(param=alpha.dst, src=src, dst=body.dst, body=body)
    one_way = bayes_learn(reparametrize(f, alpha))
    other_way = reparametrize(bayes_learn(f), alpha)
    assert one_way.param == other_way.param
    assert one_way.body.forward == other_way.body.forward
    assert one_way.body.backward == other_way.body.backward


@given(seeds)
def test_embedding_a_channel_then_learning_is_embedding_its_lens(seed):
    rng = random.Random(seed)
    f = rand_ps_morphism(rng, rand_ps_object(rng, "X", 4), "Y", 4)
    learned = bayes_learn(para_embed(f))
    embedded = para_embed(bayes_lens(f))
    assert learned.param == embedded.param
    assert learned.body.forward == embedded.body.forward
    assert learned.body.backward == embedded.body.backward
