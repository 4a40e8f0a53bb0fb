"""State-preserving morphisms and the inversion dagger."""

import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from markov_bayes import (
    PS_UNIT,
    FinSpace,
    Kernel,
    NotStatePreserving,
    ObjectMismatch,
    PSMorphism,
    PSObject,
    SpaceMismatch,
    dagger,
    delta,
    ps_associator,
    ps_associator_inv,
    ps_compose,
    ps_identity,
    ps_induced,
    ps_left_unitor,
    ps_left_unitor_inv,
    ps_right_unitor,
    ps_right_unitor_inv,
    ps_tensor,
    state,
    uniform_row,
    uniform_state,
)
from markov_bayes.sampling import rand_ps_morphism, rand_ps_object
from markov_bayes.finstoch import relabel

seeds = st.integers(min_value=0, max_value=10**9)


def rat(text: str) -> Fraction:
    return Fraction(text)


def two_chain(rng):
    """Two composable random morphisms."""
    f = rand_ps_morphism(rng, rand_ps_object(rng, "X", 4), "Y", 4)
    g = rand_ps_morphism(rng, f.dst, "Z", 4)
    return f, g


# ---------- objects and construction ----------


def test_ps_object_validates_the_state(xy):
    x, y = xy
    with pytest.raises(SpaceMismatch):
        PSObject(x, uniform_state(y))
    obj = PSObject(x, uniform_state(x))
    assert obj.space == x


def test_ps_unit_is_the_one_point_object():
    assert PS_UNIT.space.elements == ("*",)
    assert PS_UNIT.state.probs == (1,)


def test_morphism_requires_matching_spaces(xy):
    x, y = xy
    src = PSObject(x, uniform_state(x))
    dst = PSObject(y, uniform_state(y))
    sideways = Kernel(y, y, ((1, 0), (0, 1)))
    with pytest.raises(ObjectMismatch):
        PSMorphism(src, dst, sideways)


def test_morphism_requires_state_preservation(xy):
    x, y = xy
    src = PSObject(x, uniform_state(x))
    dst = PSObject(y, uniform_state(y))
    f = Kernel(x, y, ((1, 0), (1, 0)))
    with pytest.raises(NotStatePreserving) as exc:
        PSMorphism(src, dst, f)
    assert exc.value.pushforward.probs == (1, 0)


def test_morphism_canonicalizes_dead_rows(xy):
    # the worked normal-form example: a point-mass source state leaves one
    # live row, everything else becomes uniform
    x, y = xy
    src = PSObject(x, delta(x, "x0"))
    f = Kernel(x, y, (("1/2", "1/2"), (0, 1)))
    m = ps_induced(src, f)
    assert m.dst.state.probs == (rat("1/2"), rat("1/2"))
    assert m.rep.rows == (
        (rat("1/2"), rat("1/2")),
        uniform_row(2),
    )


def test_almost_sure_equal_kernels_give_equal_morphisms(xy):
    x, y = xy
    src = PSObject(x, delta(x, "x0"))
    f = Kernel(x, y, (("1/2", "1/2"), (0, 1)))
    g = Kernel(x, y, (("1/2", "1/2"), (1, 0)))
    assert ps_induced(src, f) == ps_induced(src, g)


# ---------- composition and tensor ----------


def test_compose_identity_laws_and_mismatch():
    rng = random.Random(5)
    f, g = two_chain(rng)
    assert ps_compose(ps_identity(f.src), f) == f
    assert ps_compose(f, ps_identity(f.dst)) == f
    with pytest.raises(ObjectMismatch):
        ps_compose(g, f)


@given(seeds)
def test_compose_is_associative(seed):
    rng = random.Random(seed)
    f, g = two_chain(rng)
    h = rand_ps_morphism(rng, g.dst, "W", 4)
    assert ps_compose(ps_compose(f, g), h) == ps_compose(f, ps_compose(g, h))


def test_tensor_of_objects_takes_the_product_state(xy):
    x, y = xy
    a = PSObject(x, state(x, ("1/2", "1/2")))
    b = PSObject(y, state(y, ("1/3", "2/3")))
    ab = ps_tensor(a, b)
    assert ab.state.probs == (rat("1/6"), rat("1/3"), rat("1/6"), rat("1/3"))


def test_tensor_rejects_mixed_arguments(xy):
    x, _ = xy
    a = PSObject(x, uniform_state(x))
    with pytest.raises(TypeError):
        ps_tensor(a, ps_identity(a))


@given(seeds)
def test_tensor_respects_composition(seed):
    rng = random.Random(seed)
    f, g = two_chain(rng)
    h, k = two_chain(rng)
    assert ps_tensor(ps_compose(f, g), ps_compose(h, k)) == ps_compose(
        ps_tensor(f, h), ps_tensor(g, k)
    )


def test_structural_morphisms_compose_to_identities():
    rng = random.Random(11)
    a = rand_ps_object(rng, "A", 3)
    b = rand_ps_object(rng, "B", 3)
    c = rand_ps_object(rng, "C", 3)
    assert ps_compose(ps_left_unitor_inv(a), ps_left_unitor(a)) == ps_identity(a)
    assert ps_compose(ps_right_unitor_inv(a), ps_right_unitor(a)) == ps_identity(a)
    assert ps_compose(
        ps_associator(a, b, c), ps_associator_inv(a, b, c)
    ) == ps_identity(ps_tensor(ps_tensor(a, b), c))


# ---------- the dagger ----------


def test_dagger_worked_example(xy, std_kernel):
    x, _ = xy
    src = PSObject(x, state(x, ("1/2", "1/2")))
    f = ps_induced(src, std_kernel)
    back = dagger(f)
    assert back.src == f.dst
    assert back.dst == f.src
    assert back.rep.rows == (
        (rat("3/5"), rat("2/5")),
        (rat("1/3"), rat("2/3")),
    )


def test_dagger_of_identity_is_identity():
    rng = random.Random(3)
    a = rand_ps_object(rng, "A", 4)
    assert dagger(ps_identity(a)) == ps_identity(a)


def test_dagger_of_a_permutation_is_the_inverse_permutation():
    x = FinSpace("X", ("a", "b", "c"))
    y = FinSpace("Y", ("b", "c", "a"))
    src = PSObject(x, uniform_state(x))
    f = ps_induced(src, relabel(x, y))
    assert dagger(f).rep == relabel(y, x)


@given(seeds)
def test_dagger_is_involutive(seed):
    rng = random.Random(seed)
    f = rand_ps_morphism(rng, rand_ps_object(rng, "X", 4), "Y", 4)
    assert dagger(dagger(f)) == f


@given(seeds)
def test_dagger_reverses_composition(seed):
    rng = random.Random(seed)
    f, g = two_chain(rng)
    assert dagger(ps_compose(f, g)) == ps_compose(dagger(g), dagger(f))


@given(seeds)
def test_dagger_respects_the_tensor(seed):
    rng = random.Random(seed)
    f = rand_ps_morphism(rng, rand_ps_object(rng, "X", 3), "Y", 3)
    g = rand_ps_morphism(rng, rand_ps_object(rng, "Z", 3), "W", 3)
    assert dagger(ps_tensor(f, g)) == ps_tensor(dagger(f), dagger(g))
