"""Spaces, kernels, and the symmetric monoidal structure."""

import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from markov_bayes import (
    UNIT,
    FinSpace,
    Kernel,
    SpaceMismatch,
    UnknownLabel,
    associator,
    associator_inv,
    compose,
    copy,
    delta,
    discard,
    identity,
    interchanger,
    left_unitor,
    left_unitor_inv,
    pair_label,
    product,
    relabel,
    right_unitor,
    right_unitor_inv,
    state,
    state_tensor,
    swap,
    tensor,
    uniform_state,
)
from markov_bayes.finstoch import format_rat, parse_rat
from markov_bayes.sampling import rand_kernel, rand_space

seeds = st.integers(min_value=0, max_value=10**9)


def rat(text: str) -> Fraction:
    return Fraction(text)


# ---------- spaces ----------


def test_space_index_and_unknown_label():
    x = FinSpace("X", ("a", "b", "c"))
    assert x.index("b") == 1
    assert len(x) == 3
    with pytest.raises(UnknownLabel):
        x.index("d")


def test_space_rejects_duplicates_and_empty():
    with pytest.raises(ValueError):
        FinSpace("X", ("a", "a"))
    with pytest.raises(ValueError):
        FinSpace("X", ())


def test_space_equality_ignores_factor_record():
    x = FinSpace("A", ("a0", "a1"))
    y = FinSpace("B", ("b0",))
    p = product(x, y)
    bare = FinSpace(p.name, p.elements)
    assert p == bare
    assert hash(p) == hash(bare)
    assert p.factors == (x, y)
    assert bare.factors is None


def test_product_label_order():
    x = FinSpace("A", ("a0", "a1"))
    y = FinSpace("B", ("b0", "b1"))
    p = product(x, y)
    assert p.elements == (
        pair_label("a0", "b0"),
        pair_label("a0", "b1"),
        pair_label("a1", "b0"),
        pair_label("a1", "b1"),
    )


# ---------- rationals ----------


def test_parse_and_format_rat():
    assert parse_rat("3/4") == Fraction(3, 4)
    assert parse_rat(" 2 ") == Fraction(2)
    assert format_rat(Fraction(1, 2)) == "1/2"
    assert format_rat(Fraction(3)) == "3/1"
    for bad in ("x", "1/0", "", "1.5/2", "1/-2", "nan", "inf"):
        with pytest.raises(ValueError):
            parse_rat(bad)
    # past the interpreter's int-to-string digit limit, which stays put
    limit = sys.get_int_max_str_digits()
    q = Fraction(-(7**20000), 3**15000 + 2)
    text = format_rat(q)
    assert len(text) > 2 * limit
    assert parse_rat(text) == q
    assert sys.get_int_max_str_digits() == limit


# ---------- kernel construction ----------


def test_kernel_accepts_strings_ints_fractions(xy):
    x, y = xy
    k = Kernel(x, y, (("1/2", "1/2"), (Fraction(1), 0)))
    assert k.rows == ((rat("1/2"), rat("1/2")), (rat("1"), rat("0")))


def test_kernel_rejects_floats(xy):
    x, y = xy
    with pytest.raises(TypeError):
        Kernel(x, y, ((0.5, 0.5), (1, 0)))


def test_kernel_rejects_bad_rows(xy):
    x, y = xy
    with pytest.raises(ValueError):
        Kernel(x, y, (("1/2", "1/3"), (1, 0)))  # sums to 5/6
    with pytest.raises(ValueError):
        Kernel(x, y, (("3/2", "-1/2"), (1, 0)))  # negative entry
    with pytest.raises(ValueError):
        Kernel(x, y, ((1, 0),))  # missing a row
    with pytest.raises(ValueError):
        Kernel(x, y, ((1, 0, 0), (1, 0, 0)))  # wrong width


def test_kernel_accessors(std_kernel):
    assert std_kernel.entry("x0", "y1") == rat("1/4")
    assert std_kernel.dist("x1") == (rat("1/2"), rat("1/2"))
    assert not std_kernel.is_state()
    with pytest.raises(ValueError):
        std_kernel.probs


def test_state_helpers():
    x = FinSpace("X", ("a", "b", "c"))
    assert uniform_state(x).probs == (rat("1/3"),) * 3
    assert delta(x, "b").probs == (0, 1, 0)
    assert state(x, ("1/6", "1/3", "1/2")).is_state()
    with pytest.raises(UnknownLabel):
        delta(x, "z")


# ---------- composition and tensor ----------


def test_compose_worked_example(xy):
    x, y = xy
    z = FinSpace("Z", ("z0", "z1"))
    f = Kernel(x, y, (("3/4", "1/4"), ("1/2", "1/2")))
    g = Kernel(y, z, (("1/2", "1/2"), ("0", "1")))
    assert compose(f, g).rows == (
        (rat("3/8"), rat("5/8")),
        (rat("1/4"), rat("3/4")),
    )


def test_compose_space_mismatch(std_kernel):
    with pytest.raises(SpaceMismatch):
        compose(std_kernel, std_kernel)


def test_delta_then_kernel_picks_a_row(std_kernel):
    got = compose(delta(std_kernel.source, "x0"), std_kernel)
    assert got.probs == std_kernel.dist("x0")


def test_state_tensor_worked_example():
    a = state(FinSpace("A", ("a0", "a1")), ("1/2", "1/2"))
    b = state(FinSpace("B", ("b0", "b1")), ("1/3", "2/3"))
    assert state_tensor(a, b).probs == (
        rat("1/6"),
        rat("1/3"),
        rat("1/6"),
        rat("1/3"),
    )


def test_state_tensor_rejects_non_states(std_kernel, std_prior):
    with pytest.raises(SpaceMismatch):
        state_tensor(std_kernel, std_prior)


@given(seeds)
def test_compose_is_associative_with_identities(seed):
    rng = random.Random(seed)
    x, y = rand_space(rng, "X", 4), rand_space(rng, "Y", 4)
    z, w = rand_space(rng, "Z", 4), rand_space(rng, "W", 4)
    f, g, h = rand_kernel(rng, x, y), rand_kernel(rng, y, z), rand_kernel(rng, z, w)
    assert compose(compose(f, g), h) == compose(f, compose(g, h))
    assert compose(identity(x), f) == f
    assert compose(f, identity(y)) == f


@given(seeds)
def test_tensor_respects_composition(seed):
    rng = random.Random(seed)
    f = rand_kernel(rng, rand_space(rng, "A", 3), rand_space(rng, "B", 3))
    g = rand_kernel(rng, f.target, rand_space(rng, "C", 3))
    h = rand_kernel(rng, rand_space(rng, "D", 3), rand_space(rng, "E", 3))
    k = rand_kernel(rng, h.target, rand_space(rng, "F", 3))
    assert tensor(compose(f, g), compose(h, k)) == compose(
        tensor(f, h), tensor(g, k)
    )


@given(seeds)
def test_discard_is_terminal(seed):
    rng = random.Random(seed)
    x, y = rand_space(rng, "X", 5), rand_space(rng, "Y", 5)
    f = rand_kernel(rng, x, y)
    assert compose(f, discard(y)) == discard(x)


# ---------- copy, swap, structural kernels ----------


def test_copy_pushes_to_the_diagonal():
    x = FinSpace("X", ("x0", "x1"))
    pi = state(x, ("1/2", "1/2"))
    assert compose(pi, copy(x)).probs == (rat("1/2"), 0, 0, rat("1/2"))


def test_copy_counit_laws():
    x = FinSpace("X", ("x0", "x1", "x2"))
    left = compose(copy(x), compose(tensor(discard(x), identity(x)), left_unitor(x)))
    right = compose(copy(x), compose(tensor(identity(x), discard(x)), right_unitor(x)))
    assert left == identity(x)
    assert right == identity(x)


def test_copy_commutes_with_swap():
    x = FinSpace("X", ("x0", "x1", "x2"))
    assert compose(copy(x), swap(x, x)) == copy(x)


@given(seeds)
def test_swap_is_an_involution(seed):
    rng = random.Random(seed)
    x, y = rand_space(rng, "X", 4), rand_space(rng, "Y", 4)
    assert compose(swap(x, y), swap(y, x)) == identity(product(x, y))


@given(seeds)
def test_structural_kernels_invert_exactly(seed):
    rng = random.Random(seed)
    x, y = rand_space(rng, "X", 3), rand_space(rng, "Y", 3)
    z = rand_space(rng, "Z", 3)
    assert compose(left_unitor_inv(x), left_unitor(x)) == identity(x)
    assert compose(left_unitor(x), left_unitor_inv(x)) == identity(product(UNIT, x))
    assert compose(right_unitor_inv(x), right_unitor(x)) == identity(x)
    assert compose(associator(x, y, z), associator_inv(x, y, z)) == identity(
        product(product(x, y), z)
    )


def test_interchanger_rearranges_pairs_of_pairs():
    p = FinSpace("P", ("p0", "p1"))
    q = FinSpace("Q", ("q0",))
    x = FinSpace("X", ("x0", "x1"))
    y = FinSpace("Y", ("y0",))
    k = interchanger(p, q, x, y)
    src = product(product(p, q), product(x, y))
    tgt = product(product(p, x), product(q, y))
    for a in p.elements:
        for b in q.elements:
            for c in x.elements:
                for d in y.elements:
                    before = pair_label(pair_label(a, b), pair_label(c, d))
                    after = pair_label(pair_label(a, c), pair_label(b, d))
                    assert k.rows[src.index(before)][tgt.index(after)] == 1


def test_interchanger_splits_the_pair_copy():
    p = FinSpace("P", ("p0", "p1"))
    q = FinSpace("Q", ("q0", "q1", "q2"))
    lhs = copy(product(p, q))
    rhs = compose(tensor(copy(p), copy(q)), interchanger(p, p, q, q))
    assert lhs == rhs


def test_relabel_matches_labels():
    x = FinSpace("X", ("a", "b"))
    y = FinSpace("Y", ("b", "a"))
    k = relabel(x, y)
    assert k.entry("a", "a") == 1
    assert k.entry("b", "b") == 1
    with pytest.raises(SpaceMismatch):
        relabel(x, FinSpace("Z", ("a", "c")))
