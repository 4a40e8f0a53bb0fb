"""Closure: operations on valid kernels build valid kernels.

Compositions, products, structural channels, inversion, conditioning and
the learning updates build their results without the checks of the public constructors,
because stochastic kernels are closed under them by theorem.  These tests
hold every such result to the public checks on seeded random inputs, with
zero entries common so that dead rows and zero-mass outputs occur.
"""

import random
from fractions import Fraction
from math import gcd, prod

from markov_bayes import (
    FinSpace,
    Kernel,
    Model,
    PSMorphism,
    TrainingSet,
    associator,
    associator_inv,
    batch_update_factorized,
    canonicalize,
    compose,
    condition,
    copy,
    dagger,
    delta,
    discard,
    disintegrate,
    identity,
    interchanger,
    invert,
    joint_channel,
    left_unitor,
    left_unitor_inv,
    product,
    ps_compose,
    ps_tensor,
    relabel,
    right_unitor,
    right_unitor_inv,
    sequential_update,
    state,
    state_tensor,
    swap,
    tensor,
    uniform_state,
)
from markov_bayes.learning import _event_channel
from markov_bayes.sampling import (
    rand_kernel,
    rand_model,
    rand_observations,
    rand_ps_morphism,
    rand_ps_object,
    rand_space,
    rand_state,
)

SEEDS = range(150)


def assert_closed(k) -> None:
    """``k`` is exactly what the checked constructor makes of its rows."""
    assert type(k) is Kernel
    assert type(k.rows) is tuple
    for row in k.rows:
        assert type(row) is tuple
        assert all(type(e) is Fraction for e in row)
    checked = Kernel(k.source, k.target, k.rows)
    assert checked == k and hash(checked) == hash(k)
    assert checked.rows is k.rows  # nothing was coerced


def assert_preserving(m) -> None:
    """``m`` pushes its source state to its target state, in normal form."""
    assert_closed(m.rep)
    assert compose(m.src.state, m.rep) == m.dst.state
    assert canonicalize(m.rep, m.src.state) == m.rep
    assert PSMorphism(m.src, m.dst, m.rep) == m  # the checked route agrees


def test_structural_channels_are_closed():
    for seed in SEEDS:
        rng = random.Random(seed)
        x, y, z, w = (rand_space(rng, name) for name in "XYZW")
        for k in (
            identity(x),
            copy(x),
            discard(x),
            swap(x, y),
            delta(x, rng.choice(x.elements)),
            uniform_state(x),
            left_unitor(x),
            left_unitor_inv(x),
            right_unitor(x),
            right_unitor_inv(x),
            associator(x, y, z),
            associator_inv(x, y, z),
            interchanger(x, y, z, w),
            relabel(x, FinSpace("X'", tuple(rng.sample(x.elements, len(x))))),
        ):
            assert_closed(k)


def test_compose_tensor_and_state_tensor_are_closed():
    for seed in SEEDS:
        rng = random.Random(seed)
        x, y, z = (rand_space(rng, name) for name in "XYZ")
        f, g = rand_kernel(rng, x, y), rand_kernel(rng, y, z)
        a, b = rand_state(rng, x), rand_state(rng, y)
        assert_closed(compose(f, g))
        assert_closed(tensor(f, g))
        assert_closed(state_tensor(a, b))


def test_inversion_and_conditioning_are_closed():
    dead_outputs = 0
    for seed in SEEDS:
        rng = random.Random(seed)
        x, y, a = (rand_space(rng, name) for name in "XYA")
        f, pi = rand_kernel(rng, x, y), rand_state(rng, x)
        dead_outputs += compose(pi, f).probs.count(0)
        assert_closed(invert(f, pi))
        assert_closed(canonicalize(f, pi))
        split = disintegrate(rand_state(rng, product(x, y)))
        assert_closed(split.marginal)
        assert_closed(split.channel)
        assert_closed(condition(rand_kernel(rng, a, product(x, y))))
    assert dead_outputs > 0  # the uniform fill was exercised


def _reduced(k) -> tuple:
    """The lowest-terms pair of every entry of a kernel, one ``gcd`` each."""
    return tuple(
        tuple((n // gcd(n, d), d // gcd(n, d)) for n in num)
        for num, d in zip(k._num, k._den)
    )


def _weights_row(rng: random.Random, case: str) -> list[int]:
    """Nonnegative integer weights, not all zero, shaped by ``case``."""
    k = rng.randint(2, 6)
    if case == "zeros":
        w = [rng.choice((0, 0, 1, 2, 3, 4, 6, 9)) for _ in range(k)]
        w[rng.randrange(k)] += 1
    elif case == "single":
        w = [0] * k
        w[rng.randrange(k)] = rng.randint(1, 10**6)
    elif case == "divides":
        # entries that are the total over one of its primes, topped up to
        # the total by one more, so their product is a multiple of it
        primes = [rng.choice((2, 3, 5, 7)) for _ in range(rng.randint(1, 4))]
        total = prod(primes) * rng.randint(1, 3)
        w = [total // q for q in primes]
        while sum(w) > total:
            w.pop()
        w.append(total - sum(w))
    else:  # "big": entries sharing large factors with the total
        a, b = rng.getrandbits(5200) | 1, rng.getrandbits(5200) | 1
        total = a * b * rng.randint(2, 9)
        w = [a * rng.randint(1, b // 4), b * rng.randint(1, a // 4)]
        w.append(total - sum(w))
        w.append(0)
    return w


def test_terms_take_each_entrys_own_gcd():
    """Each pair of ``_terms`` is the one ``math.gcd`` gives for its entry:
    on rows with zeros, with one nonzero entry, whose denominator divides
    the product of the numerators, and past 10⁴ bits."""
    divides = big = 0
    for seed in range(400):
        rng = random.Random(seed)
        case = ("zeros", "single", "divides", "big")[seed % 4]
        rows = [_weights_row(rng, case) for _ in range(rng.randint(1, 3))]
        width = max(map(len, rows))
        rows = [w + [0] * (width - len(w)) for w in rows]
        space = FinSpace("T", tuple(f"t{i}" for i in range(width)))
        source = FinSpace("S", tuple(f"s{i}" for i in range(len(rows))))
        k = Kernel(source, space, tuple(tuple(Fraction(v, sum(w)) for v in w) for w in rows))
        assert k._terms == _reduced(k), seed
        for num, d in zip(k._num, k._den):
            spread = sum(1 for p in num if p) > 1
            divides += spread and prod(p for p in num if p) % d == 0
            big += d.bit_length() > 10_000 and any(gcd(p, d) > 2**1000 for p in num)
    assert divides > 0 and big > 0, (divides, big)


def test_learning_results_are_closed():
    steps = 0
    for seed in SEEDS:
        rng = random.Random(seed)
        model = rand_model(rng)
        fj = joint_channel(model)
        assert_closed(fj)
        for j in range(len(fj.target)):
            assert_closed(_event_channel(fj, j))
        data = rand_observations(rng, model, rng.randint(1, 6))
        for st in sequential_update(model, data).states:
            assert_closed(st)
            assert st._terms == _reduced(st)
            steps += 1
        post = batch_update_factorized(model, data)
        assert_closed(post)
        assert post._terms == _reduced(post)
    assert steps > len(SEEDS)


#: Weights whose ratios mix small primes with the primes 53 and 59, so the
#: batch update's coprime base has elements above 50.
_WEIGHTS = (1, 2, 3, 4, 6, 53, 59, 106, 118, 159, 177)


def _rough_model(rng: random.Random) -> Model:
    def weights(k):
        return [rng.choice(_WEIGHTS) for _ in range(k)]

    def row(k):
        w = weights(k)
        return tuple(Fraction(v, sum(w)) for v in w)

    m = FinSpace("M", tuple(f"m{i}" for i in range(rng.randint(2, 5))))
    x = FinSpace("X", tuple(f"x{i}" for i in range(rng.randint(1, 2))))
    y = FinSpace("Y", tuple(f"y{i}" for i in range(rng.randint(2, 3))))
    channel = Kernel(product(m, x), y, tuple(row(len(y)) for _ in range(len(m) * len(x))))
    return Model(m, state(m, row(len(m))), x, state(x, row(len(x))), y, channel)


def test_batch_update_supplies_each_entrys_lowest_terms():
    """The per-entry view built from the batch update's factored record is
    the one ``math.gcd`` gives, including entries whose gcd with the total
    has small primes and entries whose gcd has a prime above 50."""
    small_gcds = rough_gcds = 0
    for seed in range(600):
        rng = random.Random(seed)
        model = _rough_model(rng)
        pairs = [
            (rng.choice(model.input_space.elements), rng.choice(model.output_space.elements))
            for _ in range(rng.randint(1, 8))
        ]
        post = batch_update_factorized(model, TrainingSet(tuple(pairs)))
        # the update leaves its factored record; the rows come on first read
        assert vars(post)["_factors"] is not None
        assert not {"_ints", "_num", "_den", "_terms"} & set(vars(post))
        assert post._terms == _reduced(post)
        assert_closed(post)
        total = post._den[0]
        for w in post._num[0]:
            g = gcd(w, total)
            smooth = prod(_factor_small(g))
            small_gcds += smooth > 1
            rough_gcds += g // smooth > 1
    assert small_gcds > 0 and rough_gcds > 0, (small_gcds, rough_gcds)


def _factor_small(n: int) -> list[int]:
    """The prime factors of ``n`` below 50, with multiplicity."""
    out = []
    for q in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47):
        while n % q == 0:
            n //= q
            out.append(q)
    return out


def test_ps_operations_preserve_states_in_normal_form():
    dead_outputs = 0
    for seed in SEEDS:
        rng = random.Random(seed)
        a, c = rand_ps_object(rng, "A"), rand_ps_object(rng, "C")
        f = rand_ps_morphism(rng, a, "B")
        g = rand_ps_morphism(rng, f.dst, "D")
        h = rand_ps_morphism(rng, c, "E")
        dead_outputs += f.dst.state.probs.count(0)
        # f, g and h are ps_induced morphisms out of random objects
        for m in (
            f, g, h, ps_compose(f, g), ps_tensor(f, h), dagger(f), dagger(ps_tensor(f, h)),
        ):
            assert_preserving(m)
    assert dead_outputs > 0  # dagger met outputs the pushforward never produces

