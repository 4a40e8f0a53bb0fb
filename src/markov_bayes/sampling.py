"""Seeded random instances for law checking.

Everything here runs off a caller-supplied :class:`random.Random`, so a
seed pins down the exact spaces, kernels and observations a check visits.
Weights are drawn as small integers and normalized, which keeps the
rationals tame and makes zero entries (and hence support edge cases)
common.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .finstoch import FinSpace, Kernel, State, product, state
from .learning import Model, TrainingSet, joint_channel
from .paralens import ParaMorphism
from .ps import PSMorphism, PSObject, ps_induced, ps_tensor


def rand_dist(
    rng: random.Random, k: int, full_support: bool = False
) -> tuple[Fraction, ...]:
    lo = 1 if full_support else 0
    weights = [rng.randint(lo, 9) for _ in range(k)]
    if sum(weights) == 0:
        weights[rng.randrange(k)] = 1
    total = sum(weights)
    return tuple(Fraction(w, total) for w in weights)


def rand_space(rng: random.Random, name: str, max_size: int = 4) -> FinSpace:
    n = rng.randint(1, max_size)
    prefix = name.lower()
    return FinSpace(name, tuple(f"{prefix}{i}" for i in range(n)))


def rand_state(
    rng: random.Random, space: FinSpace, full_support: bool = False
) -> State:
    return state(space, rand_dist(rng, len(space), full_support))


def rand_kernel(
    rng: random.Random, src: FinSpace, tgt: FinSpace, full_support: bool = False
) -> Kernel:
    return Kernel(
        src,
        tgt,
        tuple(rand_dist(rng, len(tgt), full_support) for _ in src.elements),
    )


def rand_ps_object(rng: random.Random, name: str, max_size: int = 4) -> PSObject:
    space = rand_space(rng, name, max_size)
    return PSObject(space, rand_state(rng, space))


def rand_ps_morphism(
    rng: random.Random, src: PSObject, tgt_name: str, max_size: int = 4
) -> PSMorphism:
    """A random state-preserving morphism out of ``src``.

    The target state is the pushforward of the source state, so
    preservation holds by construction.
    """
    tgt = rand_space(rng, tgt_name, max_size)
    return ps_induced(src, rand_kernel(rng, src.space, tgt))


def rand_para_morphism(
    rng: random.Random, src: PSObject, param_name: str, tgt_name: str
) -> ParaMorphism:
    param = rand_ps_object(rng, param_name, 3)
    paired = ps_tensor(param, src)
    tgt = rand_space(rng, tgt_name, 3)
    body = ps_induced(paired, rand_kernel(rng, paired.space, tgt))
    return ParaMorphism(param, src, body.dst, body)


def rand_model(
    rng: random.Random,
    max_params: int = 4,
    max_inputs: int = 4,
    max_outputs: int = 4,
) -> Model:
    params = rand_space(rng, "M", max_params)
    input_space = rand_space(rng, "X", max_inputs)
    output_space = rand_space(rng, "Y", max_outputs)
    return Model(
        params=params,
        prior=rand_state(rng, params, full_support=True),
        input_space=input_space,
        input_state=rand_state(rng, input_space, full_support=True),
        output_space=output_space,
        channel=rand_kernel(rng, product(params, input_space), output_space),
    )


def rand_observations(
    rng: random.Random, model: Model, count: int
) -> TrainingSet:
    """Observations drawn so every sequential step has positive mass.

    Each pick is made from the labels the current predictive distribution
    supports, then the running parameter state is conditioned on it; that
    also guarantees the batch joint probability of the tuple is positive.
    Only the support of the running state matters for either, so it is kept
    as the list of live parameter indices.
    """
    rows = joint_channel(model)._num
    ny = len(model.output_space)
    live = [i for i, p in enumerate(model.prior._num[0]) if p]
    pairs = []
    for _ in range(count):
        choices = [
            j for j in range(len(rows[0])) if any(rows[i][j] for i in live)
        ]
        j = rng.choice(choices)
        pairs.append(
            (
                model.input_space.elements[j // ny],
                model.output_space.elements[j % ny],
            )
        )
        live = [i for i in live if rows[i][j]]
    return TrainingSet(tuple(pairs))
