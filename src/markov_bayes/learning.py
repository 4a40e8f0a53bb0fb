"""Exact Bayesian learning over finite parametrized models.

A :class:`Model` is a channel from parameter-input pairs to outputs,
together with a prior on parameters and a state on inputs.  Folding the
input state into the channel gives the joint observation channel from
parameters to input-output pairs; inverting that channel against the prior
is what updating on data means here.

Updates come in two flavours that provably agree: a sequential pass that
inverts once per observation, conditioning each time on the previous
posterior, and a batch pass that conditions on the whole observation tuple
at once.  Both read each observed pair as one column of the joint channel,
indexed once up front.  The batch pass runs as the per-parameter likelihood
product that the replicated observation channel factors into, one power
per distinct column; the literal replicated-channel construction stays here
only as the oracle the law suites compare it against.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, reduce
from math import prod

from .conditioning import invert, is_uniquely_invertible_at
from .errors import (
    ObjectMismatch,
    SpaceMismatch,
    ZeroLikelihoodBatch,
    ZeroLikelihoodObservation,
)
from .finstoch import (
    RAT0,
    FinSpace,
    Kernel,
    State,
    compose,
    copy,
    delta,
    identity,
    left_unitor_inv,
    pair_label,
    product,
    right_unitor_inv,
    state,
    state_tensor,
    tensor,
)


@dataclass(frozen=True)
class Model:
    """A parametrized channel with its prior and input distribution."""

    params: FinSpace
    prior: State
    input_space: FinSpace
    input_state: State
    output_space: FinSpace
    channel: Kernel

    def __post_init__(self):
        if not self.prior.is_state() or self.prior.target != self.params:
            raise SpaceMismatch("prior is not a state on the parameter space")
        if not self.input_state.is_state() or self.input_state.target != self.input_space:
            raise SpaceMismatch("input_state is not a state on the input space")
        if self.channel.source != product(self.params, self.input_space):
            raise ObjectMismatch(
                f"channel source {self.channel.source.name!r} is not the "
                f"parameter-input product"
            )
        if self.channel.target != self.output_space:
            raise ObjectMismatch(
                f"channel target {self.channel.target.name!r} is not "
                f"{self.output_space.name!r}"
            )


@dataclass(frozen=True)
class TrainingSet:
    """An ordered list of observed input-output label pairs."""

    pairs: tuple[tuple[str, str], ...]

    def __post_init__(self):
        object.__setattr__(
            self, "pairs", tuple((x, y) for x, y in self.pairs)
        )

    def __len__(self) -> int:
        return len(self.pairs)

    def __iter__(self):
        return iter(self.pairs)


@dataclass(frozen=True)
class PosteriorTrace:
    """The sequence of parameter states visited by a sequential update."""

    states: tuple[State, ...]

    def __len__(self) -> int:
        return len(self.states)

    @property
    def final(self) -> State:
        return self.states[-1]


def observation_space(model: Model) -> FinSpace:
    """The input-output pair space a single observation lives in."""
    return product(model.input_space, model.output_space)


@lru_cache(maxsize=256)
def joint_channel(model: Model) -> Kernel:
    """The channel from parameters to joint input-output observations.

    The entry at ``(m, (x, y))`` is ``input_state(x) * channel(m, x)(y)``:
    the entrywise form of the diagram that introduces the input state beside
    the parameter, copies the input and runs the model on one copy.  The
    ``coincidence`` law suite checks it against that diagram.
    """
    nx = len(model.input_space)
    px = model.input_state.probs
    rows = model.channel.rows
    joint = tuple(
        tuple(p * e for xi, p in enumerate(px) for e in rows[i * nx + xi])
        for i in range(len(model.params))
    )
    return Kernel(model.params, observation_space(model), joint)


def _observation_indices(model: Model, data: TrainingSet) -> list[int]:
    """The joint-channel column of every observed pair, all validated first."""
    ny = len(model.output_space)
    return [
        model.input_space.index(x) * ny + model.output_space.index(y)
        for x, y in data
    ]


def sequential_update(model: Model, data: TrainingSet) -> PosteriorTrace:
    """Condition on the observations one at a time, in order.

    Each step inverts the joint observation channel once against the
    current parameter state and reads off the row at the observed pair's
    column.  Every label is checked before the first step.  Raises
    :class:`ZeroLikelihoodObservation` at the first observation whose
    column is zero on the support of the current state, since no posterior
    is determined there.
    """
    fj = joint_channel(model)
    states = [model.prior]
    for step, j in enumerate(_observation_indices(model, data)):
        current = states[-1]
        if not any(p and row[j] for p, row in zip(current.probs, fj.rows)):
            raise ZeroLikelihoodObservation(step, fj.target.elements[j])
        states.append(state(model.params, invert(fj, current).rows[j]))
    return PosteriorTrace(tuple(states))


def replicated_joint_channel(model: Model, n: int) -> Kernel:
    """The channel from parameters to ``n`` independent observations.

    Literal construction: duplicate the parameter ``n`` times, rightmost
    copy last, then run the joint observation channel on every coordinate.
    """
    if n < 1:
        raise ValueError("need at least one replica")
    m = model.params
    fj = joint_channel(model)
    dup = identity(m)
    prefix = None
    for _ in range(n - 1):
        step = copy(m) if prefix is None else tensor(identity(prefix), copy(m))
        dup = compose(dup, step)
        prefix = m if prefix is None else product(prefix, m)
    block = fj
    for _ in range(n - 1):
        block = tensor(block, fj)
    return compose(dup, block)


def _batch_label(model: Model, data: TrainingSet) -> str:
    z = observation_space(model).elements
    return reduce(pair_label, (z[j] for j in _observation_indices(model, data)))


def batch_update_literal(model: Model, data: TrainingSet) -> State:
    """Batch posterior through the materialized replicated channel."""
    n = len(data)
    if n == 0:
        return model.prior
    chan = replicated_joint_channel(model, n)
    label = _batch_label(model, data)
    if not is_uniquely_invertible_at(chan, model.prior, label):
        raise ZeroLikelihoodBatch(
            f"observation tuple {label!r} has zero mass under the prior predictive"
        )
    return compose(delta(chan.target, label), invert(chan, model.prior))


def batch_update_factorized(model: Model, data: TrainingSet) -> State:
    """Batch posterior through the per-parameter likelihood product.

    The replicated channel gives each parameter an observation-tuple
    probability that factors into per-observation probabilities.  The data
    enter only through how often each joint-channel column occurs, so the
    posterior weight of ``m`` is ``prior(m) * prod_j fj[m][j] ** count(j)``.
    """
    fj = joint_channel(model)
    counts = Counter(_observation_indices(model, data))
    weights = [
        p * prod(row[j] ** c for j, c in counts.items())
        for p, row in zip(model.prior.probs, fj.rows)
    ]
    total = sum(weights, RAT0)
    if not total:
        raise ZeroLikelihoodBatch(
            "observation tuple has zero mass under the prior predictive"
        )
    return state(model.params, (w / total for w in weights))


def batch_update(model: Model, data: TrainingSet) -> State:
    """Condition on all observations at once.

    Runs the per-parameter likelihood product of
    :func:`batch_update_factorized`.  The literal replicated-channel
    construction, :func:`batch_update_literal`, is kept only as the oracle
    the ``zn`` law suite compares this route against; the two agree exactly.
    """
    return batch_update_factorized(model, data)


def posterior_channel(model: Model, prior: State | None = None) -> Kernel:
    """The channel sending an observed pair to the updated parameter state."""
    if prior is None:
        prior = model.prior
    return invert(joint_channel(model), prior)


def predictive(model: Model, posterior: State, x_star: str) -> State:
    """The output distribution at input ``x_star``, averaging the posterior."""
    m = model.params
    at_input = compose(
        right_unitor_inv(m),
        compose(
            tensor(identity(m), delta(model.input_space, x_star)),
            model.channel,
        ),
    )
    return compose(posterior, at_input)


def output_marginal(model: Model, prior: State | None = None) -> State:
    """The output distribution induced by the prior and the input state."""
    if prior is None:
        prior = model.prior
    return compose(state_tensor(prior, model.input_state), model.channel)


def full_predictive(model: Model, prior: State | None = None) -> Kernel:
    """The input-to-output channel that bakes the whole update in.

    Feeds the product of the input state and the induced output state into
    the posterior channel, then runs the model at the fresh input with the
    resulting parameters.
    """
    if prior is None:
        prior = model.prior
    x = model.input_space
    training = state_tensor(model.input_state, output_marginal(model, prior))
    return compose(
        left_unitor_inv(x),
        compose(
            tensor(training, identity(x)),
            compose(tensor(posterior_channel(model, prior), identity(x)), model.channel),
        ),
    )


def output_marginal_mismatch(
    model: Model, data: TrainingSet, prior: State | None = None
) -> tuple[State, State] | None:
    """Compare the model-induced output distribution with the data's.

    The update pipeline assumes observed outputs are distributed like the
    model's own output marginal.  When the empirical output frequencies of
    ``data`` differ, this returns ``(expected, empirical)`` so callers can
    surface a diagnostic; the pipeline itself proceeds with the model's
    marginal.  Returns ``None`` when they agree or ``data`` is empty.
    """
    if len(data) == 0:
        return None
    expected = output_marginal(model, prior)
    counts = {label: 0 for label in model.output_space.elements}
    for _, y in data:
        model.output_space.index(y)
        counts[y] += 1
    empirical = state(
        model.output_space,
        (Fraction(counts[label], len(data)) for label in model.output_space.elements),
    )
    if empirical == expected:
        return None
    return expected, empirical
