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
indexed once up front.  A sequential step conditions on the event "this
column or any other": it inverts the two-outcome channel that coarsens the
joint channel to that event, whose row at the observed outcome is the
joint channel's inverse at the observed column (cf. Cho and Jacobs,
arXiv:1709.00322, on conditioning as Bayesian inversion).  The batch pass
runs as the per-parameter likelihood product that the replicated
observation channel factors into, one power per distinct column; the
literal replicated-channel construction stays here only as the oracle the
law suites compare it against.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import lru_cache, reduce
from math import gcd, lcm

from .conditioning import invert, is_uniquely_invertible_at
from .errors import (
    ObjectMismatch,
    SpaceMismatch,
    ZeroLikelihoodBatch,
    ZeroLikelihoodObservation,
)
from .finstoch import (
    UNIT,
    FinSpace,
    Kernel,
    State,
    _coprime_base,
    _factored,
    _normalize,
    _split,
    _trusted,
    compose,
    copy,
    delta,
    identity,
    pair_label,
    product,
    right_unitor_inv,
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
    z = observation_space(model)
    nx = len(model.input_space)
    px = model.input_state._num[0]
    cnum, cden = model.channel._num, model.channel._den
    rows = []
    for start in range(0, len(cnum), nx):
        block = range(start, start + nx)
        scale = lcm(*[cden[i] for i in block])
        rows.append(
            [p * (scale // cden[i]) * e for p, i in zip(px, block) for e in cnum[i]]
        )
    num, den, _ = _normalize(rows, len(z))
    return _trusted(model.params, z, num, den)


def _observation_indices(model: Model, data: TrainingSet) -> list[int]:
    """The joint-channel column of every observed pair, all validated first."""
    ny = len(model.output_space)
    return [
        model.input_space.index(x) * ny + model.output_space.index(y)
        for x, y in data
    ]


#: The outcomes of one sequential step: the observed pair, or any other.
_EVENT = FinSpace("event", ("observed", "other"))


def _event_channel(fj: Kernel, j: int) -> Kernel:
    """The channel from parameters to the event space for joint column ``j``.

    Row ``m`` is ``(fj[m][j], 1 - fj[m][j])``: ``fj`` followed by the
    deterministic map sending column ``j`` to ``observed`` and every other
    column to ``other``.
    """
    num, den = [], []
    for row, d in zip(fj._num, fj._den):
        p = row[j]
        c = gcd(p, d)
        num.append((p // c, (d - p) // c))
        den.append(d // c)
    return _trusted(fj.source, _EVENT, tuple(num), tuple(den))


def sequential_update(model: Model, data: TrainingSet) -> PosteriorTrace:
    """Condition on the observations one at a time, in order.

    Each step inverts, against the current parameter state, the channel
    from parameters to the event "the observed pair or any other", and
    reads off its row at the observed outcome.  That channel is the joint
    observation channel followed by a deterministic coarsening, and a
    Bayesian inverse's row at an outcome of positive mass depends only on
    that outcome's column, so the row equals the joint channel's inverse at
    the observed column, exactly: ``prior(m) * fj[m][j]`` over its sum.
    Each event channel is built once per distinct column.  Every label is
    checked before the first step.  Raises
    :class:`ZeroLikelihoodObservation` at the first observation whose
    column is zero on the support of the current state, since no posterior
    is determined there.
    """
    fj = joint_channel(model)
    events = {}
    states = [model.prior]
    for step, j in enumerate(_observation_indices(model, data)):
        current = states[-1]
        if not any(p and row[j] for p, row in zip(current._num[0], fj._num)):
            raise ZeroLikelihoodObservation(step, fj.target.elements[j])
        event = events.get(j)
        if event is None:
            event = events[j] = _event_channel(fj, j)
        inverse = invert(event, current)
        states.append(
            _trusted(UNIT, model.params, (inverse._num[0],), (inverse._den[0],))
        )
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
    The input-state factor of column ``j = (x, y)`` is the same for every
    ``m``, so the weights are read off the model's channel rows instead:
    ``prior(m) * prod_(x, y) channel(m, x)(y) ** count(x, y)``.

    The observations are counted first, and each distinct pair is indexed
    once, in order of first occurrence, so the first unknown label raised
    is the first in the data.  Each weight is a fraction of the model's
    integers raised to the counts, so it is carried as exponents over a
    coprime base of those integers (the live priors, the observed channel
    numerators and the observed inputs' row sums), computed per call.  Each
    distinct value is split once over the base, and a parameter's
    exponents add only its nonzero ones.

    The update stops at that factored form: the state it returns holds the
    base and each live parameter's exponents above their least over the
    live parameters, so the weights have gcd 1 with no gcd taken.  Its
    binary row is built when something first reads it; the writers print
    it from exact decimal and never build it.
    """
    nx = len(model.input_space)
    try:
        seen = Counter(data.pairs)
    except TypeError:  # an unhashable label: the scan names the first unknown
        _observation_indices(model, data)
        raise
    # (input index, output index, count) of each distinct observed pair
    cells = [
        (model.input_space.index(x), model.output_space.index(y), c)
        for (x, y), c in seen.items()
    ]
    px = model.input_state._num[0]
    prior = model.prior._num[0]
    cnum, cden = model.channel._num, model.channel._den
    per_input = Counter()
    for x, _, c in cells:
        per_input[x] += c
    live = [
        m
        for m, p in enumerate(prior)
        if p and all(cnum[m * nx + x][y] for x, y, _ in cells)
    ]
    if not live or not all(px[x] for x in per_input):
        raise ZeroLikelihoodBatch(
            "observation tuple has zero mass under the prior predictive"
        )
    values = {prior[m] for m in live}
    values.update(cnum[m * nx + x][y] for x, y, _ in cells for m in live)
    values.update(cden[m * nx + x] for x in per_input for m in live)
    base = _coprime_base(values)
    split = {v: _split(v, base) for v in values}
    exponents = []
    for m in live:
        e = [0] * len(base)
        for k, v in split[prior[m]]:
            e[k] = v
        for x, y, c in cells:
            for k, v in split[cnum[m * nx + x][y]]:
                e[k] += c * v
        for x, c in per_input.items():
            for k, v in split[cden[m * nx + x]]:
                e[k] -= c * v
        exponents.append(e)
    least = [min(col) for col in zip(*exponents)]
    factors = tuple(
        (m, tuple([x - low for x, low in zip(e, least)]))
        for m, e in zip(live, exponents)
    )
    return _factored(model.params, base, factors)


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
