"""Joint states, disintegration, and exact Bayesian inversion.

The central construction: a state ``pi`` on ``X`` and a kernel ``f: X -> Y``
determine a joint state on ``X (x) Y``; going the other way, a joint state
splits into a marginal and a conditional channel.  Bayesian inversion turns
``f`` around against ``pi``.  Wherever a conditional is undefined because the
conditioning event has probability zero, the row is filled with the uniform
distribution; that fixed choice makes inverses canonical and lets equality
of conditionals be tested with ``==``.

Inversion, disintegration and conditioning are one operation seen from
different sides (Cho and Jacobs, arXiv:1709.00322): each normalizes blocks
of integer joint weights by the one rule of ``finstoch._normalize`` and
builds its result unchecked, through ``finstoch._trusted``.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import lcm

from .errors import NotAProductSpace, SpaceMismatch
from .finstoch import (
    UNIT,
    Kernel,
    FinSpace,
    State,
    _normalize,
    _trusted,
    compose,
    copy,
    identity,
    product,
    tensor,
)


@dataclass(frozen=True)
class Support:
    """The set of labels a state gives positive probability."""

    space: FinSpace
    members: frozenset[str]


@dataclass(frozen=True)
class Disintegration:
    """A joint state split into its first marginal and the induced channel."""

    marginal: State
    channel: Kernel


def _require_state(pi: Kernel) -> None:
    if not pi.is_state():
        raise SpaceMismatch(f"{pi!r} is not a state")


def _require_prior(pi: Kernel, f: Kernel) -> None:
    _require_state(pi)
    if pi.target != f.source:
        raise SpaceMismatch(
            f"state on {pi.target.name!r} does not match source of {f!r}"
        )


def support(pi: State) -> Support:
    _require_state(pi)
    members = frozenset(
        label for label, p in zip(pi.target.elements, pi._num[0]) if p
    )
    return Support(pi.target, members)


def canonicalize(f: Kernel, pi: State) -> Kernel:
    """Replace every row of ``f`` outside the support of ``pi`` with uniform.

    This picks a fixed representative of the class of kernels that agree
    almost surely under ``pi``.
    """
    _require_prior(pi, f)
    width = len(f.target)
    filler = (1,) * width
    probs = pi._num[0]
    if all(p or row == filler for p, row in zip(probs, f._num)):
        return f
    return _trusted(
        f.source,
        f.target,
        tuple(row if p else filler for p, row in zip(probs, f._num)),
        tuple(d if p else width for p, d in zip(probs, f._den)),
    )


def jointify(pi: State, f: Kernel) -> State:
    """The joint state on ``X (x) Y`` of ``pi`` on ``X`` and ``f: X -> Y``.

    Built by copying the ``X`` outcome and feeding one copy through ``f``,
    so the result weighs ``(x, y)`` by ``pi(x) * f(x)(y)``.
    """
    _require_prior(pi, f)
    x = f.source
    return compose(pi, compose(copy(x), tensor(identity(x), f)))


def disintegrate(omega: State) -> Disintegration:
    """Split a joint state into its first marginal and a conditional channel.

    The channel row at a marginal-zero point is uniform.  Any two channels
    that disintegrate the same joint state agree wherever the marginal is
    positive, so the uniform fill makes the result unique outright.
    """
    _require_state(omega)
    if omega.target.factors is None:
        raise NotAProductSpace(
            f"space {omega.target.name!r} has no recorded product structure"
        )
    x, y = omega.target.factors
    ny = len(y)
    joint = omega._num[0]
    num, den, marg = _normalize(
        [joint[i * ny : (i + 1) * ny] for i in range(len(x))], ny
    )
    mnum, mden, _ = _normalize([marg], len(x))
    return Disintegration(
        marginal=_trusted(UNIT, x, mnum, mden), channel=_trusted(x, y, num, den)
    )


def invert(f: Kernel, pi: State) -> Kernel:
    """The Bayesian inverse of ``f: X -> Y`` with respect to ``pi`` on ``X``.

    The row of the result at ``y`` is the conditional of ``x`` given ``y``
    under the joint state of ``pi`` and ``f``; rows at outputs the
    pushforward never produces are uniform.

    Each joint weight ``pi(x) * f(x)(y)`` is formed once, as an integer:
    the numerator of ``pi(x)`` times that of ``f(x)(y)`` over the lcm of
    the row denominators of ``f``.  A column's sum is then its pushforward
    mass under the same scale, which cancels when each weight is divided by
    it.
    """
    _require_prior(pi, f)
    prior = pi._num[0]
    scale = lcm(*f._den)
    rescale = [scale // d for d in f._den]
    weights = [p * r for p, r in zip(prior, rescale)]
    columns = list(zip(*f._num))
    # The prior's numerators have gcd 1.  If the rows it weighs have no
    # zero, a common factor of a column's weights therefore divides the lcm
    # of that column's small likelihood numerators, and starting the gcd
    # there spares a gcd of two large weights.
    seeds = None
    if all(0 not in row for p, row in zip(prior, f._num) if p):
        seeds = [lcm(*[r * e for r, e in zip(rescale, c) if e]) for c in columns]
    num, den, _ = _normalize(
        ([a * e for a, e in zip(weights, c)] for c in columns), len(f.source), seeds
    )
    return _trusted(f.target, f.source, num, den)


def as_equal(f: Kernel, g: Kernel, pi: State) -> bool:
    """Whether ``f`` and ``g`` agree almost surely under ``pi``.

    Defined as equality of the two joint states built from ``pi``, which is
    the same as the rows of ``f`` and ``g`` agreeing on the support of
    ``pi``.
    """
    if f.source != g.source or f.target != g.target:
        raise SpaceMismatch(f"{f!r} and {g!r} live over different spaces")
    return jointify(pi, f) == jointify(pi, g)


def is_uniquely_invertible_at(f: Kernel, pi: State, y: str) -> bool:
    """Whether the pushforward of ``pi`` through ``f`` gives ``y`` positive mass.

    Exactly at such outputs every Bayesian inverse of ``f`` has the same
    row, so conditioning on ``y`` is unambiguous.
    """
    _require_prior(pi, f)
    j = f.target.index(y)
    return compose(pi, f)._num[0][j] != 0


def condition(s: Kernel) -> Kernel:
    """Turn ``s: A -> X (x) Y`` into the conditional ``X (x) A -> Y``.

    Each input ``a`` names a joint distribution; the result reads off the
    conditional of ``Y`` given ``X = x`` inside it, with the uniform fill at
    pairs ``(x, a)`` whose marginal probability is zero.
    """
    if s.target.factors is None:
        raise NotAProductSpace(
            f"target {s.target.name!r} of {s!r} has no recorded product structure"
        )
    x, y = s.target.factors
    ny = len(y)
    num, den, _ = _normalize(
        (row[i * ny : (i + 1) * ny] for i in range(len(x)) for row in s._num), ny
    )
    return _trusted(product(x, s.source), y, num, den)
