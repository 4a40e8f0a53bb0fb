"""Parametrized channels, bidirectional lenses, and the learner construction.

A lens pairs a forward morphism with a backward one running the other way.
``bayes_lens`` sends a state-preserving channel to the lens whose backward
pass is its Bayesian inverse.  Inversion reverses composites and respects
products, so ``bayes_lens`` is a functor from state-preserving channels to
lenses; the ``functor`` law suite checks that.

A parametrized morphism from ``X`` to ``Y`` carries a parameter object ``P``
and a body ``P (x) X -> Y``.  The body is a state-preserving channel for a
model, or a lens for a learner.  Composing two parametrized morphisms
tensors the parameters and threads the first body through the second;
reparametrizing pulls the parameters back along a channel.  Both are
written once, over the category the body lives in, which supplies
composition, the tensor, and the lift of a state-preserving channel into
it: the channel itself for models, its Bayes lens for learners.  So no
backward pass is built by hand: each one is a dagger.

``bayes_learn`` applies ``bayes_lens`` to a model's body, giving a learner
that pushes data forward and pulls posterior information back onto
parameter and input.  This is Bayesian learning as the parametrized form of
the Bayes lens (Cruttwell et al., arXiv:2103.01931, section 2.1), and it
respects composition, reparametrization and embedding because
``bayes_lens`` is a functor.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ObjectMismatch
from .ps import (
    PS_UNIT,
    PSMorphism,
    PSObject,
    dagger,
    ps_associator,
    ps_compose,
    ps_identity,
    ps_left_unitor,
    ps_tensor,
)


@dataclass(frozen=True)
class LensMorphism:
    """A forward morphism together with a backward morphism the other way."""

    forward: PSMorphism
    backward: PSMorphism

    def __post_init__(self):
        if (
            self.forward.src != self.backward.dst
            or self.forward.dst != self.backward.src
        ):
            raise ObjectMismatch(
                "backward morphism does not run opposite to the forward one"
            )

    @property
    def src(self) -> PSObject:
        return self.forward.src

    @property
    def dst(self) -> PSObject:
        return self.forward.dst


def bayes_lens(f: PSMorphism) -> LensMorphism:
    """The lens running ``f`` forward and its Bayesian inverse backward."""
    return LensMorphism(forward=f, backward=dagger(f))


def lens_compose(l1: LensMorphism, l2: LensMorphism) -> LensMorphism:
    if l1.dst != l2.src:
        raise ObjectMismatch(
            f"cannot compose lenses: intermediate objects differ "
            f"({l1.dst.space.name!r} vs {l2.src.space.name!r})"
        )
    return LensMorphism(
        forward=ps_compose(l1.forward, l2.forward),
        backward=ps_compose(l2.backward, l1.backward),
    )


def lens_tensor(l1: LensMorphism, l2: LensMorphism) -> LensMorphism:
    """Run two lenses side by side, forward and backward."""
    return LensMorphism(
        forward=ps_tensor(l1.forward, l2.forward),
        backward=ps_tensor(l1.backward, l2.backward),
    )


def lens_identity(obj: PSObject) -> LensMorphism:
    return LensMorphism(ps_identity(obj), ps_identity(obj))


@dataclass(frozen=True)
class ParaMorphism:
    """A morphism ``src -> dst`` with parameters drawn from ``param``.

    ``body`` runs from ``param (x) src`` to ``dst``: a
    :class:`~markov_bayes.ps.PSMorphism` for a model, or a
    :class:`LensMorphism` for a learner.
    """

    param: PSObject
    src: PSObject
    dst: PSObject
    body: PSMorphism | LensMorphism

    def __post_init__(self):
        expected = ps_tensor(self.param, self.src)
        if self.body.src != expected:
            raise ObjectMismatch(
                f"body source {self.body.src.space.name!r} is not the "
                f"parameter-input pair {expected.space.name!r}"
            )
        if self.body.dst != self.dst:
            raise ObjectMismatch(
                f"body target {self.body.dst.space.name!r} is not "
                f"{self.dst.space.name!r}"
            )


def _as_channel(f: PSMorphism) -> PSMorphism:
    return f


def _category(body: PSMorphism | LensMorphism) -> tuple:
    """Composition, tensor, and the lift of a state-preserving channel, in
    the category ``body`` lives in."""
    if isinstance(body, LensMorphism):
        return lens_compose, lens_tensor, bayes_lens
    return ps_compose, ps_tensor, _as_channel


def para_compose(f: ParaMorphism, g: ParaMorphism) -> ParaMorphism:
    """Compose parametrized morphisms; parameters pair up as ``(g's, f's)``.

    The body first regroups ``(Q (x) P) (x) X`` as ``Q (x) (P (x) X)``
    through the lifted associator, then runs ``f`` under ``g``'s lifted
    identity, then runs ``g``.
    """
    if f.dst != g.src:
        raise ObjectMismatch(
            f"cannot compose: intermediate objects differ "
            f"({f.dst.space.name!r} vs {g.src.space.name!r})"
        )
    compose, tensor, lift = _category(f.body)
    q, p = g.param, f.param
    step = compose(tensor(lift(ps_identity(q)), f.body), g.body)
    return ParaMorphism(
        param=ps_tensor(q, p),
        src=f.src,
        dst=g.dst,
        body=compose(lift(ps_associator(q, p, f.src)), step),
    )


def para_identity(obj: PSObject) -> ParaMorphism:
    return ParaMorphism(PS_UNIT, obj, obj, ps_left_unitor(obj))


def para_embed(f: PSMorphism | LensMorphism) -> ParaMorphism:
    """View a channel or a lens as one with the trivial parameter."""
    compose, _, lift = _category(f)
    return ParaMorphism(
        PS_UNIT, f.src, f.dst, compose(lift(ps_left_unitor(f.src)), f)
    )


def reparametrize(f: ParaMorphism, alpha: PSMorphism) -> ParaMorphism:
    """Pull the parameters of ``f`` back along the channel ``alpha``.

    ``alpha`` must land in ``f.param``; the new body feeds parameters
    through the lift of ``alpha`` before running ``f``.  For a learner the
    backward pass then carries the updated information back through
    ``alpha``'s Bayesian inverse onto the new parameters.
    """
    if alpha.dst != f.param:
        raise ObjectMismatch(
            f"reparametrization lands in {alpha.dst.space.name!r}, "
            f"expected {f.param.space.name!r}"
        )
    compose, _, lift = _category(f.body)
    body = compose(lift(ps_tensor(alpha, ps_identity(f.src))), f.body)
    return ParaMorphism(alpha.src, f.src, f.dst, body)


def bayes_learn(f: ParaMorphism) -> ParaMorphism:
    """Turn a parametrized model into a learner.

    The forward pass is the model body; the backward pass is its Bayesian
    inverse, sending an output back to a joint update over parameters and
    input.
    """
    return ParaMorphism(f.param, f.src, f.dst, bayes_lens(f.body))
