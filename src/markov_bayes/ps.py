"""Spaces equipped with a state, and state-preserving kernels between them.

A morphism here is a kernel that pushes the source state forward to the
target state, considered only up to almost-sure equality.  Representatives
are normalized on construction: every row outside the support of the source
state is replaced by the uniform distribution.  With that normal form,
morphism equality is plain ``==``, composition is well defined, and
Bayesian inversion becomes an involutive dagger that reverses composition
and respects the product structure.

The public :class:`PSMorphism` checks that its kernel runs between the
right spaces and preserves the states.  Composition, products and the
dagger of morphisms preserve states by theorem, and :func:`ps_induced`
takes the pushforward as its target, so they build their results through
the unchecked :func:`_ps_trusted`; ``tests/test_closure.py`` checks
that every such result preserves its states and is in normal form.
"""

from __future__ import annotations

from dataclasses import dataclass

from .conditioning import canonicalize, invert
from .errors import NotStatePreserving, ObjectMismatch, SpaceMismatch
from .finstoch import (
    UNIT,
    FinSpace,
    Kernel,
    State,
    associator,
    associator_inv,
    compose,
    identity,
    left_unitor,
    left_unitor_inv,
    product,
    right_unitor,
    right_unitor_inv,
    state_tensor,
    tensor,
)


@dataclass(frozen=True)
class PSObject:
    """A finite space together with a chosen probability state on it."""

    space: FinSpace
    state: State

    def __post_init__(self):
        if not self.state.is_state():
            raise SpaceMismatch(f"{self.state!r} is not a state")
        if self.state.target != self.space:
            raise SpaceMismatch(
                f"state on {self.state.target.name!r} does not match "
                f"space {self.space.name!r}"
            )


#: The unit object: the one-point space with its only state.
PS_UNIT = PSObject(UNIT, identity(UNIT))


def _state_text(st: State) -> str:
    """A state's probabilities as ``"(p/q, ...)"``, at any length."""
    return f"({', '.join(st._texts[0])})"


@dataclass(frozen=True)
class PSMorphism:
    """A state-preserving kernel in canonical almost-sure normal form.

    The stored representative has uniform rows off the support of the
    source state, so two morphisms are equal exactly when their kernels
    agree almost surely.
    """

    src: PSObject
    dst: PSObject
    rep: Kernel

    def __post_init__(self):
        if self.rep.source != self.src.space or self.rep.target != self.dst.space:
            raise ObjectMismatch(
                f"{self.rep!r} does not run between {self.src.space.name!r} "
                f"and {self.dst.space.name!r}"
            )
        push = compose(self.src.state, self.rep)
        if push != self.dst.state:
            raise NotStatePreserving(
                f"kernel pushes the source state to {_state_text(push)} instead "
                f"of {_state_text(self.dst.state)}",
                pushforward=push,
            )
        object.__setattr__(self, "rep", canonicalize(self.rep, self.src.state))


def _ps_trusted(src: PSObject, dst: PSObject, rep: Kernel) -> PSMorphism:
    """A morphism built without the checks of :class:`PSMorphism`.

    Only for ``rep`` known to run from ``src`` to ``dst``, to preserve their
    states, and to be uniform off the support of ``src.state``.
    """
    f = object.__new__(PSMorphism)
    f.__dict__.update(src=src, dst=dst, rep=rep)
    return f


def ps_induced(src: PSObject, f: Kernel) -> PSMorphism:
    """The morphism out of ``src`` along ``f``, with the pushforward target.

    The target state is the pushforward itself, so ``f`` preserves states
    by construction and only its normal form is computed here.
    """
    dst = PSObject(f.target, compose(src.state, f))
    return _ps_trusted(src, dst, canonicalize(f, src.state))


def ps_identity(obj: PSObject) -> PSMorphism:
    return PSMorphism(obj, obj, identity(obj.space))


def ps_compose(f: PSMorphism, g: PSMorphism) -> PSMorphism:
    if f.dst != g.src:
        raise ObjectMismatch(
            f"cannot compose: intermediate objects differ "
            f"({f.dst.space.name!r} vs {g.src.space.name!r})"
        )
    # a dead row of f.rep is uniform, but its composite with g.rep need not be
    rep = canonicalize(compose(f.rep, g.rep), f.src.state)
    return _ps_trusted(f.src, g.dst, rep)


def ps_tensor(a, b):
    """Pair two objects, or run two morphisms in parallel.

    On objects the state of the pair is the product state; on morphisms the
    representative is the product kernel, renormalized to canonical form.
    """
    if isinstance(a, PSObject) and isinstance(b, PSObject):
        return PSObject(product(a.space, b.space), state_tensor(a.state, b.state))
    if isinstance(a, PSMorphism) and isinstance(b, PSMorphism):
        src = ps_tensor(a.src, b.src)
        rep = canonicalize(tensor(a.rep, b.rep), src.state)
        return _ps_trusted(src, ps_tensor(a.dst, b.dst), rep)
    raise TypeError("ps_tensor expects two objects or two morphisms")


def dagger(f: PSMorphism) -> PSMorphism:
    """The Bayesian inverse of ``f`` against its source state.

    Runs ``dst -> src``; applying it twice gives back ``f``, and it sends
    composites to reversed composites and products to products.  The
    inverse is already in normal form: its uniform rows sit exactly where
    ``f.dst.state``, the pushforward of ``f.src.state``, is zero.
    """
    return _ps_trusted(f.dst, f.src, invert(f.rep, f.src.state))


# State-preserving versions of the structural isomorphisms.  Each one is a
# relabelling kernel, so preservation holds by construction.

def ps_left_unitor(obj: PSObject) -> PSMorphism:
    return PSMorphism(ps_tensor(PS_UNIT, obj), obj, left_unitor(obj.space))


def ps_left_unitor_inv(obj: PSObject) -> PSMorphism:
    return PSMorphism(obj, ps_tensor(PS_UNIT, obj), left_unitor_inv(obj.space))


def ps_right_unitor(obj: PSObject) -> PSMorphism:
    return PSMorphism(ps_tensor(obj, PS_UNIT), obj, right_unitor(obj.space))


def ps_right_unitor_inv(obj: PSObject) -> PSMorphism:
    return PSMorphism(obj, ps_tensor(obj, PS_UNIT), right_unitor_inv(obj.space))


def ps_associator(a: PSObject, b: PSObject, c: PSObject) -> PSMorphism:
    return PSMorphism(
        ps_tensor(ps_tensor(a, b), c),
        ps_tensor(a, ps_tensor(b, c)),
        associator(a.space, b.space, c.space),
    )


def ps_associator_inv(a: PSObject, b: PSObject, c: PSObject) -> PSMorphism:
    return PSMorphism(
        ps_tensor(a, ps_tensor(b, c)),
        ps_tensor(ps_tensor(a, b), c),
        associator_inv(a.space, b.space, c.space),
    )
