"""Finite spaces and exact stochastic kernels.

A :class:`FinSpace` is a named, ordered finite set of outcome labels.  A
:class:`Kernel` is a row-stochastic table of rationals from a source space to
a target space; a kernel whose source is the one-point space ``UNIT`` is a
probability state.  All arithmetic is done with :class:`fractions.Fraction`,
so composition, products and the copy/discard/swap structure satisfy their
algebraic identities on the nose and tests can use ``==`` rather than
tolerances.

Checking happens once, at the public constructors: :class:`Kernel` and
:func:`state` validate types, shapes and exact row sums.  Operations on
validated kernels (composition, products, the structural channels, and the
inversion and conditioning of :mod:`markov_bayes.conditioning`) build their
results through the private, unchecked :func:`_trusted`, because stochastic
kernels are closed under them by theorem; ``tests/test_closure.py`` checks
that every such result equals the checked construction of the same rows.

Product spaces keep a record of their two factors.  That record is a
construction artifact: space equality looks only at the name and the labels,
never at the factors.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from decimal import Decimal
from fractions import Fraction

from .errors import SpaceMismatch, UnknownLabel

RAT0 = Fraction(0)
RAT1 = Fraction(1)

PAIR_SEP = "⊗"  # the product separator used in labels and space names


#: ``p/q`` or a bare integer, in digits as :class:`Fraction` reads them
_RATIONAL = re.compile(r"([-+]?\d+(?:_\d+)*)(?:/(\d+(?:_\d+)*))?")


def parse_rat(text: str) -> Fraction:
    """Parse a rational written as ``"p/q"``, a bare integer or a decimal.

    Digits are read through :class:`decimal.Decimal`, which the interpreter's
    int-to-string digit limit does not cover, so integers of any length
    parse and the limit itself is left alone.
    """
    body = text.strip()
    match = _RATIONAL.fullmatch(body)
    try:
        if match is None:
            return Fraction(Decimal(body))
        num, den = match.groups()
        return Fraction(int(Decimal(num)), int(Decimal(den or "1")))
    except (ArithmeticError, ValueError) as exc:
        raise ValueError(f"not a rational: {text!r}") from exc


def format_rat(q: Fraction) -> str:
    """Render a rational as ``"p/q"``, always with an explicit denominator.

    Like :func:`parse_rat`, this goes through :class:`decimal.Decimal`, so
    numerators and denominators of any length print.
    """
    return f"{Decimal(q.numerator)}/{Decimal(q.denominator)}"


def pair_label(a: str, b: str) -> str:
    return f"{a}{PAIR_SEP}{b}"


@dataclass(frozen=True)
class FinSpace:
    """A named finite set of distinct outcome labels, in a fixed order.

    Two spaces are equal exactly when their names and their ordered label
    tuples agree.  The optional factor record produced by :func:`product`
    does not participate in equality or hashing.
    """

    name: str
    elements: tuple[str, ...]
    factors: tuple["FinSpace", "FinSpace"] | None = field(
        default=None, compare=False, repr=False
    )
    #: label -> position, built with the duplicate check
    _positions: dict[str, int] = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        elements = tuple(self.elements)
        object.__setattr__(self, "elements", elements)
        if not elements:
            raise ValueError(f"space {self.name!r} has no elements")
        positions = {label: i for i, label in enumerate(elements)}
        if len(positions) != len(elements):
            raise ValueError(f"space {self.name!r} has repeated labels")
        object.__setattr__(self, "_positions", positions)

    def __len__(self) -> int:
        return len(self.elements)

    def index(self, label: str) -> int:
        try:
            return self._positions[label]
        except (KeyError, TypeError):
            raise UnknownLabel(f"label {label!r} is not in space {self.name!r}") from None


#: The one-point space: the monoidal unit and the source of every state.
UNIT = FinSpace("I", ("*",))


def product(x: FinSpace, y: FinSpace) -> FinSpace:
    """The product space, with pair labels ordered first by ``x`` then by ``y``."""
    labels = tuple(pair_label(a, b) for a in x.elements for b in y.elements)
    return FinSpace(pair_label(x.name, y.name), labels, factors=(x, y))


def _coerce_entry(e) -> Fraction:
    if type(e) is Fraction:
        return e
    if isinstance(e, float):
        raise TypeError(
            f"float entry {e!r} rejected; kernels are exact, pass a Fraction, "
            f"an int, or a 'p/q' string"
        )
    return Fraction(e)


@dataclass(frozen=True)
class Kernel:
    """A row-stochastic table of rationals from ``source`` to ``target``.

    Row ``i`` is the distribution of the target outcome given source element
    ``i``.  Construction validates the shape and that every row sums to one
    exactly.  Kernels are immutable and compare entrywise.  Operations on
    kernels build their results with :func:`_trusted`, which skips these
    checks because the result is stochastic by theorem.
    """

    source: FinSpace
    target: FinSpace
    rows: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self):
        rows = self.rows
        if not (
            type(rows) is tuple
            and all(
                type(row) is tuple and all(type(e) is Fraction for e in row)
                for row in rows
            )
        ):
            rows = tuple(tuple(_coerce_entry(e) for e in row) for row in rows)
            object.__setattr__(self, "rows", rows)
        if len(rows) != len(self.source):
            raise ValueError(
                f"kernel has {len(rows)} rows but source "
                f"{self.source.name!r} has {len(self.source)} elements"
            )
        width = len(self.target)
        for i, row in enumerate(rows):
            if len(row) != width:
                raise ValueError(
                    f"row {i} has {len(row)} entries but target "
                    f"{self.target.name!r} has {width} elements"
                )
            total = RAT0
            for e in row:
                # integer field checks dodge Fraction's slow rich comparisons
                if e.numerator < 0:
                    raise ValueError(f"negative entry {e} in row {i}")
                if e.numerator:
                    total += e
            if total.numerator != total.denominator:
                raise ValueError(f"row {i} sums to {total}, not 1")

    def __repr__(self) -> str:
        return (
            f"Kernel({self.source.name!r} -> {self.target.name!r}, "
            f"{len(self.source)}x{len(self.target)})"
        )

    def entry(self, x: str, y: str) -> Fraction:
        return self.rows[self.source.index(x)][self.target.index(y)]

    def dist(self, x: str) -> tuple[Fraction, ...]:
        """The target distribution given source label ``x``."""
        return self.rows[self.source.index(x)]

    @property
    def probs(self) -> tuple[Fraction, ...]:
        """The single row of a state; raises if the source is not one-point."""
        if len(self.rows) != 1:
            raise ValueError(f"{self!r} is not a state")
        return self.rows[0]

    def is_state(self) -> bool:
        return self.source == UNIT


#: States are kernels out of ``UNIT``; the alias marks intent in signatures.
State = Kernel


def _trusted(source: FinSpace, target: FinSpace, rows) -> Kernel:
    """A kernel built without the checks of :class:`Kernel`.

    Only for results of operations on validated kernels: ``rows`` must
    already be a tuple of tuples of :class:`Fraction` of the right shape,
    each row summing to one.
    """
    k = object.__new__(Kernel)
    k.__dict__.update(source=source, target=target, rows=rows)
    return k


def state(space: FinSpace, values) -> State:
    """A probability state on ``space`` from a sequence of rationals."""
    return Kernel(UNIT, space, (tuple(values),))


def delta(space: FinSpace, label: str) -> State:
    """The point-mass state at ``label``."""
    i = space.index(label)
    row = tuple(RAT1 if j == i else RAT0 for j in range(len(space)))
    return _trusted(UNIT, space, (row,))


def uniform_state(space: FinSpace) -> State:
    return _trusted(UNIT, space, (uniform_row(len(space)),))


def uniform_row(n: int) -> tuple[Fraction, ...]:
    return (Fraction(1, n),) * n


def identity(space: FinSpace) -> Kernel:
    n = len(space)
    rows = tuple(
        tuple(RAT1 if j == i else RAT0 for j in range(n)) for i in range(n)
    )
    return _trusted(space, space, rows)


def _permutation(source: FinSpace, target: FinSpace, image) -> Kernel:
    """Deterministic kernel sending source index ``i`` to target index ``image(i)``."""
    n, m = len(source), len(target)
    rows = []
    for i in range(n):
        row = [RAT0] * m
        row[image(i)] = RAT1
        rows.append(tuple(row))
    return _trusted(source, target, tuple(rows))


def copy(space: FinSpace) -> Kernel:
    """The diagonal ``X -> X (x) X``: each point goes to its own pair."""
    n = len(space)
    return _permutation(space, product(space, space), lambda i: i * n + i)


def discard(space: FinSpace) -> Kernel:
    """The unique kernel ``X -> UNIT`` that forgets the outcome."""
    return _trusted(space, UNIT, ((RAT1,),) * len(space))


def swap(x: FinSpace, y: FinSpace) -> Kernel:
    """The pair-exchange kernel ``X (x) Y -> Y (x) X``."""
    nx, ny = len(x), len(y)
    return _permutation(
        product(x, y),
        product(y, x),
        lambda i: (i % ny) * nx + (i // ny),
    )


def compose(f: Kernel, g: Kernel) -> Kernel:
    """Sequential composition, ``f`` first: the exact matrix product."""
    if f.target != g.source:
        raise SpaceMismatch(
            f"cannot compose {f!r} with {g!r}: target "
            f"{f.target.name!r} != source {g.source.name!r}"
        )
    width = len(g.target)
    rows = []
    for frow in f.rows:
        acc = [RAT0] * width
        for y, p in enumerate(frow):
            if p:
                grow = g.rows[y]
                for z, q in enumerate(grow):
                    if q:
                        acc[z] += p * q
        rows.append(tuple(acc))
    return _trusted(f.source, g.target, tuple(rows))


def tensor(f: Kernel, g: Kernel) -> Kernel:
    """Parallel composition on product spaces: the Kronecker product."""
    src = product(f.source, g.source)
    tgt = product(f.target, g.target)
    rows = []
    for frow in f.rows:
        for grow in g.rows:
            row = []
            for p in frow:
                if p:
                    row.extend(p * q if q else RAT0 for q in grow)
                else:
                    row.extend(RAT0 for _ in grow)
            rows.append(tuple(row))
    return _trusted(src, tgt, tuple(rows))


def state_tensor(a: State, b: State) -> State:
    """The product state ``I -> A (x) B``, routed through the unit diagonal."""
    for s in (a, b):
        if not s.is_state():
            raise SpaceMismatch(f"{s!r} is not a state")
    return compose(copy(UNIT), tensor(a, b))


# Structural isomorphisms.  These are honest kernels, not silent casts: the
# unitors genuinely relabel, while the associator's matrix happens to be the
# identity because product labels flatten and pair order is nested the same
# way on both sides.

def left_unitor(x: FinSpace) -> Kernel:
    """``I (x) X -> X``."""
    return _permutation(product(UNIT, x), x, lambda i: i)


def left_unitor_inv(x: FinSpace) -> Kernel:
    return _permutation(x, product(UNIT, x), lambda i: i)


def right_unitor(x: FinSpace) -> Kernel:
    """``X (x) I -> X``."""
    return _permutation(product(x, UNIT), x, lambda i: i)


def right_unitor_inv(x: FinSpace) -> Kernel:
    return _permutation(x, product(x, UNIT), lambda i: i)


def associator(x: FinSpace, y: FinSpace, z: FinSpace) -> Kernel:
    """``(X (x) Y) (x) Z -> X (x) (Y (x) Z)``."""
    return _permutation(
        product(product(x, y), z), product(x, product(y, z)), lambda i: i
    )


def associator_inv(x: FinSpace, y: FinSpace, z: FinSpace) -> Kernel:
    return _permutation(
        product(x, product(y, z)), product(product(x, y), z), lambda i: i
    )


def interchanger(p: FinSpace, q: FinSpace, x: FinSpace, y: FinSpace) -> Kernel:
    """The middle swap ``(P (x) Q) (x) (X (x) Y) -> (P (x) X) (x) (Q (x) Y)``."""
    nq, nx, ny = len(q), len(x), len(y)

    def image(i: int) -> int:
        i, b = divmod(i, ny)
        i, a = divmod(i, nx)
        pp, qq = divmod(i, nq)
        return ((pp * nx + a) * nq + qq) * ny + b

    return _permutation(
        product(product(p, q), product(x, y)),
        product(product(p, x), product(q, y)),
        image,
    )


def relabel(source: FinSpace, target: FinSpace) -> Kernel:
    """The permutation kernel matching equal labels across two spaces.

    Requires the two spaces to carry the same label set; the result moves
    each point of ``source`` to the identically labelled point of ``target``.
    """
    if set(source.elements) != set(target.elements):
        raise SpaceMismatch(
            f"spaces {source.name!r} and {target.name!r} have different labels"
        )
    return _permutation(source, target, lambda i: target.index(source.elements[i]))
