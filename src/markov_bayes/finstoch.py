"""Finite spaces and exact stochastic kernels.

A :class:`FinSpace` is a named, ordered finite set of outcome labels.  A
:class:`Kernel` is a row-stochastic table of rationals from a source space to
a target space; a kernel whose source is the one-point space ``UNIT`` is a
probability state.  Arithmetic is exact, so composition, products and the
copy/discard/swap structure satisfy their algebraic identities on the nose
and tests can use ``==`` rather than tolerances.

Each row is stored as a tuple of ``int`` numerators over one ``int``
denominator, in lowest terms: the numerators sum to the denominator and
their gcd is 1.  That form is unique, so kernel equality and hashing compare
integer tuples.  Operations work on the integers: :func:`compose` takes one
lcm and one gcd per row, and :func:`tensor` none, because a product of
lowest-terms stochastic rows is already in lowest terms.  The public
``rows``, ``probs``, ``entry`` and ``dist`` read a :class:`fractions.Fraction`
view that is built on first read and cached.

Deterministic kernels (``identity``, ``copy``, ``discard``, ``delta``, ``swap``
and the other structural channels) also carry a private index map, the
target index of each source point.  Composing with one is a gather of rows
or a sum of numerators into image columns rather than a matrix product, and
the tensor of two of them is deterministic again.  Deterministic kernels
are exactly the ones that commute with copy (Fritz 2020, arXiv:1908.07021),
which is what licenses applying them as functions.

Checking happens once, at the public constructors: :class:`Kernel` and
:func:`state` validate types, shapes and exact row sums.  Operations on
validated kernels (composition, products, the structural channels, and the
inversion and conditioning of :mod:`markov_bayes.conditioning`) build their
results through the private, unchecked :func:`_trusted`, because stochastic
kernels are closed under them by theorem; ``tests/test_closure.py`` checks
that every such result equals the checked construction of the same rows.

Product spaces keep a record of their two factors.  That record is a
construction artifact: space equality looks only at the name and the labels,
never at the factors.  :func:`product` is memoized on the identity of its two
factors and holds its results weakly, so a space is built once while it is
in use and no longer than that.
"""

from __future__ import annotations

import re
from dataclasses import FrozenInstanceError, dataclass, field
from decimal import Decimal
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm
from weakref import WeakValueDictionary

from .errors import SpaceMismatch, UnknownLabel

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


def _pair_labels(x: "FinSpace", y: "FinSpace") -> tuple[str, ...]:
    return tuple([pair_label(a, b) for a in x.elements for b in y.elements])


def _positions(name: str, elements: tuple[str, ...]) -> dict[str, int]:
    """Each label's position, checking that there is one and none repeats."""
    if not elements:
        raise ValueError(f"space {name!r} has no elements")
    positions = {label: i for i, label in enumerate(elements)}
    if len(positions) != len(elements):
        raise ValueError(f"space {name!r} has repeated labels")
    return positions


@dataclass(frozen=True)
class FinSpace:
    """A named finite set of distinct outcome labels, in a fixed order.

    Two spaces are equal exactly when their names and their ordered label
    tuples agree.  The optional factor record produced by :func:`product`
    does not participate in equality or hashing, but it must produce the
    labels: the pair labels of its two factors, first-factor major.
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
        object.__setattr__(self, "_positions", _positions(self.name, elements))
        if self.factors is not None and elements != _pair_labels(*self.factors):
            raise ValueError(
                f"space {self.name!r}: its factors do not produce its labels"
            )

    def __len__(self) -> int:
        return len(self.elements)

    def index(self, label: str) -> int:
        try:
            return self._positions[label]
        except (KeyError, TypeError):
            raise UnknownLabel(f"label {label!r} is not in space {self.name!r}") from None


#: The one-point space: the monoidal unit and the source of every state.
UNIT = FinSpace("I", ("*",))

#: (id(x), id(y)) -> product(x, y).  A live product holds both factors, so
#: the ids in its key belong to those very objects for as long as it lives.
_PRODUCTS: WeakValueDictionary = WeakValueDictionary()


def product(x: FinSpace, y: FinSpace) -> FinSpace:
    """The product space, with pair labels ordered first by ``x`` then by ``y``.

    Calls with the same two factor objects return the same space while it
    is alive, so its factor record is always exactly the arguments given.
    """
    key = (id(x), id(y))
    space = _PRODUCTS.get(key)
    if space is None:
        # the labels are built here once; the constructor's check that the
        # factors produce them would build them again
        name, labels = pair_label(x.name, y.name), _pair_labels(x, y)
        space = object.__new__(FinSpace)
        space.__dict__.update(
            name=name,
            elements=labels,
            factors=(x, y),
            _positions=_positions(name, labels),
        )
        _PRODUCTS[key] = space
    return space


def _coerce_entry(e) -> Fraction:
    if type(e) is Fraction:
        return e
    if isinstance(e, float):
        raise TypeError(
            f"float entry {e!r} rejected; kernels are exact, pass a Fraction, "
            f"an int, or a 'p/q' string"
        )
    return Fraction(e)


class Kernel:
    """A row-stochastic table of rationals from ``source`` to ``target``.

    Row ``i`` is the distribution of the target outcome given source element
    ``i``.  Construction validates the shape and that every row sums to one
    exactly.  Kernels are immutable and hashable, and compare entrywise.

    Internally row ``i`` is the numerators ``_num[i]`` over the denominator
    ``_den[i]``, in lowest terms; ``rows`` is the :class:`Fraction` view of
    them, which the constructor keeps when it is handed ``Fraction`` rows
    and builds on first read otherwise.  A deterministic kernel may also
    carry ``_map``, the target index of each source point; a kernel without
    one is handled by the general routes, whatever its entries.
    Operations on kernels build their results with :func:`_trusted`, which
    skips the checks because the result is stochastic by theorem.
    """

    def __init__(self, source: FinSpace, target: FinSpace, rows) -> None:
        if not (
            type(rows) is tuple
            and all(
                type(row) is tuple and all(type(e) is Fraction for e in row)
                for row in rows
            )
        ):
            rows = tuple(tuple(_coerce_entry(e) for e in row) for row in rows)
        if len(rows) != len(source):
            raise ValueError(
                f"kernel has {len(rows)} rows but source "
                f"{source.name!r} has {len(source)} elements"
            )
        width = len(target)
        num, den = [], []
        for i, row in enumerate(rows):
            if len(row) != width:
                raise ValueError(
                    f"row {i} has {len(row)} entries but target "
                    f"{target.name!r} has {width} elements"
                )
            # over the lcm of the entries' lowest-terms denominators the
            # numerators have gcd 1 with it, so the row is in lowest terms
            d = lcm(*(e.denominator for e in row))
            ints = tuple(e.numerator * (d // e.denominator) for e in row)
            if min(ints) < 0:
                bad = next(e for e in row if e.numerator < 0)
                raise ValueError(f"negative entry {bad} in row {i}")
            total = sum(ints)
            if total != d:
                raise ValueError(f"row {i} sums to {Fraction(total, d)}, not 1")
            num.append(ints)
            den.append(d)
        self.__dict__.update(
            source=source,
            target=target,
            rows=rows,
            _num=tuple(num),
            _den=tuple(den),
            _map=None,
        )

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not Kernel:
            return NotImplemented
        if self._map is not None and other._map is not None:
            same = self._map == other._map
        else:
            same = self._num == other._num
        return same and self.source == other.source and self.target == other.target

    def __hash__(self) -> int:
        return hash((self.source, self.target, self._num))

    def __repr__(self) -> str:
        return (
            f"Kernel({self.source.name!r} -> {self.target.name!r}, "
            f"{len(self.source)}x{len(self.target)})"
        )

    # Every constructor but _deterministic stores _num and _den, which then
    # shadow these; a deterministic kernel builds its one-hot rows only
    # when a general route first reads them.
    @cached_property
    def _num(self) -> tuple[tuple[int, ...], ...]:
        m = len(self.target)
        return tuple((0,) * j + (1,) + (0,) * (m - j - 1) for j in self._map)

    @cached_property
    def _den(self) -> tuple[int, ...]:
        return (1,) * len(self._map)

    @cached_property
    def rows(self) -> tuple[tuple[Fraction, ...], ...]:
        """The rows as :class:`Fraction` entries."""
        return tuple(
            tuple(Fraction(n, d) for n in num)
            for num, d in zip(self._num, self._den)
        )

    def entry(self, x: str, y: str) -> Fraction:
        return self.rows[self.source.index(x)][self.target.index(y)]

    def dist(self, x: str) -> tuple[Fraction, ...]:
        """The target distribution given source label ``x``."""
        return self.rows[self.source.index(x)]

    @property
    def probs(self) -> tuple[Fraction, ...]:
        """The single row of a state; raises if the source is not one-point."""
        if len(self.source) != 1:
            raise ValueError(f"{self!r} is not a state")
        return self.rows[0]

    def is_state(self) -> bool:
        return self.source == UNIT


#: States are kernels out of ``UNIT``; the alias marks intent in signatures.
State = Kernel


def _trusted(source: FinSpace, target: FinSpace, num, den) -> Kernel:
    """A kernel built without the checks of :class:`Kernel`.

    Only for results of operations on validated kernels: ``num`` must be a
    tuple of lowest-terms integer rows of the right shape, each summing to
    its entry of ``den``.
    """
    k = object.__new__(Kernel)
    k.__dict__.update(source=source, target=target, _num=num, _den=den, _map=None)
    return k


def _deterministic(source: FinSpace, target: FinSpace, imap: tuple[int, ...]) -> Kernel:
    """The kernel sending source index ``i`` to target index ``imap[i]``."""
    k = object.__new__(Kernel)
    k.__dict__.update(source=source, target=target, _map=imap)
    return k


def state(space: FinSpace, values) -> State:
    """A probability state on ``space`` from a sequence of rationals."""
    return Kernel(UNIT, space, (tuple(values),))


def delta(space: FinSpace, label: str) -> State:
    """The point-mass state at ``label``."""
    return _deterministic(UNIT, space, (space.index(label),))


def uniform_state(space: FinSpace) -> State:
    n = len(space)
    return _trusted(UNIT, space, ((1,) * n,), (n,))


def uniform_row(n: int) -> tuple[Fraction, ...]:
    return (Fraction(1, n),) * n


def identity(space: FinSpace) -> Kernel:
    return _deterministic(space, space, tuple(range(len(space))))


def _permutation(source: FinSpace, target: FinSpace, image) -> Kernel:
    """Deterministic kernel sending source index ``i`` to target index ``image(i)``."""
    return _deterministic(source, target, tuple(map(image, range(len(source)))))


def copy(space: FinSpace) -> Kernel:
    """The diagonal ``X -> X (x) X``: each point goes to its own pair."""
    n = len(space)
    return _permutation(space, product(space, space), lambda i: i * n + i)


def discard(space: FinSpace) -> Kernel:
    """The unique kernel ``X -> UNIT`` that forgets the outcome."""
    return _deterministic(space, UNIT, (0,) * len(space))


def swap(x: FinSpace, y: FinSpace) -> Kernel:
    """The pair-exchange kernel ``X (x) Y -> Y (x) X``."""
    nx, ny = len(x), len(y)
    return _permutation(
        product(x, y),
        product(y, x),
        lambda i: (i % ny) * nx + (i // ny),
    )


def compose(f: Kernel, g: Kernel) -> Kernel:
    """Sequential composition, ``f`` first: the exact matrix product.

    A deterministic ``f`` selects rows of ``g``, and a deterministic ``g``
    adds each row of ``f`` into its image columns; otherwise each row is
    summed over the lcm of the ``g`` rows it meets and reduced by one gcd.
    """
    if f.target != g.source:
        raise SpaceMismatch(
            f"cannot compose {f!r} with {g!r}: target "
            f"{f.target.name!r} != source {g.source.name!r}"
        )
    fmap, gmap = f._map, g._map
    if fmap is not None:
        if gmap is not None:
            return _deterministic(f.source, g.target, tuple(gmap[i] for i in fmap))
        gnum, gden = g._num, g._den
        return _trusted(
            f.source,
            g.target,
            tuple(gnum[i] for i in fmap),
            tuple(gden[i] for i in fmap),
        )
    width = len(g.target)
    num, den = [], []
    if gmap is not None:
        for row, d in zip(f._num, f._den):
            acc = [0] * width
            for n, z in zip(row, gmap):
                acc[z] += n
            # points that share an image can leave a common factor
            c = gcd(*acc)
            num.append(tuple(acc) if c == 1 else tuple([a // c for a in acc]))
            den.append(d // c)
        return _trusted(f.source, g.target, tuple(num), tuple(den))
    gnum, gden = g._num, g._den
    for row, d in zip(f._num, f._den):
        scale = lcm(*[gden[y] for y, n in enumerate(row) if n])
        acc = [0] * width
        for y, n in enumerate(row):
            if n:
                s = n * (scale // gden[y])
                for z, b in enumerate(gnum[y]):
                    if b:
                        acc[z] += s * b
        c = gcd(*acc)
        num.append(tuple(acc) if c == 1 else tuple([a // c for a in acc]))
        den.append(d * scale // c)
    return _trusted(f.source, g.target, tuple(num), tuple(den))


def tensor(f: Kernel, g: Kernel) -> Kernel:
    """Parallel composition on product spaces: the Kronecker product.

    The gcd of the products of two rows' numerators is the product of their
    gcds, so the product rows need no reduction.
    """
    src = product(f.source, g.source)
    tgt = product(f.target, g.target)
    fmap, gmap = f._map, g._map
    if fmap is not None and gmap is not None:
        m = len(g.target)
        return _deterministic(src, tgt, tuple(i * m + j for i in fmap for j in gmap))
    gnum, gden = g._num, g._den
    num = tuple(
        [tuple([a * b for a in arow for b in brow]) for arow in f._num for brow in gnum]
    )
    den = tuple(d * e for d in f._den for e in gden)
    return _trusted(src, tgt, num, den)


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
