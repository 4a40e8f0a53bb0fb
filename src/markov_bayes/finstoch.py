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

Rationals are read and written as ``"p/q"`` text without that view.  A
kernel's text is its cached ``_texts`` view: :func:`format_row` over the
cached ``_terms``, each entry its own lowest-terms pair, converting each
distinct denominator once.  A batch posterior holds its weights as
exponents over a coprime base, builds its integer row on first read and
renders its text from an exact decimal view instead.  :func:`parse_row`
reads each distinct entry text once, converting each denominator once.
Integers past 2048 bits or 600 digits convert divide-and-conquer, so
neither direction is quadratic in the length of the number, and the
interpreter's int-to-string digit limit is never reached or changed.

Deterministic kernels (``identity``, ``copy``, ``discard``, ``delta``, ``swap``
and the other structural channels) also carry a private index map, the
target index of each source point.  Composing with one is a gather of rows
or a sum of numerators into image columns rather than a matrix product, and
the tensor of two of them is deterministic again.  Deterministic kernels
are exactly the ones that commute with copy (Fritz 2020, arXiv:1908.07021),
which is what licenses applying them as functions.

Checking happens once, at the public constructors: :class:`Kernel` and
:func:`state` validate types, shapes and exact row sums, in the one loop
that the readers of :mod:`markov_bayes.serialize` also run on parsed
integer pairs.  Operations on validated kernels build their results through
the private, unchecked :func:`_trusted`, because stochastic kernels are
closed under them by theorem; ``tests/test_closure.py`` checks that every
such result equals the checked construction of the same rows.  Every exact
conditional and the joint observation channel get their rows from one rule,
:func:`_normalize`: blocks of integer weights over their masses, uniform at
zero mass.

Product spaces keep a record of their two factors.  That record is a
construction artifact: space equality looks only at the name and the labels,
never at the factors.  :func:`product` is memoized on the identity of its two
factors and holds its results weakly, so a space is built once while it is
in use and no longer than that.
"""

from __future__ import annotations

import re
from dataclasses import FrozenInstanceError, dataclass, field
from decimal import (
    MAX_EMAX,
    MAX_PREC,
    MIN_EMIN,
    Context,
    Decimal,
    Inexact,
    localcontext,
)
from fractions import Fraction
from functools import cache, cached_property
from itertools import repeat
from math import gcd, lcm, prod
from weakref import WeakValueDictionary

from .errors import SpaceMismatch, UnknownLabel

PAIR_SEP = "⊗"  # the product separator used in labels and space names


#: Integers of at most this many bits have at most 617 decimal digits, and
#: strings of at most this many digits convert directly: both stay under
#: 640, the lowest int-to-string digit limit an interpreter can be set to.
#: Where ``str`` and ``int`` are allowed they were measured as fast as the
#: divide-and-conquer routes or faster, which gain only past about 20k bits.
_DIRECT_BITS = 2048
_DIRECT_DIGITS = 600

#: Decimal arithmetic that is exact on integers or raises.
_EXACT = Context(prec=MAX_PREC, Emax=MAX_EMAX, Emin=MIN_EMIN, traps=[Inexact])
_TWO = Decimal(2)


def _int_text(n: int) -> str:
    """``str(n)`` at any length.

    A factored state renders its text from its decimal view and never
    comes here; every other row does.
    Past ``_DIRECT_BITS`` the integer is split into ``hi * 2**k + lo`` at
    half its bits, both halves are converted recursively to
    :class:`Decimal`, and they are recombined in exact decimal arithmetic,
    which multiplies large operands in subquadratic time where ``str`` is
    quadratic.  Each ``2**k`` is computed once per call.
    """
    bits = n.bit_length()
    if bits <= _DIRECT_BITS:
        return str(n)
    if n < 0:
        return "-" + _int_text(-n)
    powers = {}

    def convert(n: int, bits: int) -> Decimal:
        if bits <= _DIRECT_BITS:
            return Decimal(n)
        k = bits >> 1
        hi = n >> k
        power = powers.get(k)
        if power is None:
            power = powers[k] = _TWO**k
        return convert(hi, bits - k) * power + convert(n - (hi << k), k)

    with localcontext(_EXACT):
        return str(convert(n, bits))


def _digits_int(text: str) -> int:
    """``int(text)`` at any length, for a signed decimal integer with ``_``
    separators.

    Past ``_DIRECT_DIGITS`` characters the digits are split in two, both
    halves are converted recursively, and they are recombined as
    ``hi * 10**k + lo``, with ``10**k`` taken as ``5**k`` shifted by ``k``
    bits.  Each ``5**k`` is computed once per call.
    """
    if len(text) <= _DIRECT_DIGITS:
        return int(text)
    digits = text.lstrip("+-").replace("_", "")
    powers = {}

    def convert(start: int, stop: int) -> int:
        if stop - start <= _DIRECT_DIGITS:
            return int(digits[start:stop])
        mid = (start + stop + 1) >> 1
        k = stop - mid
        power = powers.get(k)
        if power is None:
            power = powers[k] = 5**k
        return ((convert(start, mid) * power) << k) + convert(mid, stop)

    value = convert(0, len(digits))
    return -value if text[0] == "-" else value


def _rat_text(num: int, den: int) -> str:
    """``num/den`` in lowest terms as :class:`Fraction` prints it, at any length."""
    g = gcd(num, den)
    num, den = num // g, den // g
    return _int_text(num) if den == 1 else f"{_int_text(num)}/{_int_text(den)}"


#: ``p/q`` or a bare integer, in digits as :class:`Fraction` reads them
_RATIONAL = re.compile(r"([-+]?\d+(?:_\d+)*)(?:/(\d+(?:_\d+)*))?")

#: A decimal's exponent may be at most this many times the length of its
#: text, so the integers it spells grow linearly with the input.
_EXPONENT_PER_CHAR = 100


def _parse_pair(text: str, den_int=_digits_int) -> tuple[int, int]:
    """The integer pair ``(p, q)``, with ``q > 0`` and not necessarily in
    lowest terms, of a rational spelled as :func:`parse_rat` reads it;
    ``den_int`` converts the digits of a ``p/q`` denominator."""
    try:
        body = text.strip()
    except AttributeError:
        raise ValueError(f"not a rational: {text!r}") from None
    match = _RATIONAL.fullmatch(body)
    if match is not None:
        num, den = match.groups()
        q = den_int(den) if den else 1
        if not q:
            raise ValueError(f"not a rational: {text!r}")
        return _digits_int(num), q
    try:
        value = Decimal(body)
    except (ArithmeticError, ValueError):
        value = None
    if value is None or not value.is_finite():
        raise ValueError(f"not a rational: {text!r}")
    negative, digits, exponent = value.as_tuple()
    limit = _EXPONENT_PER_CHAR * len(body)
    if abs(exponent) > limit:
        raise ValueError(
            f"rational {text!r} has exponent {exponent}, beyond the bound of "
            f"{limit} for its length"
        )
    p = _digits_int("-" * negative + "".join(map(str, digits)))
    return (p * 10**exponent, 1) if exponent >= 0 else (p, 10**-exponent)


def parse_row(texts) -> tuple[tuple[int, int], ...]:
    """Parse a row of rationals, each spelled as :func:`parse_rat` reads it,
    to integer pairs ``(p, q)`` with ``q > 0``, not necessarily in lowest
    terms.

    Each distinct string is parsed once, and each distinct denominator's
    digits are converted once.  Entries are parsed in order, so the first
    bad one raises; one that is not a string is refused as by
    :func:`parse_rat`.
    """
    pairs, den_int = {}, cache(_digits_int)
    return tuple([
        pairs.get(t) or pairs.setdefault(t, _parse_pair(t, den_int))
        if type(t) is str else _parse_pair(t)
        for t in texts
    ])


def parse_rat(text: str) -> Fraction:
    """Parse a rational written as ``"p/q"``, a bare integer or a decimal.

    ``p/q`` and bare integers are read digit for digit, ``_`` separators
    included; anything else must be a finite :class:`decimal.Decimal`
    spelling whose exponent is at most 100 times the length of the text.
    Digits of any length parse, and the interpreter's int-to-string digit
    limit is left alone.  This is the integer pair :func:`parse_row` gives
    the entry, as a :class:`Fraction`.
    """
    return Fraction(*_parse_pair(text))


def format_rat(q: Fraction) -> str:
    """Render a rational as ``"p/q"``, always with an explicit denominator.

    Numerators and denominators of any length print; past 2048 bits they
    are converted divide-and-conquer through :class:`decimal.Decimal`.
    """
    return f"{_int_text(q.numerator)}/{_int_text(q.denominator)}"


def format_row(terms) -> list[str]:
    """Render a row of lowest-terms ``(p, q)`` pairs as ``"p/q"`` strings.

    This is :func:`format_rat` on every entry, with each distinct
    denominator converted once.  ``Kernel._terms`` gives the pairs.
    """
    dens = {}
    out = []
    for p, q in terms:
        den = dens.get(q)
        if den is None:
            den = dens[q] = _int_text(q)
        out.append(f"{_int_text(p)}/{den}")
    return out


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
    """An entry as a :class:`Fraction`; a string is read as :func:`parse_rat`
    reads it, with the same bound on a decimal's exponent."""
    if type(e) is Fraction:
        return e
    if isinstance(e, float):
        raise TypeError(
            f"float entry {e!r} rejected; kernels are exact, pass a Fraction, "
            f"an int, or a 'p/q' string"
        )
    if isinstance(e, str):
        return Fraction(*_parse_pair(e))
    return Fraction(e)


def _checked_rows(source: FinSpace, target: FinSpace, rows):
    """The lowest-terms integer rows ``(num, den)`` of rows of ``(p, q)`` pairs.

    Every ``q`` must be positive; the pairs need not be in lowest terms.
    Checks the shape, that no entry is negative and that every row sums to
    one exactly.  Over the lcm ``d`` of a row's denominators the entries
    are integers that sum to ``d``, so ``gcd(d, *ints)`` is their gcd, and
    dividing them and ``d`` by it puts the row in lowest terms.  Led by
    ``d``, the chain is 1, and stops, at the first entry already in lowest
    terms over ``d``, so a row written over one shared denominator takes
    no gcd of two long numerators.
    """
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
        d = lcm(*[q for _, q in row])
        ints = [p * (d // q) for p, q in row]
        if min(ints) < 0:
            p, q = next(e for e in row if e[0] < 0)
            raise ValueError(f"negative entry {_rat_text(p, q)} in row {i}")
        total = sum(ints)
        if total != d:
            raise ValueError(f"row {i} sums to {_rat_text(total, d)}, not 1")
        c = gcd(d, *ints)
        num.append(tuple(ints) if c == 1 else tuple([a // c for a in ints]))
        den.append(d // c)
    return tuple(num), tuple(den)


def _coprime_base(values) -> tuple[int, ...]:
    """Pairwise-coprime integers above 1, ascending, with each of ``values``
    a product of their powers.  Plain pairwise gcd refinement: quadratic,
    where Bernstein (J. Algorithms 54, 2005) is essentially linear, and
    cheap for a model's few values."""
    base, pending = [], list(values)
    while pending:
        a = pending.pop()
        if a == 1:
            continue
        for i, b in enumerate(base):
            g = gcd(a, b)
            if g > 1:
                del base[i]
                pending += (g, a // g, b // g)
                break
        else:
            base.append(a)
    return tuple(sorted(base))


def _split(v: int, base) -> list[tuple[int, int]]:
    """The nonzero ``(index, exponent)`` pairs of ``v`` over ``base``."""
    exponents = []
    for k, b in enumerate(base):
        if v == 1:
            break
        e = 0
        while v % b == 0:
            v //= b
            e += 1
        if e:
            exponents.append((k, e))
    return exponents


def _expand(base, factors, width: int, one) -> tuple:
    """The weights of a factored row, their total and each entry's
    lowest-terms pair, in ``int`` or exact :class:`Decimal` arithmetic as
    ``one`` is.

    ``factors`` holds one ``(m, shift)`` per nonzero entry ``m``: its weight
    is the coprime ``base`` to the exponents ``shift``, raised high bit
    first, a squaring and then a product with the elements whose exponent
    has that bit set.  Its gcd with the total is the product over elements
    ``b`` of ``c[s] = gcd(b**s, total)``, where ``c[0] = 1`` and
    ``c[k + 1] = c[k] * gcd(b, total // c[k] % b)`` needs no big gcd and
    stays put once that factor is 1.  A zero entry is ``(0, 1)``.
    """
    weights = [0] * width
    for m, shift in factors:
        w = one
        for bit in reversed(range(max(shift, default=0).bit_length())):
            w = w * w * prod(b for b, s in zip(base, shift) if s >> bit & 1)
        weights[m] = w
    total = sum(weights)
    chains = []
    for b, cap in zip(base, map(max, zip(*[s for _, s in factors]))):
        chain, rest = [1], total
        while len(chain) <= cap:
            g = gcd(b, int(rest % b))
            if g == 1:
                break
            chain.append(chain[-1] * g)
            rest //= g
        chains.append(chain)
    terms = [(0, 1)] * width
    for m, shift in factors:
        g = prod(c[min(s, len(c) - 1)] for c, s in zip(chains, shift))
        w = weights[m]
        terms[m] = (w, total) if g == 1 else (w // g, total // g)
    return tuple(weights), total, tuple(terms)


class Kernel:
    """A row-stochastic table of rationals from ``source`` to ``target``.

    Row ``i`` is the distribution of the target outcome given source element
    ``i``.  Construction validates the shape and that every row sums to one
    exactly.  Kernels are immutable and hashable, and compare entrywise.

    Internally row ``i`` is the numerators ``_num[i]`` over the denominator
    ``_den[i]``, in lowest terms; ``rows`` is the :class:`Fraction` view of
    them, which the constructor keeps when it is handed ``Fraction`` rows
    and builds on first read otherwise; ``_terms`` gives each entry as its
    own lowest-terms pair and ``_texts`` as its ``"p/q"`` text.  A
    deterministic kernel may also carry ``_map``, the target index of each
    source point; a kernel without one takes the general routes, whatever
    its entries.
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
        num, den = _checked_rows(
            source,
            target,
            [[(e.numerator, e.denominator) for e in row] for row in rows],
        )
        self.__dict__.update(
            source=source, target=target, rows=rows, _num=num, _den=den, _map=None
        )

    #: a factored state's record; see :func:`_factored`
    _factors = None

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

    # Every constructor but _deterministic and _factored stores _num and
    # _den, which then shadow these; a deterministic kernel builds its
    # one-hot rows, and a factored state its integer row, only when a
    # general route first reads them.
    @cached_property
    def _num(self) -> tuple[tuple[int, ...], ...]:
        if self._map is None:
            return (self._ints[0],)
        m = len(self.target)
        return tuple((0,) * j + (1,) + (0,) * (m - j - 1) for j in self._map)

    @cached_property
    def _den(self) -> tuple[int, ...]:
        if self._map is None:
            return (self._ints[1],)
        return (1,) * len(self._map)

    @cached_property
    def _ints(self) -> tuple:
        """A factored state's weights, total and lowest terms, as integers."""
        return _expand(*self._factors, len(self.target), 1)

    @cached_property
    def _decimals(self) -> tuple | None:
        """A factored state's weights, total and lowest terms in exact
        decimal; ``None`` when there is no record."""
        if self._factors is None:
            return None
        with localcontext(_EXACT):
            return _expand(*self._factors, len(self.target), Decimal(1))

    @cached_property
    def _terms(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """Each entry as its own lowest-terms ``(p, q)`` pair, row by row.

        One gcd per row finds them.  With ``r`` the product of the row's
        nonzero numerators modulo its denominator ``d`` and ``G = gcd(d, r)``,
        every entry has ``gcd(p, d) = gcd(p, G)``: ``gcd(p, d)`` divides
        ``d`` and the product, so it divides ``G``, and ``G`` divides ``d``.
        When ``G`` is 1, as it mostly is, no entry needs a gcd of its own.
        A row with at most two nonzero entries needs none at all: with
        ``p + p' = d``, ``gcd(p, d) = gcd(p, p')``, the gcd of the row's
        numerators, which is 1.  A zero entry is ``(0, 1)``.  A factored
        state takes its pairs from its record instead.
        """
        if self._factors is not None:
            return (self._ints[2],)
        terms = []
        for num, d in zip(self._num, self._den):
            support = [p for p in num if p]
            g = 1
            if len(support) > 2:
                r = 1
                for p in support:
                    r = r * p % d
                g = gcd(d, r)
            if g == 1:
                terms.append(tuple([(p, d) if p else (0, 1) for p in num]))
                continue
            row = []
            for p in num:
                c = gcd(p, g) if p else d
                row.append((p, d) if c == 1 else (p // c, d // c))
            terms.append(tuple(row))
        return tuple(terms)

    @cached_property
    def _texts(self) -> tuple[tuple[str, ...], ...]:
        """Each entry as its own lowest-terms ``"p/q"`` text, row by row,
        from ``_terms`` or a factored state's decimal view; every writer
        reads it, so a kernel renders once however often it is written."""
        if self._factors is None:
            return tuple([tuple(format_row(terms)) for terms in self._terms])
        dens = {}
        return (tuple([
            f"{p}/{dens.get(q) or dens.setdefault(q, str(q))}"
            for p, q in self._decimals[2]
        ]),)

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


def _normalize(blocks, width: int, seeds=None):
    """Rows, denominators and masses of blocks of ``width`` integer weights:
    each block over its mass in lowest terms, uniform at zero mass.  A seed,
    if given, is a multiple of its block's gcd, cheap to start the gcd from."""
    fill = (1,) * width
    num, den, masses = [], [], []
    for block, seed in zip(blocks, repeat(0) if seeds is None else seeds):
        mass = sum(block)
        masses.append(mass)
        if not mass:
            num.append(fill)
            den.append(width)
            continue
        c = gcd(seed, *block)
        num.append(tuple(block) if c == 1 else tuple([w // c for w in block]))
        den.append(mass // c)
    return tuple(num), tuple(den), masses


def _factored(target: FinSpace, base, factors) -> State:
    """The state on ``target`` of weights over ``base`` as :func:`_expand`
    reads them, with gcd 1; its integer row is built on first read."""
    k = object.__new__(Kernel)
    k.__dict__.update(source=UNIT, target=target, _map=None, _factors=(base, factors))
    return k


def _from_pairs(source: FinSpace, target: FinSpace, rows) -> Kernel:
    """The checked kernel of rows of ``(p, q)`` integer pairs with ``q > 0``."""
    return _trusted(source, target, *_checked_rows(source, target, rows))


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
