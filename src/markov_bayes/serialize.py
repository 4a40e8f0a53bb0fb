"""JSON and CSV forms for every value the package reads or writes.

Rationals always travel as ``"p/q"`` strings so that a written value parses
back to the identical fraction.  Writers read a kernel's cached text view,
``Kernel._texts``, so each kernel is rendered once however many documents
hold it, and readers parse each entry straight to an integer pair, so no
:class:`~fractions.Fraction` is built on either side.  Spaces serialize
with their factor record when they have one, which keeps joint-state
structure across a round trip.
The float backend's forms import numpy and :mod:`~markov_bayes.gauss` when
first called, so reading and writing exact values never loads them.
"""

from __future__ import annotations

import csv
import io
from itertools import islice
from typing import TYPE_CHECKING

from .finstoch import (
    UNIT,
    FinSpace,
    Kernel,
    State,
    _from_pairs,
    parse_row,
    product,
)
from .learning import Model, PosteriorTrace, TrainingSet
from .paralens import LensMorphism, ParaMorphism
from .ps import PSMorphism, PSObject

if TYPE_CHECKING:
    from .gauss import GaussPosterior, RegressionData


def _expect(doc: dict, key: str, where: str):
    if not isinstance(doc, dict) or key not in doc:
        raise ValueError(f"{where}: missing field {key!r}")
    return doc[key]


def _typed(value, kind: type, what: str):
    """``value``, refused unless it is a ``kind``; a tuple passes for a list."""
    if not isinstance(value, (list, tuple) if kind is list else kind):
        raise ValueError(f"{what} must be a {kind.__name__}, got {type(value).__name__}")
    return value


def _parse_rows(rows, what: str) -> tuple:
    """Every entry of ``rows`` as an integer pair, all parsed before any check
    and in one :func:`~markov_bayes.finstoch.parse_row`, so each distinct
    entry text in the whole table is parsed once."""
    for i, row in enumerate(_typed(rows, list, what)):
        if not isinstance(row, (list, tuple)):
            _typed(row, list, f"{what} row {i}")
    pairs = iter(parse_row([text for row in rows for text in row]))
    return tuple([tuple(islice(pairs, len(row))) for row in rows])


def space_to_json(s: FinSpace) -> dict:
    doc = {"name": s.name, "elements": list(s.elements)}
    if s.factors is not None:
        doc["factors"] = [space_to_json(f) for f in s.factors]
    return doc


def space_from_json(doc: dict) -> FinSpace:
    name = _expect(doc, "name", "space")
    elements = _expect(doc, "elements", "space")
    _typed(elements, list, f"space {name!r}: field 'elements'")
    factors = doc.get("factors")
    if factors is not None:
        if len(_typed(factors, list, f"space {name!r}: field 'factors'")) != 2:
            raise ValueError("space: factors must list exactly two spaces")
        left, right = (space_from_json(f) for f in factors)
        rebuilt = product(left, right)
        if rebuilt.name != name or rebuilt.elements != tuple(elements):
            raise ValueError(
                f"space {name!r}: listed factors do not produce its labels"
            )
        return rebuilt
    return FinSpace(name, tuple(elements))


def kernel_to_json(k: Kernel) -> dict:
    return {
        "source": space_to_json(k.source),
        "target": space_to_json(k.target),
        "rows": [list(row) for row in k._texts],
    }


def kernel_from_json(doc: dict) -> Kernel:
    src = space_from_json(_expect(doc, "source", "kernel"))
    tgt = space_from_json(_expect(doc, "target", "kernel"))
    rows = _expect(doc, "rows", "kernel")
    return _from_pairs(src, tgt, _parse_rows(rows, "kernel: field 'rows'"))


def state_to_map(st: State) -> dict:
    """A state as a label-to-rational mapping, in space order."""
    if len(st.source) != 1:
        raise ValueError(f"{st!r} is not a state")
    return dict(zip(st.target.elements, st._texts[0]))


def state_from_map(space: FinSpace, mapping: dict) -> State:
    _typed(mapping, dict, f"state on space {space.name!r}")
    if set(mapping) != set(space.elements):
        raise ValueError(
            f"state labels {sorted(mapping)} do not match space "
            f"{space.name!r} labels"
        )
    row = parse_row([mapping[label] for label in space.elements])
    return _from_pairs(UNIT, space, (row,))


def ps_object_to_json(obj: PSObject) -> dict:
    return {"space": space_to_json(obj.space), "state": kernel_to_json(obj.state)}


def ps_object_from_json(doc: dict) -> PSObject:
    return PSObject(
        space_from_json(_expect(doc, "space", "object")),
        kernel_from_json(_expect(doc, "state", "object")),
    )


def ps_morphism_to_json(f: PSMorphism) -> dict:
    return {
        "src": ps_object_to_json(f.src),
        "dst": ps_object_to_json(f.dst),
        "rep": kernel_to_json(f.rep),
    }


def ps_morphism_from_json(doc: dict) -> PSMorphism:
    return PSMorphism(
        ps_object_from_json(_expect(doc, "src", "morphism")),
        ps_object_from_json(_expect(doc, "dst", "morphism")),
        kernel_from_json(_expect(doc, "rep", "morphism")),
    )


def lens_to_json(l: LensMorphism) -> dict:
    return {
        "forward": ps_morphism_to_json(l.forward),
        "backward": ps_morphism_to_json(l.backward),
    }


def lens_from_json(doc: dict) -> LensMorphism:
    return LensMorphism(
        ps_morphism_from_json(_expect(doc, "forward", "lens")),
        ps_morphism_from_json(_expect(doc, "backward", "lens")),
    )


def para_to_json(f: ParaMorphism) -> dict:
    """A model's body is written as a morphism, a learner's as a lens,
    ``{"forward": ..., "backward": ...}``."""
    if isinstance(f.body, LensMorphism):
        body = lens_to_json(f.body)
    else:
        body = ps_morphism_to_json(f.body)
    return {
        "param": ps_object_to_json(f.param),
        "src": ps_object_to_json(f.src),
        "dst": ps_object_to_json(f.dst),
        "body": body,
    }


def para_from_json(doc: dict) -> ParaMorphism:
    """Read either kind of body: a lens has a ``forward`` field."""
    param, src, dst, body = (
        _expect(doc, key, "parametrized morphism")
        for key in ("param", "src", "dst", "body")
    )
    is_lens = isinstance(body, dict) and "forward" in body
    return ParaMorphism(
        ps_object_from_json(param),
        ps_object_from_json(src),
        ps_object_from_json(dst),
        lens_from_json(body) if is_lens else ps_morphism_from_json(body),
    )


def model_to_json(m: Model) -> dict:
    """The model bundle: spaces, states as label maps, channel as bare rows.

    The channel rows are ordered parameter-major over inputs, matching the
    product space the model is validated against.
    """
    return {
        "params": space_to_json(m.params),
        "prior": state_to_map(m.prior),
        "input": space_to_json(m.input_space),
        "input_state": state_to_map(m.input_state),
        "output": space_to_json(m.output_space),
        "channel": [list(row) for row in m.channel._texts],
    }


def model_from_json(doc: dict) -> Model:
    params = space_from_json(_expect(doc, "params", "model"))
    input_space = space_from_json(_expect(doc, "input", "model"))
    output_space = space_from_json(_expect(doc, "output", "model"))
    rows = _expect(doc, "channel", "model")
    channel = _from_pairs(
        product(params, input_space), output_space,
        _parse_rows(rows, "model: field 'channel'"),
    )
    return Model(
        params=params,
        prior=state_from_map(params, _expect(doc, "prior", "model")),
        input_space=input_space,
        input_state=state_from_map(input_space, _expect(doc, "input_state", "model")),
        output_space=output_space,
        channel=channel,
    )


def training_set_to_csv(data: TrainingSet) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["x", "y"])
    for x, y in data:
        writer.writerow([x, y])
    return buf.getvalue()


def training_set_from_csv(text: str) -> TrainingSet:
    """Read an ``x,y`` header, then one observed pair per line.

    Lines end in ``\\n``, ``\\r\\n`` or a lone ``\\r``, as a file read in
    text mode does, and blank lines are skipped.  Anything else the ``csv``
    module refuses is a :class:`ValueError` naming the line.
    """
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    reader = csv.reader(io.StringIO(text))
    try:
        rows = list(reader)
    except csv.Error as exc:
        raise ValueError(f"training CSV line {reader.line_num}: {exc}") from None
    if not rows:
        raise ValueError("training CSV is empty, expected an 'x,y' header")
    header, *records = rows
    if [h.strip() for h in header] != ["x", "y"]:
        raise ValueError(f"training CSV header must be 'x,y', got {header!r}")
    pairs = []
    for line, row in enumerate(records, start=2):
        if not row:
            continue
        if len(row) != 2:
            raise ValueError(f"training CSV line {line}: expected two fields")
        pairs.append((row[0].strip(), row[1].strip()))
    return TrainingSet(tuple(pairs))


def trace_to_json(trace: PosteriorTrace) -> list:
    return [state_to_map(st) for st in trace.states]


def trace_to_tsv(trace: PosteriorTrace) -> str:
    """One line per step: the step index, then a rational per label."""
    space = trace.states[0].target
    lines = ["\t".join(["step", *space.elements])]
    for i, st in enumerate(trace.states):
        lines.append("\t".join([str(i), *st._texts[0]]))
    return "\n".join(lines) + "\n"


def gauss_posterior_to_json(post: GaussPosterior) -> dict:
    return {"mean": post.mean.tolist(), "cov": post.cov.tolist()}


def gauss_posterior_from_json(doc: dict) -> GaussPosterior:
    from .gauss import GaussPosterior

    return GaussPosterior(
        _expect(doc, "mean", "posterior"), _expect(doc, "cov", "posterior")
    )


def regression_data_to_csv(data: RegressionData) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf)
    dim = data.design.shape[1]
    writer.writerow([f"x{i + 1}" for i in range(dim)] + ["y"])
    for row, target in zip(data.design, data.targets):
        writer.writerow([repr(float(v)) for v in row] + [repr(float(target))])
    return buf.getvalue()


#: Rows the regression CSV reader converts at a time.
CSV_BLOCK_ROWS = 512


def _bad_record(records: list[str], width: int) -> ValueError:
    """The error for the first record, in file order, that is not ``width`` numbers."""
    for line, record in enumerate(records, start=2):
        if not record:
            continue
        fields = record.split(",")
        if len(fields) != width:
            return ValueError(f"regression CSV line {line}: expected {width} fields")
        try:
            [float(v) for v in fields]
        except ValueError:
            return ValueError(f"regression CSV line {line}: non-numeric field")
    raise AssertionError("every record holds the expected numbers")


def regression_data_from_csv(text: str) -> RegressionData:
    """Read an ``x1,...,xn,y`` header, then one observation per line.

    Lines end in ``\\n``, ``\\r\\n`` or a lone ``\\r``, and blank lines are
    skipped.  Every field is a bare number as Python ``float`` reads it;
    there is no quoting, so a quoted field is non-numeric.  Every row's
    field count is checked first.  Then the rows are converted in blocks of
    :data:`CSV_BLOCK_ROWS` into one preallocated array, so only one block's
    field strings are alive at a time.  Only a failure goes back over the
    records to name a line: first the earliest with a wrong field count or
    a non-numeric field, then, once every block is converted, the earliest
    with a non-finite field.
    """
    import numpy as np

    from .gauss import RegressionData

    if not text:
        raise ValueError("regression CSV is empty")
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    first, *records = text.split("\n")
    header = [h.strip() for h in first.split(",")] if first else []
    dim = len(header) - 1
    if dim < 1 or header[-1] != "y" or header[:-1] != [f"x{i + 1}" for i in range(dim)]:
        raise ValueError(
            f"regression CSV header must be 'x1,...,xn,y', got {header!r}"
        )
    rows = list(filter(None, records))
    if any(row.count(",") != dim for row in rows):
        raise _bad_record(records, dim + 1)
    values = np.empty((len(rows), dim + 1))
    for start in range(0, len(rows), CSV_BLOCK_ROWS):
        block = rows[start:start + CSV_BLOCK_ROWS]
        try:
            fields = np.array(",".join(block).split(","), dtype=float)
        except ValueError:
            raise _bad_record(records, dim + 1) from None
        values[start:start + len(block)] = fields.reshape(len(block), dim + 1)
    finite = np.isfinite(values).all(axis=1)
    if not finite.all():
        lines = [line for line, record in enumerate(records, start=2) if record]
        line = lines[int(np.argmin(finite))]
        raise ValueError(f"regression CSV line {line}: non-finite field")
    return RegressionData(values[:, :dim], values[:, dim])
