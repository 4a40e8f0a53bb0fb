"""JSON and CSV forms for every value the package reads or writes.

Rationals always travel as ``"p/q"`` strings so that a written value parses
back to the identical fraction.  Spaces serialize with their factor record
when they have one, which keeps joint-state structure across a round trip.
"""

from __future__ import annotations

import csv
import io

import numpy as np

from .finstoch import (
    FinSpace,
    Kernel,
    State,
    format_rat,
    parse_rat,
    product,
    state,
)
from .gauss import GaussPosterior, RegressionData
from .learning import Model, PosteriorTrace, TrainingSet
from .paralens import LensMorphism, ParaMorphism
from .ps import PSMorphism, PSObject


def _expect(doc: dict, key: str, where: str):
    if not isinstance(doc, dict) or key not in doc:
        raise ValueError(f"{where}: missing field {key!r}")
    return doc[key]


def space_to_json(s: FinSpace) -> dict:
    doc = {"name": s.name, "elements": list(s.elements)}
    if s.factors is not None:
        doc["factors"] = [space_to_json(f) for f in s.factors]
    return doc


def space_from_json(doc: dict) -> FinSpace:
    name = _expect(doc, "name", "space")
    elements = _expect(doc, "elements", "space")
    factors = doc.get("factors")
    if factors is not None:
        if len(factors) != 2:
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
        "rows": [[format_rat(e) for e in row] for row in k.rows],
    }


def kernel_from_json(doc: dict) -> Kernel:
    src = space_from_json(_expect(doc, "source", "kernel"))
    tgt = space_from_json(_expect(doc, "target", "kernel"))
    rows = _expect(doc, "rows", "kernel")
    return Kernel(
        src, tgt, tuple(tuple(parse_rat(e) for e in row) for row in rows)
    )


def state_to_map(st: State) -> dict:
    """A state as a label-to-rational mapping, in space order."""
    return {
        label: format_rat(p) for label, p in zip(st.target.elements, st.probs)
    }


def state_from_map(space: FinSpace, mapping: dict) -> State:
    if set(mapping) != set(space.elements):
        raise ValueError(
            f"state labels {sorted(mapping)} do not match space "
            f"{space.name!r} labels"
        )
    return state(space, (parse_rat(mapping[label]) for label in space.elements))


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
    return {
        "param": ps_object_to_json(f.param),
        "src": ps_object_to_json(f.src),
        "dst": ps_object_to_json(f.dst),
        "body": ps_morphism_to_json(f.body),
    }


def para_from_json(doc: dict) -> ParaMorphism:
    return ParaMorphism(
        ps_object_from_json(_expect(doc, "param", "parametrized morphism")),
        ps_object_from_json(_expect(doc, "src", "parametrized morphism")),
        ps_object_from_json(_expect(doc, "dst", "parametrized morphism")),
        ps_morphism_from_json(_expect(doc, "body", "parametrized morphism")),
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
        "channel": [[format_rat(e) for e in row] for row in m.channel.rows],
    }


def model_from_json(doc: dict) -> Model:
    params = space_from_json(_expect(doc, "params", "model"))
    input_space = space_from_json(_expect(doc, "input", "model"))
    output_space = space_from_json(_expect(doc, "output", "model"))
    rows = _expect(doc, "channel", "model")
    channel = Kernel(
        product(params, input_space),
        output_space,
        tuple(tuple(parse_rat(e) for e in row) for row in rows),
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
    reader = csv.reader(io.StringIO(text))
    try:
        header = next(reader)
    except StopIteration:
        raise ValueError("training CSV is empty, expected an 'x,y' header") from None
    if [h.strip() for h in header] != ["x", "y"]:
        raise ValueError(f"training CSV header must be 'x,y', got {header!r}")
    pairs = []
    for line, row in enumerate(reader, start=2):
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
        lines.append("\t".join([str(i), *(format_rat(p) for p in st.probs)]))
    return "\n".join(lines) + "\n"


def gauss_posterior_to_json(post: GaussPosterior) -> dict:
    return {"mean": post.mean.tolist(), "cov": post.cov.tolist()}


def gauss_posterior_from_json(doc: dict) -> GaussPosterior:
    return GaussPosterior(
        np.asarray(_expect(doc, "mean", "posterior"), dtype=float),
        np.asarray(_expect(doc, "cov", "posterior"), dtype=float),
    )


def regression_data_to_csv(data: RegressionData) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf)
    dim = data.design.shape[1]
    writer.writerow([f"x{i + 1}" for i in range(dim)] + ["y"])
    for row, target in zip(data.design, data.targets):
        writer.writerow([repr(float(v)) for v in row] + [repr(float(target))])
    return buf.getvalue()


def regression_data_from_csv(text: str) -> RegressionData:
    reader = csv.reader(io.StringIO(text))
    try:
        header = [h.strip() for h in next(reader)]
    except StopIteration:
        raise ValueError("regression CSV is empty") from None
    dim = len(header) - 1
    if dim < 1 or header[-1] != "y" or header[:-1] != [f"x{i + 1}" for i in range(dim)]:
        raise ValueError(
            f"regression CSV header must be 'x1,...,xn,y', got {header!r}"
        )
    rows, targets, lines = [], [], []
    for line, row in enumerate(reader, start=2):
        if not row:
            continue
        if len(row) != dim + 1:
            raise ValueError(
                f"regression CSV line {line}: expected {dim + 1} fields"
            )
        try:
            values = [float(v) for v in row]
        except ValueError:
            raise ValueError(f"regression CSV line {line}: non-numeric field") from None
        rows.append(values[:-1])
        targets.append(values[-1])
        lines.append(line)
    design = np.asarray(rows, dtype=float).reshape(-1, dim)
    targets = np.asarray(targets, dtype=float)
    finite = np.isfinite(design).all(axis=1) & np.isfinite(targets)
    if not finite.all():
        line = lines[int(np.argmin(finite))]
        raise ValueError(f"regression CSV line {line}: non-finite field")
    return RegressionData(design, targets)
