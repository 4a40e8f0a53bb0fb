"""Seeded law suites over random instances.

Each suite replays a named family of identities over ``cases`` random
instances derived deterministically from a seed, and reports every case
that fails together with the per-case seed and a serialized instance, so a
violation can be replayed in isolation.  The command line ``check``
subcommand and the acceptance tests both run these.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field

import numpy as np

from . import serialize
from .conditioning import (
    as_equal,
    canonicalize,
    condition,
    disintegrate,
    invert,
    is_uniquely_invertible_at,
    jointify,
    support,
)
from .finstoch import (
    Kernel,
    associator_inv,
    compose,
    copy,
    discard,
    identity,
    interchanger,
    left_unitor,
    product,
    right_unitor,
    right_unitor_inv,
    state,
    swap,
    tensor,
    uniform_row,
)
from .gauss import (
    GaussPosterior,
    RegressionData,
    fit_posterior,
    gauss_batch,
    gauss_sequential,
    map_estimate,
    predictive_density,
)
from .learning import (
    Model,
    batch_update,
    batch_update_factorized,
    batch_update_literal,
    joint_channel,
    sequential_update,
)
from .paralens import (
    ParaMorphism,
    bayes_learn,
    bayes_lens,
    lens_compose,
    lens_embed,
    lens_identity,
    lens_reparametrize,
    para_compose,
    para_embed,
    para_lens_compose,
    reparametrize,
)
from .ps import PSMorphism, dagger, ps_compose, ps_identity, ps_induced, ps_tensor
from .sampling import (
    rand_dist,
    rand_kernel,
    rand_model,
    rand_observations,
    rand_para_morphism,
    rand_ps_morphism,
    rand_ps_object,
    rand_space,
    rand_state,
)

_CASE_STRIDE = 1_000_003


@dataclass
class SuiteFailure:
    suite: str
    case: int
    case_seed: int
    message: str
    instance: dict | None = None


@dataclass
class SuiteReport:
    suite: str
    cases: int
    seed: int
    failures: list[SuiteFailure] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures


def case_seed(seed: int, index: int) -> int:
    return seed * _CASE_STRIDE + index


class _CheckFailed(AssertionError):
    pass


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise _CheckFailed(message)


def _run(name: str, cases: int, seed: int, body, describe) -> SuiteReport:
    """Run each case body; record every mismatch or error with its instance."""
    report = SuiteReport(suite=name, cases=cases, seed=seed)
    for index in range(cases):
        cs = case_seed(seed, index)
        try:
            body(random.Random(cs))
        except Exception as exc:
            # any error in a case is a finding about that case; the rest of
            # the suite still runs
            if isinstance(exc, _CheckFailed):
                message = str(exc)
            else:
                message = f"unexpected error: {exc!r}"
            report.failures.append(
                SuiteFailure(
                    suite=name,
                    case=index,
                    case_seed=cs,
                    message=message,
                    instance=describe(random.Random(cs)),
                )
            )
    return report


# -- markov: monoidal category structure with copy and discard --------------


def _markov_instance(rng: random.Random):
    x = rand_space(rng, "X", 4)
    y = rand_space(rng, "Y", 4)
    z = rand_space(rng, "Z", 4)
    w = rand_space(rng, "W", 4)
    f = rand_kernel(rng, x, y)
    g = rand_kernel(rng, y, z)
    h = rand_kernel(rng, z, w)
    return f, g, h


def _markov_case(rng: random.Random) -> None:
    f, g, h = _markov_instance(rng)
    x, y = f.source, f.target

    _require(
        compose(compose(f, g), h) == compose(f, compose(g, h)),
        "composition is not associative",
    )
    _require(
        compose(identity(x), f) == f and compose(f, identity(y)) == f,
        "identity is not a unit for composition",
    )
    _require(compose(f, discard(y)) == discard(x), "discard is not terminal")

    _require(
        compose(copy(x), tensor(copy(x), identity(x)))
        == compose(
            copy(x),
            compose(tensor(identity(x), copy(x)), associator_inv(x, x, x)),
        ),
        "copy is not coassociative",
    )
    _require(
        compose(copy(x), compose(tensor(discard(x), identity(x)), left_unitor(x)))
        == identity(x),
        "discarding the left copy does not give the identity",
    )
    _require(
        compose(copy(x), compose(tensor(identity(x), discard(x)), right_unitor(x)))
        == identity(x),
        "discarding the right copy does not give the identity",
    )
    _require(
        compose(copy(x), swap(x, x)) == copy(x), "copy is not cocommutative"
    )

    x1 = rand_space(rng, "A", 3)
    y1 = rand_space(rng, "B", 3)
    z1 = rand_space(rng, "C", 3)
    x2 = rand_space(rng, "D", 3)
    y2 = rand_space(rng, "E", 3)
    z2 = rand_space(rng, "F", 3)
    f1, g1 = rand_kernel(rng, x1, y1), rand_kernel(rng, y1, z1)
    f2, g2 = rand_kernel(rng, x2, y2), rand_kernel(rng, y2, z2)
    _require(
        tensor(compose(f1, g1), compose(f2, g2))
        == compose(tensor(f1, f2), tensor(g1, g2)),
        "tensor and composition do not interchange",
    )
    _require(
        compose(tensor(f1, f2), swap(y1, y2))
        == compose(swap(x1, x2), tensor(f2, f1)),
        "swap is not natural",
    )
    _require(
        compose(swap(x1, x2), swap(x2, x1)) == identity(product(x1, x2)),
        "swap is not an involution",
    )

    p = rand_space(rng, "P", 3)
    q = rand_space(rng, "Q", 3)
    _require(
        copy(product(p, q))
        == compose(tensor(copy(p), copy(q)), interchanger(p, p, q, q)),
        "copying a pair differs from pairing the copies",
    )

    _require(
        compose(tensor(f1, discard(x2)), right_unitor(y1))
        == compose(
            tensor(identity(x1), discard(x2)), compose(right_unitor(x1), f1)
        ),
        "discarding a tensor factor does not commute with the kernel",
    )

    pi = rand_state(rng, x)
    g = rand_kernel(rng, x, y)
    on_support = support(pi).members
    rowwise = all(
        f.rows[i] == g.rows[i]
        for i, label in enumerate(x.elements)
        if label in on_support
    )
    _require(
        as_equal(f, g, pi) == rowwise,
        "the agreement diagram disagrees with rowwise comparison on the support",
    )
    patched = Kernel(
        x,
        y,
        tuple(
            f.rows[i] if label in on_support else uniform_row(len(y))
            for i, label in enumerate(x.elements)
        ),
    )
    _require(
        as_equal(f, patched, pi),
        "changing rows off the support breaks agreement",
    )


def _markov_describe(rng: random.Random) -> dict:
    f, g, h = _markov_instance(rng)
    return {
        "x": serialize.space_to_json(f.source),
        "y": serialize.space_to_json(f.target),
        "f": serialize.kernel_to_json(f),
        "g": serialize.kernel_to_json(g),
        "h": serialize.kernel_to_json(h),
    }


def suite_markov(cases: int, seed: int) -> SuiteReport:
    return _run("markov", cases, seed, _markov_case, _markov_describe)


# -- inversion: jointification, disintegration, Bayesian inversion ----------


def _inversion_case(rng: random.Random) -> None:
    x = rand_space(rng, "X", 4)
    y = rand_space(rng, "Y", 4)
    pi = rand_state(rng, x)
    f = rand_kernel(rng, x, y)
    push = compose(pi, f)
    inv = invert(f, pi)

    _require(
        jointify(pi, f) == compose(jointify(push, inv), swap(y, x)),
        "inverse does not satisfy the joint-state equation",
    )

    d = disintegrate(jointify(pi, f))
    _require(d.marginal == pi, "disintegration marginal is not the state")
    _require(
        as_equal(d.channel, f, pi),
        "disintegration channel differs on the support",
    )

    omega = rand_state(rng, product(x, y))
    dd = disintegrate(omega)
    _require(
        jointify(dd.marginal, dd.channel) == omega,
        "jointify does not rebuild the disintegrated state",
    )

    _require(
        as_equal(invert(inv, push), f, pi),
        "inverting twice does not come back almost surely",
    )

    canon = canonicalize(f, pi)
    _require(
        canonicalize(canon, pi) == canon and as_equal(canon, f, pi),
        "canonicalization is not an almost-sure idempotent",
    )

    sup = support(push)
    for label in y.elements:
        _require(
            is_uniquely_invertible_at(f, pi, label) == (label in sup.members),
            "unique invertibility disagrees with the pushforward support",
        )

    a = rand_space(rng, "A", 3)
    s = rand_kernel(rng, a, product(x, y))
    t = condition(s)
    for ai, row in enumerate(s.rows):
        marg = disintegrate(state(s.target, row)).marginal
        for xi in range(len(x)):
            for yi in range(len(y)):
                got = marg.probs[xi] * t.rows[xi * len(a) + ai][yi]
                _require(
                    got == row[xi * len(y) + yi],
                    "conditional does not rebuild the joint rows",
                )


def _inversion_describe(rng: random.Random) -> dict:
    x = rand_space(rng, "X", 4)
    y = rand_space(rng, "Y", 4)
    return {
        "state": serialize.kernel_to_json(rand_state(rng, x)),
        "kernel": serialize.kernel_to_json(rand_kernel(rng, x, y)),
    }


def suite_inversion(cases: int, seed: int) -> SuiteReport:
    return _run("inversion", cases, seed, _inversion_case, _inversion_describe)


# -- dagger: inversion as an identity-on-objects involution -----------------


def _dagger_instance(rng: random.Random):
    src = rand_ps_object(rng, "X", 4)
    f = rand_ps_morphism(rng, src, "Y", 4)
    g = rand_ps_morphism(rng, f.dst, "Z", 4)
    return f, g


def _dagger_case(rng: random.Random) -> None:
    f, g = _dagger_instance(rng)

    _require(dagger(dagger(f)) == f, "double inversion is not the identity")
    _require(
        dagger(ps_compose(f, g)) == ps_compose(dagger(g), dagger(f)),
        "inversion does not reverse composition",
    )
    _require(
        dagger(ps_identity(f.src)) == ps_identity(f.src),
        "inversion does not fix identities",
    )

    other_src = rand_ps_object(rng, "U", 3)
    h = rand_ps_morphism(rng, other_src, "V", 3)
    _require(
        dagger(ps_tensor(f, h)) == ps_tensor(dagger(f), dagger(h)),
        "inversion does not respect the product of morphisms",
    )

    sup = support(f.src.state)
    perturbed_rows = [
        row if label in sup.members else tuple(rand_dist(rng, len(f.dst.space)))
        for label, row in zip(f.src.space.elements, f.rep.rows)
    ]
    perturbed = PSMorphism(
        f.src, f.dst, Kernel(f.src.space, f.dst.space, tuple(perturbed_rows))
    )
    _require(
        perturbed == f and dagger(perturbed) == dagger(f),
        "morphisms differing off the support are not identified",
    )


def _dagger_describe(rng: random.Random) -> dict:
    f, g = _dagger_instance(rng)
    return {
        "f": serialize.ps_morphism_to_json(f),
        "g": serialize.ps_morphism_to_json(g),
    }


def suite_dagger(cases: int, seed: int) -> SuiteReport:
    return _run("dagger", cases, seed, _dagger_case, _dagger_describe)


# -- functor: lenses and learners respect composition -----------------------


def _functor_instance(rng: random.Random):
    src = rand_ps_object(rng, "X", 3)
    reparam_src = rand_ps_object(rng, "O", 3)
    alpha = rand_ps_morphism(rng, reparam_src, "P", 3)
    paired = ps_tensor(alpha.dst, src)
    body = ps_induced(
        paired, rand_kernel(rng, paired.space, rand_space(rng, "Y", 3))
    )
    f = ParaMorphism(alpha.dst, src, body.dst, body)
    g = rand_para_morphism(rng, f.dst, "Q", "Z", 3)
    return f, g, alpha


def _functor_case(rng: random.Random) -> None:
    f, g, alpha = _functor_instance(rng)

    a = f.body
    b = ps_induced(a.dst, rand_kernel(rng, a.dst.space, rand_space(rng, "W", 3)))
    _require(
        bayes_lens(ps_compose(a, b))
        == lens_compose(bayes_lens(a), bayes_lens(b)),
        "lens construction does not respect composition",
    )
    _require(
        bayes_lens(ps_identity(a.src)) == lens_identity(a.src),
        "lens construction does not respect identities",
    )

    _require(
        bayes_learn(para_compose(f, g))
        == para_lens_compose(bayes_learn(f), bayes_learn(g)),
        "learner construction does not respect composition",
    )

    _require(
        bayes_learn(reparametrize(f, alpha))
        == lens_reparametrize(bayes_learn(f), alpha),
        "learner construction does not commute with reparametrization",
    )

    plain = rand_ps_morphism(rng, rand_ps_object(rng, "S", 3), "T", 3)
    _require(
        bayes_learn(para_embed(plain)) == lens_embed(bayes_lens(plain)),
        "embedding a plain morphism does not commute with learning",
    )


def _functor_describe(rng: random.Random) -> dict:
    f, g, alpha = _functor_instance(rng)
    return {
        "f": serialize.para_to_json(f),
        "g": serialize.para_to_json(g),
        "alpha": serialize.ps_morphism_to_json(alpha),
    }


def suite_functor(cases: int, seed: int) -> SuiteReport:
    return _run("functor", cases, seed, _functor_case, _functor_describe)


# -- coincidence: sequential and batch updates agree ------------------------


def _coincidence_instance(rng: random.Random):
    model = rand_model(rng, 4, 4, 4)
    data = rand_observations(rng, model, rng.randint(0, 5))
    return model, data


def _joint_channel_diagram(model: Model):
    """The joint observation channel built as the paper draws it.

    Introduce the input state beside the parameter, duplicate the input,
    run the model on one copy, and swap so the input coordinate comes first.
    """
    m, x = model.params, model.input_space
    intro = compose(
        right_unitor_inv(m), tensor(identity(m), model.input_state)
    )
    dup = compose(
        tensor(identity(m), copy(x)), associator_inv(m, x, x)
    )
    run = tensor(model.channel, identity(x))
    return compose(
        intro, compose(dup, compose(run, swap(model.output_space, x)))
    )


def _coincidence_case(rng: random.Random) -> None:
    model, data = _coincidence_instance(rng)
    _require(
        joint_channel(model) == _joint_channel_diagram(model),
        "the joint observation channel differs from its diagram",
    )
    trace = sequential_update(model, data)
    _require(len(trace) == len(data) + 1, "trace length is off")
    _require(trace.states[0] == model.prior, "trace does not start at the prior")
    _require(
        trace.final == batch_update(model, data),
        "sequential and batch posteriors differ",
    )


def _model_data_json(model: Model, data) -> dict:
    return {
        "model": serialize.model_to_json(model),
        "data": [list(pair) for pair in data],
    }


def _coincidence_describe(rng: random.Random) -> dict:
    return _model_data_json(*_coincidence_instance(rng))


def suite_coincidence(cases: int, seed: int) -> SuiteReport:
    return _run(
        "coincidence", cases, seed, _coincidence_case, _coincidence_describe
    )


# -- zn: both batch routes agree wherever both run --------------------------

_SMALL_OBSERVATION_SHAPES = ((1, 1), (1, 2), (2, 1), (1, 3), (3, 1))


def _zn_instance(rng: random.Random):
    nx, ny = rng.choice(_SMALL_OBSERVATION_SHAPES)
    model = rand_model(rng, 3, nx, ny)
    while len(model.input_space) != nx or len(model.output_space) != ny:
        model = rand_model(rng, 3, nx, ny)
    data = rand_observations(rng, model, rng.randint(0, 4))
    return model, data


def _zn_case(rng: random.Random) -> None:
    model, data = _zn_instance(rng)
    literal = batch_update_literal(model, data)
    factorized = batch_update_factorized(model, data)
    _require(
        literal == factorized,
        "replicated-space and likelihood-product posteriors differ",
    )


def _zn_describe(rng: random.Random) -> dict:
    return _model_data_json(*_zn_instance(rng))


def suite_zn(cases: int, seed: int) -> SuiteReport:
    return _run("zn", cases, seed, _zn_case, _zn_describe)


# -- roundtrip: serialized values parse back to equal values ----------------


def _roundtrip_case(rng: random.Random) -> None:
    x = rand_space(rng, "X", 4)
    y = rand_space(rng, "Y", 4)
    f = rand_kernel(rng, x, y)
    doc = json.loads(json.dumps(serialize.kernel_to_json(f)))
    _require(serialize.kernel_from_json(doc) == f, "kernel does not round trip")

    joint = rand_state(rng, product(x, y))
    doc = json.loads(json.dumps(serialize.kernel_to_json(joint)))
    back = serialize.kernel_from_json(doc)
    _require(back == joint, "joint state does not round trip")
    _require(
        back.target.factors is not None,
        "product structure is lost in a round trip",
    )

    pi = rand_state(rng, x)
    mapped = json.loads(json.dumps(serialize.state_to_map(pi)))
    _require(
        serialize.state_from_map(x, mapped) == pi,
        "state map does not round trip",
    )

    model, data = _coincidence_instance(rng)
    doc = json.loads(json.dumps(serialize.model_to_json(model)))
    _require(serialize.model_from_json(doc) == model, "model does not round trip")
    _require(
        serialize.training_set_from_csv(serialize.training_set_to_csv(data))
        == data,
        "training set does not round trip",
    )

    src = rand_ps_object(rng, "U", 3)
    m = rand_ps_morphism(rng, src, "V", 3)
    doc = json.loads(json.dumps(serialize.ps_morphism_to_json(m)))
    _require(
        serialize.ps_morphism_from_json(doc) == m,
        "state-preserving morphism does not round trip",
    )
    lens = bayes_lens(m)
    doc = json.loads(json.dumps(serialize.lens_to_json(lens)))
    _require(serialize.lens_from_json(doc) == lens, "lens does not round trip")

    rng_np = np.random.default_rng(rng.randrange(2**32))
    reg = RegressionData(rng_np.normal(size=(5, 2)), rng_np.normal(size=5))
    back = serialize.regression_data_from_csv(
        serialize.regression_data_to_csv(reg)
    )
    _require(
        np.array_equal(back.design, reg.design)
        and np.array_equal(back.targets, reg.targets),
        "regression data does not round trip bit-exactly",
    )


def _roundtrip_describe(rng: random.Random) -> dict:
    x = rand_space(rng, "X", 4)
    y = rand_space(rng, "Y", 4)
    return {"kernel": serialize.kernel_to_json(rand_kernel(rng, x, y))}


def suite_roundtrip(cases: int, seed: int) -> SuiteReport:
    return _run("roundtrip", cases, seed, _roundtrip_case, _roundtrip_describe)


# -- gauss: conjugate regression identities ---------------------------------


def _gauss_case(rng: random.Random) -> None:
    rng_np = np.random.default_rng(rng.randrange(2**32))
    dim = rng.randint(1, 3)
    n_obs = rng.randint(dim + 2, 30)
    design = rng_np.normal(size=(n_obs, dim))
    beta = rng_np.normal(size=dim) * 3
    sigma = 0.3 + 2 * rng_np.random()
    targets = design @ beta + sigma * rng_np.normal(size=n_obs)
    data = RegressionData(design, targets)

    flat = fit_posterior(data, sigma)
    ols, *_ = np.linalg.lstsq(design, targets, rcond=None)
    _require(
        float(np.max(np.abs(map_estimate(flat) - ols))) < 1e-9,
        "flat-prior mode is not the least-squares solution",
    )

    spread = rng_np.normal(size=(dim, dim))
    prior = GaussPosterior(
        rng_np.normal(size=dim), spread @ spread.T + 0.5 * np.eye(dim)
    )
    seq = gauss_sequential(data, sigma, prior)
    bat = gauss_batch(data, sigma, prior)
    _require(
        float(np.max(np.abs(seq.mean - bat.mean))) < 1e-9
        and float(np.max(np.abs(seq.cov - bat.cov))) < 1e-9,
        "one-at-a-time and all-at-once updates differ",
    )

    cut = rng.randint(1, n_obs - 1)
    first = RegressionData(design[:cut], targets[:cut])
    second = RegressionData(design[cut:], targets[cut:])
    staged = gauss_batch(second, sigma, gauss_batch(first, sigma, prior))
    _require(
        float(np.max(np.abs(staged.mean - bat.mean))) < 1e-9
        and float(np.max(np.abs(staged.cov - bat.cov))) < 1e-9,
        "updating in two stages differs from one batch",
    )

    running = prior
    for k in range(min(5, n_obs)):
        step = gauss_sequential(
            RegressionData(design[k : k + 1], targets[k : k + 1]),
            sigma,
            running,
        )
        shrink = np.linalg.eigvalsh(running.cov - step.cov)
        _require(
            float(np.min(shrink)) > -1e-9,
            "posterior covariance grew after an observation",
        )
        running = step

    x_star = rng_np.normal(size=dim)
    _, var = predictive_density(bat, x_star, sigma)
    _require(
        var >= sigma * sigma - 1e-12,
        "predictive variance fell below the noise floor",
    )


def _gauss_describe(rng: random.Random) -> dict:
    return {"numpy_seed": rng.randrange(2**32)}


def suite_gauss(cases: int, seed: int) -> SuiteReport:
    return _run("gauss", cases, seed, _gauss_case, _gauss_describe)


SUITES = {
    "markov": suite_markov,
    "inversion": suite_inversion,
    "dagger": suite_dagger,
    "functor": suite_functor,
    "coincidence": suite_coincidence,
    "zn": suite_zn,
    "roundtrip": suite_roundtrip,
    "gauss": suite_gauss,
}


def run_suite(name: str, cases: int, seed: int) -> SuiteReport:
    if name not in SUITES:
        raise ValueError(
            f"unknown suite {name!r}; available: {', '.join(sorted(SUITES))}"
        )
    return SUITES[name](cases, seed)
