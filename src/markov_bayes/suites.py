"""Seeded law suites over random instances.

Each suite replays a named family of identities over ``cases`` random
instances derived deterministically from a seed.  A suite is a pair: a
``draw`` that makes every random choice of a case and returns the instance
as a dict, and a ``check`` that takes that dict as keyword arguments and
only computes and compares.  Every case that fails is reported with its
per-case seed and every value its check received, serialized, so a
violation can be replayed in isolation; records are written and read back
through the one codec table ``_CODECS``.  When drawing or writing the
instance failed, the instance is ``None``.  The command line ``check``
subcommand and the acceptance tests both run these.  The ``gauss`` and
``roundtrip`` checks import numpy and the float backend when they run, so
the exact suites never load them.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field

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
    FinSpace,
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
from .learning import (
    Model,
    TrainingSet,
    batch_update,
    batch_update_factorized,
    batch_update_literal,
    joint_channel,
    sequential_update,
)
from .paralens import (
    LensMorphism,
    ParaMorphism,
    bayes_learn,
    bayes_lens,
    lens_compose,
    lens_identity,
    para_compose,
    para_embed,
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


#: Each value type a suite's draw returns, with its law name in the
#: ``roundtrip`` suite and its JSON writer and reader.  Failure records are
#: written with the writer and read back with the reader; a training set is
#: written as the training CSV text ``learn`` reads.
_CODECS = {
    int: ("integer", lambda n: n, lambda n: n),
    FinSpace: ("space", serialize.space_to_json, serialize.space_from_json),
    Kernel: ("kernel", serialize.kernel_to_json, serialize.kernel_from_json),
    PSMorphism: (
        "state-preserving morphism",
        serialize.ps_morphism_to_json,
        serialize.ps_morphism_from_json,
    ),
    LensMorphism: ("lens", serialize.lens_to_json, serialize.lens_from_json),
    ParaMorphism: (
        "parametrized morphism", serialize.para_to_json, serialize.para_from_json
    ),
    Model: ("model", serialize.model_to_json, serialize.model_from_json),
    TrainingSet: (
        "training set",
        serialize.training_set_to_csv,
        serialize.training_set_from_csv,
    ),
}


def _run(name: str, cases: int, seed: int, draw, check) -> SuiteReport:
    """Draw and check each case; record every mismatch or error with its instance."""
    report = SuiteReport(suite=name, cases=cases, seed=seed)
    for index in range(cases):
        cs = case_seed(seed, index)
        instance = None
        try:
            instance = draw(random.Random(cs))
            check(**instance)
        except Exception as exc:
            # any error in a case is a finding about that case; the rest of
            # the suite still runs
            if isinstance(exc, _CheckFailed):
                message = str(exc)
            else:
                message = f"unexpected error: {exc!r}"
            if instance is not None:
                try:
                    instance = {
                        key: _CODECS[type(value)][1](value)
                        for key, value in instance.items()
                    }
                except Exception as write_error:
                    instance = None
                    message += f"; writing the instance failed: {write_error!r}"
            report.failures.append(
                SuiteFailure(
                    suite=name,
                    case=index,
                    case_seed=cs,
                    message=message,
                    instance=instance,
                )
            )
    return report


# -- markov: monoidal category structure with copy and discard --------------


def _markov_draw(rng: random.Random) -> dict:
    x, y, z, w = (rand_space(rng, name, 4) for name in "XYZW")
    f, g, h = rand_kernel(rng, x, y), rand_kernel(rng, y, z), rand_kernel(rng, z, w)
    x1, y1, z1, x2, y2, z2 = (rand_space(rng, name, 3) for name in "ABCDEF")
    return {
        "f": f,
        "g": g,
        "h": h,
        "f1": rand_kernel(rng, x1, y1),
        "g1": rand_kernel(rng, y1, z1),
        "f2": rand_kernel(rng, x2, y2),
        "g2": rand_kernel(rng, y2, z2),
        "p": rand_space(rng, "P", 3),
        "q": rand_space(rng, "Q", 3),
        "pi": rand_state(rng, x),
        "k": rand_kernel(rng, x, y),
    }


def _markov_check(f, g, h, f1, g1, f2, g2, p, q, pi, k) -> None:
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

    x1, y1 = f1.source, f1.target
    x2, y2 = f2.source, f2.target
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

    on_support = support(pi).members
    rowwise = all(
        f.rows[i] == k.rows[i]
        for i, label in enumerate(x.elements)
        if label in on_support
    )
    _require(
        as_equal(f, k, pi) == rowwise,
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


# -- inversion: jointification, disintegration, Bayesian inversion ----------


def _inversion_draw(rng: random.Random) -> dict:
    x = rand_space(rng, "X", 4)
    y = rand_space(rng, "Y", 4)
    return {
        "pi": rand_state(rng, x),
        "f": rand_kernel(rng, x, y),
        "omega": rand_state(rng, product(x, y)),
        "s": rand_kernel(rng, rand_space(rng, "A", 3), product(x, y)),
    }


def _inversion_check(pi, f, omega, s) -> None:
    x, y = f.source, f.target
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

    a = s.source
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


# -- dagger: inversion as an identity-on-objects involution -----------------


def _dagger_draw(rng: random.Random) -> dict:
    f = rand_ps_morphism(rng, rand_ps_object(rng, "X", 4), "Y", 4)
    g = rand_ps_morphism(rng, f.dst, "Z", 4)
    h = rand_ps_morphism(rng, rand_ps_object(rng, "U", 3), "V", 3)
    # f's representative with every row off the source support redrawn
    sup = support(f.src.state)
    perturbed = Kernel(
        f.src.space,
        f.dst.space,
        tuple(
            row if label in sup.members else rand_dist(rng, len(f.dst.space))
            for label, row in zip(f.src.space.elements, f.rep.rows)
        ),
    )
    return {"f": f, "g": g, "h": h, "perturbed": perturbed}


def _dagger_check(f, g, h, perturbed) -> None:
    _require(dagger(dagger(f)) == f, "double inversion is not the identity")
    _require(
        dagger(ps_compose(f, g)) == ps_compose(dagger(g), dagger(f)),
        "inversion does not reverse composition",
    )
    _require(
        dagger(ps_identity(f.src)) == ps_identity(f.src),
        "inversion does not fix identities",
    )

    _require(
        dagger(ps_tensor(f, h)) == ps_tensor(dagger(f), dagger(h)),
        "inversion does not respect the product of morphisms",
    )

    moved = PSMorphism(f.src, f.dst, perturbed)
    _require(
        moved == f and dagger(moved) == dagger(f),
        "morphisms differing off the support are not identified",
    )


# -- functor: lenses and learners respect composition -----------------------


def _functor_draw(rng: random.Random) -> dict:
    src = rand_ps_object(rng, "X", 3)
    alpha = rand_ps_morphism(rng, rand_ps_object(rng, "O", 3), "P", 3)
    paired = ps_tensor(alpha.dst, src)
    body = ps_induced(
        paired, rand_kernel(rng, paired.space, rand_space(rng, "Y", 3))
    )
    f = ParaMorphism(alpha.dst, src, body.dst, body)
    return {
        "f": f,
        "g": rand_para_morphism(rng, f.dst, "Q", "Z"),
        "alpha": alpha,
        "b": ps_induced(
            body.dst,
            rand_kernel(rng, body.dst.space, rand_space(rng, "W", 3)),
        ),
        "plain": rand_ps_morphism(rng, rand_ps_object(rng, "S", 3), "T", 3),
    }


def _functor_check(f, g, alpha, b, plain) -> None:
    a = f.body
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
        == para_compose(bayes_learn(f), bayes_learn(g)),
        "learner construction does not respect composition",
    )

    _require(
        bayes_learn(reparametrize(f, alpha))
        == reparametrize(bayes_learn(f), alpha),
        "learner construction does not commute with reparametrization",
    )

    _require(
        bayes_learn(para_embed(plain)) == para_embed(bayes_lens(plain)),
        "embedding a plain morphism does not commute with learning",
    )


# -- coincidence: sequential and batch updates agree ------------------------


def _coincidence_draw(rng: random.Random) -> dict:
    model = rand_model(rng, 4, 4, 4)
    return {
        "model": model,
        "data": rand_observations(rng, model, rng.randint(0, 5)),
    }


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


def _coincidence_check(model, data) -> None:
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


# -- zn: both batch routes agree wherever both run --------------------------

_SMALL_OBSERVATION_SHAPES = ((1, 1), (1, 2), (2, 1), (1, 3), (3, 1))


def _zn_draw(rng: random.Random) -> dict:
    nx, ny = rng.choice(_SMALL_OBSERVATION_SHAPES)
    model = rand_model(rng, 3, nx, ny)
    while len(model.input_space) != nx or len(model.output_space) != ny:
        model = rand_model(rng, 3, nx, ny)
    return {
        "model": model,
        "data": rand_observations(rng, model, rng.randint(0, 4)),
    }


def _zn_check(model, data) -> None:
    literal = batch_update_literal(model, data)
    factorized = batch_update_factorized(model, data)
    _require(
        literal == factorized,
        "replicated-space and likelihood-product posteriors differ",
    )


# -- roundtrip: serialized values parse back to equal values ----------------


def _roundtrip_draw(rng: random.Random) -> dict:
    x = rand_space(rng, "X", 4)
    y = rand_space(rng, "Y", 4)
    instance = {
        "f": rand_kernel(rng, x, y),
        "joint": rand_state(rng, product(x, y)),
        "pi": rand_state(rng, x),
        **_coincidence_draw(rng),
        "m": rand_ps_morphism(rng, rand_ps_object(rng, "U", 3), "V", 3),
        "numpy_seed": rng.randrange(2**32),
    }
    instance["lens"] = bayes_lens(instance["m"])
    return instance


def _roundtrip_check(f, joint, pi, model, data, m, numpy_seed, lens) -> None:
    # first, since the model's writer writes its states through state_to_map
    mapped = json.loads(json.dumps(serialize.state_to_map(pi)))
    _require(
        serialize.state_from_map(pi.target, mapped) == pi,
        "state map does not round trip",
    )

    for value in (f, joint, pi, model, data, m, lens, numpy_seed):
        name, to_json, from_json = _CODECS[type(value)]
        back = from_json(json.loads(json.dumps(to_json(value))))
        _require(back == value, f"{name} does not round trip")
        if value is joint:
            _require(
                back.target.factors is not None,
                "product structure is lost in a round trip",
            )

    import numpy as np

    from .gauss import RegressionData

    rng_np = np.random.default_rng(numpy_seed)
    reg = RegressionData(rng_np.normal(size=(5, 2)), rng_np.normal(size=5))
    back = serialize.regression_data_from_csv(
        serialize.regression_data_to_csv(reg)
    )
    _require(
        np.array_equal(back.design, reg.design)
        and np.array_equal(back.targets, reg.targets),
        "regression data does not round trip bit-exactly",
    )


# -- gauss: conjugate regression identities ---------------------------------


def _gauss_draw(rng: random.Random) -> dict:
    # the float data come from numpy_seed inside the check; only these
    # shape choices are made with the case generator
    numpy_seed = rng.randrange(2**32)
    dim = rng.randint(1, 3)
    n_obs = rng.randint(dim + 2, 30)
    return {
        "numpy_seed": numpy_seed,
        "dim": dim,
        "n_obs": n_obs,
        "cut": rng.randint(1, n_obs - 1),
    }


def _gauss_check(numpy_seed, dim, n_obs, cut) -> None:
    import numpy as np

    from .gauss import (
        GaussPosterior,
        RegressionData,
        fit_posterior,
        gauss_batch,
        gauss_sequential,
        map_estimate,
        predictive_density,
    )

    rng_np = np.random.default_rng(numpy_seed)
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


#: Each suite's ``(draw, check)`` pair.
SUITES = {
    "markov": (_markov_draw, _markov_check),
    "inversion": (_inversion_draw, _inversion_check),
    "dagger": (_dagger_draw, _dagger_check),
    "functor": (_functor_draw, _functor_check),
    "coincidence": (_coincidence_draw, _coincidence_check),
    "zn": (_zn_draw, _zn_check),
    "roundtrip": (_roundtrip_draw, _roundtrip_check),
    "gauss": (_gauss_draw, _gauss_check),
}


def run_suite(name: str, cases: int, seed: int) -> SuiteReport:
    if name not in SUITES:
        raise ValueError(
            f"unknown suite {name!r}; available: {', '.join(sorted(SUITES))}"
        )
    return _run(name, cases, seed, *SUITES[name])
