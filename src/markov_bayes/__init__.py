"""Exact finite Markov kernels, Bayesian inversion, and lens-shaped learners."""

from .errors import (
    DimensionMismatch,
    MarkovBayesError,
    NotAProductSpace,
    NotStatePreserving,
    ObjectMismatch,
    RankDeficient,
    SpaceMismatch,
    UnknownLabel,
    ZeroLikelihoodBatch,
    ZeroLikelihoodObservation,
)
from .finstoch import (
    UNIT,
    FinSpace,
    Kernel,
    State,
    associator,
    associator_inv,
    compose,
    copy,
    delta,
    discard,
    format_rat,
    format_row,
    identity,
    interchanger,
    left_unitor,
    left_unitor_inv,
    pair_label,
    parse_rat,
    parse_row,
    product,
    relabel,
    right_unitor,
    right_unitor_inv,
    state,
    state_tensor,
    swap,
    tensor,
    uniform_row,
    uniform_state,
)
from .conditioning import (
    Disintegration,
    Support,
    as_equal,
    canonicalize,
    condition,
    disintegrate,
    invert,
    is_uniquely_invertible_at,
    jointify,
    support,
)
from .ps import (
    PS_UNIT,
    PSMorphism,
    PSObject,
    dagger,
    ps_associator,
    ps_associator_inv,
    ps_compose,
    ps_identity,
    ps_induced,
    ps_left_unitor,
    ps_left_unitor_inv,
    ps_right_unitor,
    ps_right_unitor_inv,
    ps_tensor,
)
from .paralens import (
    LensMorphism,
    ParaMorphism,
    bayes_learn,
    bayes_lens,
    lens_compose,
    lens_identity,
    lens_tensor,
    para_compose,
    para_embed,
    para_identity,
    reparametrize,
)
from .learning import (
    Model,
    PosteriorTrace,
    TrainingSet,
    batch_update,
    batch_update_factorized,
    batch_update_literal,
    joint_channel,
    observation_space,
    posterior_channel,
    predictive,
    replicated_joint_channel,
    sequential_update,
)
#: The float backend's names, served from :mod:`markov_bayes.gauss` on first
#: use so that importing the exact core never loads numpy.
_GAUSS_NAMES = (
    "GaussPosterior",
    "RegressionData",
    "fit_posterior",
    "gauss_batch",
    "gauss_sequential",
    "map_estimate",
    "predictive_density",
)

# a star import binds the gauss names and module too, and so loads numpy
__all__ = [name for name in dir() if not name.startswith("_")]
__all__ += ["gauss", *_GAUSS_NAMES]


def __getattr__(name: str):
    if name in _GAUSS_NAMES:
        from . import gauss

        return getattr(gauss, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
