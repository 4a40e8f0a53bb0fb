"""Conjugate Gaussian linear regression with known noise variance.

The continuous counterpart of the finite updaters: observing data moves a
Gaussian belief over regression weights to another Gaussian, whether the
points arrive one at a time or all at once.  Starting from the flat
(improper) prior, the posterior mean is exactly the least-squares solution.

Everything here is floating point.  Every posterior is carried as a mean
and a square-root factor ``S`` of its covariance, ``cov = S S^T``: the fit
and the batch update take the triangular factor of a QR of the stacked,
noise-scaled rows, and the sequential update moves ``S`` one row at a time
by Potter's square-root update.  No route forms the normal matrix.  Every
route refuses from the QR factor of its own stacked whitened rows, so the
two updates refuse the same ill-conditioned inputs.

numpy is the package's one dependency.  The exact layers import neither it
nor this module when they load, so no exact command pays for either.  The
triangular solves go through ``numpy.linalg``: an LU with partial pivoting
makes no row swap on the upper factor ``R``, which is zero below its
diagonal, so solving with it is back substitution.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch, RankDeficient

#: Ceiling on ``cond(S)**2``, the condition of the normal matrix, past which
#: every route refuses with :class:`RankDeficient`.
MAX_NORMAL_CONDITION = 1e12

_SYM_TOL = 1e-12


def _as_array(a, name: str, ndim: int) -> np.ndarray:
    try:
        a = np.asarray(a, dtype=float)
    except OverflowError:
        raise ValueError(f"{name} has an entry past the float range") from None
    if a.ndim != ndim:
        kind = "vector" if ndim == 1 else "matrix"
        raise DimensionMismatch(f"{name} must be a {kind}, got shape {a.shape}")
    return a


def _check_noise(sigma: float) -> float:
    sigma = float(sigma)
    if not 0 < sigma < math.inf:
        raise ValueError(f"noise scale must be positive and finite, got {sigma}")
    return sigma


@dataclass(eq=False)
class GaussPosterior:
    """A Gaussian belief over regression weights: mean vector and covariance.

    Every entry must be finite.  ``root`` is the lower Cholesky factor of
    ``cov``, the square root the updates start from.
    """

    mean: np.ndarray
    cov: np.ndarray
    root: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        self.mean = _as_array(self.mean, "mean", 1)
        self.cov = _as_array(self.cov, "cov", 2)
        n = self.mean.shape[0]
        if self.cov.shape != (n, n):
            raise DimensionMismatch(
                f"mean has dimension {n} but covariance has shape {self.cov.shape}"
            )
        if not (np.isfinite(self.mean).all() and np.isfinite(self.cov).all()):
            raise ValueError("posterior mean and covariance must be finite")
        if np.max(np.abs(self.cov - self.cov.T), initial=0.0) > _SYM_TOL * max(
            1.0, float(np.max(np.abs(self.cov)))
        ):
            raise ValueError("covariance is not symmetric")
        try:
            self.root = np.linalg.cholesky(self.cov)
        except np.linalg.LinAlgError:
            raise RankDeficient("covariance is not positive definite") from None


@dataclass(eq=False)
class RegressionData:
    """Observed inputs (rows of the design matrix) and scalar targets."""

    design: np.ndarray
    targets: np.ndarray

    def __post_init__(self):
        self.design = _as_array(self.design, "design", 2)
        self.targets = _as_array(self.targets, "targets", 1)
        if self.design.shape[0] != self.targets.shape[0]:
            raise DimensionMismatch(
                f"{self.design.shape[0]} input rows but "
                f"{self.targets.shape[0]} targets"
            )
        if self.design.shape[0] == 0:
            raise ValueError("need at least one observation")

    def __len__(self) -> int:
        return self.design.shape[0]


def _factor(data: RegressionData, sigma: float, prior: GaussPosterior | None = None):
    """The QR factor ``[R | z]`` of the rows ``[X | y] / sigma`` under the prior's
    rows ``[L^-1 | L^-1 mean]``, if any.  ``R`` inverts a covariance root, so
    every route refuses on ``cond(R)**2``, also when it cannot be computed."""
    dim = data.design.shape[1]
    rows = np.column_stack([data.design, data.targets]) / sigma
    if prior is not None:
        if dim != prior.mean.shape[0]:
            raise DimensionMismatch(f"data has dimension {dim}, prior has {prior.mean.shape[0]}")
        info = np.linalg.solve(prior.root, np.column_stack([np.eye(dim), prior.mean]))
        rows = np.vstack([info, rows])
    r = np.linalg.qr(rows, mode="r")
    try:
        cond = float(np.linalg.cond(r[:dim, :dim]))
    except np.linalg.LinAlgError:
        cond = math.nan
    if not cond * cond < MAX_NORMAL_CONDITION:
        cause = "" if np.isfinite(rows).all() else f" at noise scale {sigma:g}"
        raise RankDeficient(
            f"normal matrix condition {cond * cond:.3e} exceeds "
            f"{MAX_NORMAL_CONDITION:.0e}{cause}"
        )
    return r


def _posterior(mean: np.ndarray, root: np.ndarray, sigma: float) -> GaussPosterior:
    """The posterior with covariance ``root root^T``, refused if it left the
    float range: a non-finite entry, or a variance below the normal floats."""
    cov = root @ root.T
    if not (np.isfinite(mean).all() and np.isfinite(cov).all()):
        raise RankDeficient(
            f"the posterior at noise scale {sigma:g} overflows the float range"
        )
    if np.diagonal(cov).min() < np.finfo(float).tiny:
        raise RankDeficient(
            f"the posterior at noise scale {sigma:g} underflows the float range"
        )
    return GaussPosterior(mean=mean, cov=cov)


def _solve(r: np.ndarray, sigma: float) -> GaussPosterior:
    """The posterior of ``[R | z]``: its mean solves ``R w = z``, and ``S = R^-1``."""
    dim = r.shape[1] - 1
    solved = np.linalg.solve(r[:dim, :dim], np.column_stack([np.eye(dim), r[:dim, dim]]))
    return _posterior(solved[:, dim], solved[:, :dim], sigma)


def fit_posterior(data: RegressionData, sigma: float) -> GaussPosterior:
    """Posterior from the flat prior: its mean solves least squares exactly.

    Needs at least as many observations as weights and a well-conditioned
    design.
    """
    sigma = _check_noise(sigma)
    n_obs, dim = data.design.shape
    if n_obs < dim:
        raise RankDeficient(
            f"{n_obs} observations cannot determine {dim} weights"
        )
    return _solve(_factor(data, sigma), sigma)


def map_estimate(post: GaussPosterior) -> np.ndarray:
    """The mode of the posterior, which for a Gaussian is its mean."""
    return post.mean.copy()


def predictive_density(
    post: GaussPosterior, x_star, sigma: float
) -> tuple[float, float]:
    """Mean and variance of the output at ``x_star``, weights integrated out."""
    sigma = _check_noise(sigma)
    x_star = _as_array(x_star, "x_star", 1)
    if x_star.shape[0] != post.mean.shape[0]:
        raise DimensionMismatch(
            f"input has dimension {x_star.shape[0]}, "
            f"posterior has {post.mean.shape[0]}"
        )
    mean, var = float(x_star @ post.mean), float(x_star @ post.cov @ x_star + sigma * sigma)
    if not (math.isfinite(mean) and math.isfinite(var)):
        raise ValueError(f"the prediction at {x_star.tolist()}, sigma {sigma:g}, overflows")
    return mean, var


def gauss_sequential(
    data: RegressionData, sigma: float, prior: GaussPosterior
) -> GaussPosterior:
    """Fold the observations in one at a time with Potter's square-root update.

    Each row ``x`` with ``f = S^T x`` and ``a = 1 / (f.f + sigma^2)`` moves
    ``S`` to ``S - a / (1 + sqrt(a sigma^2)) (S f) f^T``, whose square is the
    conditioned covariance ``cov - a (cov x)(cov x)^T``, and the mean ``m``
    to ``m + a (y - x.m) S f``.  The guard runs once, on the batch route's
    factor of the same rows, and a result that left the float range is
    refused.

    A row costs four products of at most ``d x d``, so call overhead, not
    arithmetic, sets its time.  ``S`` and ``m`` are the rows of one
    ``(d+1) x d`` state, both C-contiguous.  A row's two moves are written
    into one step buffer of that shape, which is subtracted once, and
    ``S f`` goes into a column buffer that broadcasts against ``f``.  The
    products call ``ndarray.dot``, which dispatches faster than the ``@``
    gufunc.  ``x S`` and ``x.m`` stay two products: BLAS blocks a
    matrix-vector product by its width, so a fused ``x [S | m]`` can change
    the last bit of ``f``.
    """
    sigma = _check_noise(sigma)
    _factor(data, sigma, prior)
    var = sigma * sigma
    dim = prior.mean.shape[0]
    state = np.empty((dim + 1, dim))
    root, mean = state[:dim], state[dim]
    root[:] = prior.root
    mean[:] = prior.mean
    step = np.empty_like(state)
    outer, shift = step[:dim], step[dim]
    column = np.empty((dim, 1))
    gain = column[:, 0]
    for x, y in zip(data.design, data.targets.tolist()):
        f = x.dot(root)
        root.dot(f, out=gain)
        try:
            a = 1.0 / (float(f.dot(f)) + var)
        except ZeroDivisionError:  # a row predicted with no variance: cov underflowed
            root[:] = 0.0
            break
        np.multiply(gain, a * float(x.dot(mean) - y), out=shift)
        np.multiply(column, f, out=outer)
        outer *= a / (1.0 + math.sqrt(a * var))
        state -= step
    return _posterior(mean, root, sigma)


def gauss_batch(
    data: RegressionData, sigma: float, prior: GaussPosterior
) -> GaussPosterior:
    """Absorb all observations at once: the fit's QR with the prior's rows on top."""
    sigma = _check_noise(sigma)
    return _solve(_factor(data, sigma, prior), sigma)
