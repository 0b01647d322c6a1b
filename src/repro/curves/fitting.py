"""Least-squares fitting of parametric curve families to partial curves.

Fitting provides two things to the rest of the curve-prediction stack:

* a maximum-likelihood starting point for the MCMC walkers
  (:mod:`repro.curves.mcmc`), and
* the fast deterministic backend of :class:`repro.curves.predictor.
  CurvePredictor`, where per-model fits are combined with weights
  proportional to their goodness of fit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence

import numpy as np
from scipy import optimize

from .models import CURVE_MODELS, CurveModel

__all__ = ["ModelFit", "fit_model", "fit_all_models"]


@dataclass(frozen=True)
class ModelFit:
    """Result of fitting one curve family to an observed prefix.

    Attributes:
        model: the fitted family.
        theta: best-fit parameter vector (clipped to the family bounds).
        mse: mean squared error on the observed prefix.
        success: whether the optimiser converged to a usable fit.
        covariance: Laplace-approximation parameter covariance
            ``mse · (JᵀJ)⁻¹`` at the optimum (None when unavailable).
            Short prefixes leave asymptote parameters weakly identified;
            sampling from this covariance recovers the within-family
            uncertainty that a full MCMC posterior would carry.
    """

    model: CurveModel
    theta: np.ndarray
    mse: float
    success: bool
    covariance: Optional[np.ndarray] = None

    def predict(self, x: np.ndarray) -> np.ndarray:
        return self.model(x, self.theta)

    def sample_thetas(
        self, n: int, rng: np.random.Generator
    ) -> np.ndarray:
        """Draw ``n`` parameter vectors from the Laplace posterior,
        clipped to the family bounds.  Falls back to the point estimate
        when no covariance is available."""
        if self.covariance is None:
            return np.tile(self.theta, (n, 1))
        try:
            draws = rng.multivariate_normal(self.theta, self.covariance, size=n)
        except np.linalg.LinAlgError:
            return np.tile(self.theta, (n, 1))
        return np.clip(
            draws,
            np.asarray(self.model.lower),
            np.asarray(self.model.upper),
        )


def _initial_guesses(
    model: CurveModel, y: np.ndarray, rng: np.random.Generator, restarts: int
) -> List[np.ndarray]:
    """Build starting points: the registry default, a data-informed guess,
    and random draws within the family bounds."""
    lower = np.asarray(model.lower)
    upper = np.asarray(model.upper)
    guesses = [np.asarray(model.default, dtype=float)]

    # Data-informed guess: families whose first parameter acts as an
    # asymptote benefit from starting near slightly above the last
    # observed value.
    informed = np.asarray(model.default, dtype=float).copy()
    asymptote = float(np.clip(y[-1] + 0.1, lower[0], upper[0]))
    informed[0] = asymptote
    guesses.append(informed)

    for _ in range(max(0, restarts - 2)):
        guesses.append(rng.uniform(lower, upper))
    return guesses


def fit_model(
    model: CurveModel,
    y: Sequence[float],
    rng: Optional[np.random.Generator] = None,
    restarts: int = 4,
    max_nfev: int = 200,
) -> ModelFit:
    """Fit one family to an observed learning-curve prefix.

    Args:
        model: the curve family to fit.
        y: observed performance values for epochs ``1..len(y)``.
        rng: randomness source for restart initialisation.
        restarts: number of optimiser starts (>= 1).

    Returns:
        The best :class:`ModelFit` across restarts.  ``success`` is
        False when every restart failed, in which case ``theta`` is the
        family default and ``mse`` the corresponding error.
    """
    if rng is None:
        rng = np.random.default_rng(0)
    y_arr = np.asarray(y, dtype=float)
    if y_arr.ndim != 1 or y_arr.size < 2:
        raise ValueError("need a 1-D curve with at least 2 observations")
    x = np.arange(1, y_arr.size + 1, dtype=float)

    lower = np.asarray(model.lower)
    upper = np.asarray(model.upper)

    def residuals(theta: np.ndarray) -> np.ndarray:
        return model(x, theta) - y_arr

    best_theta = np.asarray(model.default, dtype=float)
    best_mse = float(np.mean(residuals(best_theta) ** 2))
    best_jac: Optional[np.ndarray] = None
    succeeded = False

    for guess in _initial_guesses(model, y_arr, rng, restarts):
        try:
            result = optimize.least_squares(
                residuals,
                x0=np.clip(guess, lower, upper),
                bounds=(lower, upper),
                method="trf",
                max_nfev=max_nfev,
            )
        except (ValueError, RuntimeError):
            continue
        mse = float(np.mean(result.fun**2))
        if np.isfinite(mse) and mse < best_mse:
            best_theta = model.clip_to_bounds(result.x)
            best_mse = mse
            best_jac = np.asarray(result.jac)
            succeeded = True

    covariance = _laplace_covariance(best_jac, best_mse, model.num_params)
    return ModelFit(
        model=model,
        theta=best_theta,
        mse=best_mse,
        success=succeeded,
        covariance=covariance,
    )


def _laplace_covariance(
    jac: Optional[np.ndarray], mse: float, num_params: int
) -> Optional[np.ndarray]:
    """Parameter covariance ``sigma² (JᵀJ)⁻¹`` with a small ridge.

    The ridge keeps weakly identified directions (typically asymptote
    parameters on short prefixes) finite instead of exploding, while
    still letting them carry most of the spread.
    """
    if jac is None or not np.all(np.isfinite(jac)):
        return None
    jtj = jac.T @ jac + 1e-6 * np.eye(num_params)
    try:
        inv = np.linalg.inv(jtj)
    except np.linalg.LinAlgError:
        return None
    sigma_sq = max(mse, 1e-6)
    cov = sigma_sq * inv
    if not np.all(np.isfinite(cov)):
        return None
    return 0.5 * (cov + cov.T)


def fit_all_models(
    y: Sequence[float],
    models: Optional[Iterable[CurveModel]] = None,
    rng: Optional[np.random.Generator] = None,
    restarts: int = 4,
    max_nfev: int = 200,
) -> Dict[str, ModelFit]:
    """Fit every registered family (or a subset) to the observed prefix.

    Returns a mapping from model name to its :class:`ModelFit`.
    """
    if models is None:
        models = CURVE_MODELS.values()
    if rng is None:
        rng = np.random.default_rng(0)
    return {
        m.name: fit_model(m, y, rng=rng, restarts=restarts, max_nfev=max_nfev)
        for m in models
    }
