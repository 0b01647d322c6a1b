"""Weighted-ensemble learning-curve model and its log posterior.

Domhan et al. model an observed learning curve as a weighted linear
combination of the eleven parametric families plus Gaussian noise:

    y(x) ~ Normal( sum_k w_k * f_k(x | theta_k), sigma^2 )

The full parameter vector stacks, in order, every family's parameters,
the (non-negative, sum-to-one) combination weights, and the noise scale
``sigma``.  This module owns that packing/unpacking, the prior, and the
likelihood; :mod:`repro.curves.mcmc` samples from the resulting
posterior.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .fitting import fit_all_models
from .models import CURVE_MODELS, CurveModel

__all__ = ["CurveEnsemble"]

_SIGMA_MIN = 1e-4
_SIGMA_MAX = 0.5


@dataclass(frozen=True)
class _Slot:
    """Index range of one family's parameters inside the packed vector."""

    model: CurveModel
    start: int
    stop: int


class CurveEnsemble:
    """A weighted combination of parametric curve families.

    The packed parameter layout is::

        [ theta_model1 | theta_model2 | ... | raw_weights (K) | log_sigma ]

    Raw weights are unconstrained reals mapped through a softmax so any
    real vector is a valid parameterisation (which keeps MCMC moves
    simple); ``sigma`` is sampled in log space for the same reason.
    """

    def __init__(self, models: Optional[Sequence[CurveModel]] = None) -> None:
        if models is None:
            models = list(CURVE_MODELS.values())
        if not models:
            raise ValueError("ensemble needs at least one curve family")
        self.models: List[CurveModel] = list(models)
        self._slots: List[_Slot] = []
        offset = 0
        for model in self.models:
            self._slots.append(_Slot(model, offset, offset + model.num_params))
            offset += model.num_params
        self._theta_len = offset
        self.num_models = len(self.models)
        # theta block + one raw weight per model + log sigma
        self.dim = self._theta_len + self.num_models + 1

    # ----------------------------------------------------------------- pack

    def pack(
        self,
        thetas: Dict[str, Sequence[float]],
        weights: Sequence[float],
        sigma: float,
    ) -> np.ndarray:
        """Pack per-model parameters, weights and sigma into one vector."""
        vec = np.empty(self.dim)
        for slot in self._slots:
            theta = np.asarray(thetas[slot.model.name], dtype=float)
            if theta.size != slot.model.num_params:
                raise ValueError(
                    f"{slot.model.name}: expected "
                    f"{slot.model.num_params} params, got {theta.size}"
                )
            vec[slot.start : slot.stop] = theta
        w = np.asarray(weights, dtype=float)
        if w.size != self.num_models:
            raise ValueError("one weight per model required")
        w = np.maximum(w, 1e-8)
        vec[self._theta_len : self._theta_len + self.num_models] = np.log(w)
        vec[-1] = math_log(sigma)
        return vec

    def unpack(
        self, vec: np.ndarray
    ) -> Tuple[Dict[str, np.ndarray], np.ndarray, float]:
        """Inverse of :meth:`pack`; weights come back softmax-normalised."""
        vec = np.asarray(vec, dtype=float)
        thetas = {
            slot.model.name: vec[slot.start : slot.stop] for slot in self._slots
        }
        weights = self.weights(vec)
        sigma = float(np.exp(np.clip(vec[-1], -12.0, 2.0)))
        return thetas, weights, sigma

    def weights(self, vec: np.ndarray) -> np.ndarray:
        """Softmax-normalised combination weights from a packed vector."""
        raw = np.asarray(vec, dtype=float)[
            ..., self._theta_len : self._theta_len + self.num_models
        ]
        raw = raw - np.max(raw, axis=-1, keepdims=True)
        expd = np.exp(raw)
        return expd / np.sum(expd, axis=-1, keepdims=True)

    # ------------------------------------------------------------- evaluate

    def predict(self, x: np.ndarray, vec: np.ndarray) -> np.ndarray:
        """Mean prediction of the ensemble at epochs ``x``."""
        x_arr = np.asarray(x, dtype=float)
        weights = self.weights(vec)
        total = np.zeros_like(x_arr, dtype=float)
        for k, slot in enumerate(self._slots):
            theta = np.asarray(vec, dtype=float)[slot.start : slot.stop]
            total = total + weights[k] * slot.model(x_arr, theta)
        return total

    def predict_batch(self, x: np.ndarray, vecs: np.ndarray) -> np.ndarray:
        """Mean predictions for a batch of packed vectors at once.

        Vectorised counterpart of :meth:`predict`: each family is
        evaluated a single time over the whole stacked parameter block
        instead of once per vector, which is what makes posterior
        sample generation (hundreds of vectors per prediction) cheap.
        Row ``i`` is numerically identical to ``predict(x, vecs[i])``
        — same accumulation order per family, same element-wise ops.

        Args:
            x: epoch indices, shape (H,).
            vecs: packed parameter vectors, shape (B, dim).

        Returns:
            Mean trajectories, shape (B, H).
        """
        x_arr = np.asarray(x, dtype=float)
        vecs_arr = np.asarray(vecs, dtype=float)
        if vecs_arr.ndim != 2 or vecs_arr.shape[1] != self.dim:
            raise ValueError(
                f"vecs must have shape (B, {self.dim}), got {vecs_arr.shape}"
            )
        weights = self.weights(vecs_arr)  # (B, K)
        total = np.zeros((vecs_arr.shape[0], x_arr.size), dtype=float)
        for k, slot in enumerate(self._slots):
            thetas = vecs_arr[:, slot.start : slot.stop]  # (B, P)
            total = total + weights[:, k : k + 1] * slot.model(
                x_arr, thetas[:, None, :]
            )
        return total

    # ---------------------------------------------------------------- prior

    def log_prior(self, vec: np.ndarray) -> float:
        """Log prior: uniform inside family bounds, weak Gaussian on raw
        weights, log-uniform sigma within [_SIGMA_MIN, _SIGMA_MAX]."""
        vec = np.asarray(vec, dtype=float)
        for slot in self._slots:
            theta = vec[slot.start : slot.stop]
            if not slot.model.in_bounds(theta):
                return -np.inf
        sigma = float(np.exp(np.clip(vec[-1], -50.0, 50.0)))
        if not (_SIGMA_MIN <= sigma <= _SIGMA_MAX):
            return -np.inf
        raw_w = vec[self._theta_len : self._theta_len + self.num_models]
        # Zero-mean Gaussian keeps raw weights from drifting to infinity
        # (softmax is shift-invariant, so the posterior is otherwise flat
        # along that direction).
        return float(-0.5 * np.sum(raw_w**2) / 25.0)

    # ----------------------------------------------------------- likelihood

    def log_likelihood(self, vec: np.ndarray, y: np.ndarray) -> float:
        """Gaussian log likelihood of an observed prefix ``y``."""
        y_arr = np.asarray(y, dtype=float)
        x = np.arange(1, y_arr.size + 1, dtype=float)
        mean = self.predict(x, vec)
        sigma = float(np.exp(np.clip(np.asarray(vec)[-1], -12.0, 2.0)))
        resid = y_arr - mean
        n = y_arr.size
        return float(
            -0.5 * np.sum(resid**2) / sigma**2
            - n * np.log(sigma)
            - 0.5 * n * np.log(2.0 * np.pi)
        )

    def log_posterior(self, vec: np.ndarray, y: np.ndarray) -> float:
        lp = self.log_prior(vec)
        if not np.isfinite(lp):
            return -np.inf
        ll = self.log_likelihood(vec, y)
        if not np.isfinite(ll):
            return -np.inf
        return lp + ll

    def log_posterior_batch(
        self, vecs: np.ndarray, y: np.ndarray
    ) -> np.ndarray:
        """Log posterior of many packed vectors in stacked numpy ops.

        Entry ``i`` equals ``log_posterior(vecs[i], y)`` (same
        arithmetic per row); the batch form exists so the MCMC sampler
        can score a whole walker ensemble per sweep instead of calling
        the scalar path once per walker.
        """
        vecs_arr = np.asarray(vecs, dtype=float)
        if vecs_arr.ndim != 2 or vecs_arr.shape[1] != self.dim:
            raise ValueError(
                f"vecs must have shape (B, {self.dim}), got {vecs_arr.shape}"
            )
        n_vecs = vecs_arr.shape[0]
        in_support = np.ones(n_vecs, dtype=bool)
        for slot in self._slots:
            theta = vecs_arr[:, slot.start : slot.stop]
            lower = np.asarray(slot.model.lower)
            upper = np.asarray(slot.model.upper)
            in_support &= np.all(
                (theta >= lower) & (theta <= upper), axis=1
            )
        sigma = np.exp(np.clip(vecs_arr[:, -1], -50.0, 50.0))
        in_support &= (sigma >= _SIGMA_MIN) & (sigma <= _SIGMA_MAX)

        raw_w = vecs_arr[:, self._theta_len : self._theta_len + self.num_models]
        log_prior = -0.5 * np.sum(raw_w**2, axis=1) / 25.0

        y_arr = np.asarray(y, dtype=float)
        x = np.arange(1, y_arr.size + 1, dtype=float)
        out = np.full(n_vecs, -np.inf)
        if np.any(in_support):
            supported = vecs_arr[in_support]
            mean = self.predict_batch(x, supported)
            sigma_ll = np.exp(np.clip(supported[:, -1], -12.0, 2.0))
            resid = y_arr - mean
            n = y_arr.size
            log_like = (
                -0.5 * np.sum(resid**2, axis=1) / sigma_ll**2
                - n * np.log(sigma_ll)
                - 0.5 * n * np.log(2.0 * np.pi)
            )
            total = log_prior[in_support] + log_like
            total[~np.isfinite(total)] = -np.inf
            out[in_support] = total
        return out

    # ------------------------------------------------------- initialisation

    def initial_vector(
        self,
        y: Sequence[float],
        rng: Optional[np.random.Generator] = None,
    ) -> np.ndarray:
        """Build a good packed starting point from per-model LS fits.

        Families that fit the prefix better receive larger initial
        weights (inverse-MSE weighting).
        """
        if rng is None:
            rng = np.random.default_rng(0)
        y_arr = np.asarray(y, dtype=float)
        fits = fit_all_models(y_arr, models=self.models, rng=rng)
        thetas = {}
        inv_mse = np.empty(self.num_models)
        for k, model in enumerate(self.models):
            fit = fits[model.name]
            thetas[model.name] = fit.theta
            inv_mse[k] = 1.0 / max(fit.mse, 1e-8)
        weights = inv_mse / inv_mse.sum()
        resid = y_arr - self._weighted_prediction(y_arr.size, thetas, weights)
        sigma = float(np.clip(np.std(resid), 5 * _SIGMA_MIN, _SIGMA_MAX))
        return self.pack(thetas, weights, sigma)

    def _weighted_prediction(
        self,
        n: int,
        thetas: Dict[str, np.ndarray],
        weights: np.ndarray,
    ) -> np.ndarray:
        x = np.arange(1, n + 1, dtype=float)
        total = np.zeros(n)
        for k, model in enumerate(self.models):
            total += weights[k] * model(x, thetas[model.name])
        return total

    def scatter_around(
        self,
        center: np.ndarray,
        n_walkers: int,
        rng: np.random.Generator,
        scale: float = 1e-2,
    ) -> np.ndarray:
        """Initialise MCMC walkers in a small Gaussian ball around
        ``center``, clipped so every walker has finite prior mass."""
        center = np.asarray(center, dtype=float)
        walkers = center + scale * rng.standard_normal((n_walkers, self.dim))
        for slot in self._slots:
            lower = np.asarray(slot.model.lower) + 1e-9
            upper = np.asarray(slot.model.upper) - 1e-9
            walkers[:, slot.start : slot.stop] = np.clip(
                walkers[:, slot.start : slot.stop], lower, upper
            )
        walkers[:, -1] = np.clip(
            walkers[:, -1],
            np.log(_SIGMA_MIN) + 1e-6,
            np.log(_SIGMA_MAX) - 1e-6,
        )
        return walkers


def math_log(value: float) -> float:
    if value <= 0:
        raise ValueError("sigma must be positive")
    return float(np.log(value))
