"""Scikit-learn style estimator facade over the embedding pipeline.

``LatticeEmbedder`` follows the transformer protocol (``fit`` / ``transform``
/ ``get_params`` / ``set_params``) without importing scikit-learn, so it
drops into sklearn pipelines by duck typing.  The map is per-point, so
``transform`` re-solves each row independently; ``fit`` additionally keeps
the training embedding and its solve report as fitted attributes.
"""
from __future__ import annotations

import inspect

import numpy as np

from .energy import EnergyParams
from .geometry import ManifoldSpec, make_manifold
from .solver import SolverConfig, embed_points
from .validation import check_points_array


class BaseEstimator:
    """Minimal reimplementation of the sklearn parameter protocol."""

    @classmethod
    def _get_param_names(cls) -> list[str]:
        signature = inspect.signature(cls.__init__)
        return sorted(
            p.name
            for p in signature.parameters.values()
            if p.name != "self" and p.kind != p.VAR_KEYWORD
        )

    def get_params(self, deep: bool = True) -> dict:
        return {name: getattr(self, name) for name in self._get_param_names()}

    def set_params(self, **params) -> "BaseEstimator":
        valid = set(self._get_param_names())
        for name, value in params.items():
            if name not in valid:
                raise ValueError(
                    f"invalid parameter {name!r} for {type(self).__name__}"
                )
            setattr(self, name, value)
        return self


class LatticeEmbedder(BaseEstimator):
    """Project ambient points onto a manifold by per-point energy descent.

    Parameters mirror the energy functional and solver settings: alpha/beta
    weight the tangential/normal alignment, gamma the curvature double
    integral at the closest point, lam the tube-smoothing regularization.
    ``manifold`` is a built-in name (with ``manifold_params``) or a ready
    ManifoldSpec.

    After ``fit(X)`` the training embedding is available as ``embedding_``
    and the solve diagnostics as ``report_``; ``transform`` solves any batch
    of points with the same settings.  Rows are solved one after another,
    each independently of the other rows.  Rows farther than twice the tube
    radius from the manifold are outside the energy's support and pass
    through unchanged (flagged in the report).
    """

    def __init__(
        self,
        manifold="plane",
        *,
        manifold_params=None,
        alpha: float = 1.0,
        beta: float = 1.0,
        gamma: float = 0.0,
        lam: float = 0.0,
        tube_radius: float = 0.1,
        max_iters: int = 500,
        grad_tol: float = 1e-6,
    ):
        self.manifold = manifold
        self.manifold_params = manifold_params
        self.alpha = alpha
        self.beta = beta
        self.gamma = gamma
        self.lam = lam
        self.tube_radius = tube_radius
        self.max_iters = max_iters
        self.grad_tol = grad_tol

    def _build(self) -> tuple[ManifoldSpec, EnergyParams, SolverConfig]:
        if isinstance(self.manifold, ManifoldSpec):
            spec = self.manifold
        else:
            spec = make_manifold(self.manifold, **(self.manifold_params or {}))
        params = EnergyParams(
            alpha=self.alpha,
            beta=self.beta,
            gamma=self.gamma,
            lam=self.lam,
            tube_radius=self.tube_radius,
        )
        config = SolverConfig(max_iters=self.max_iters, grad_tol=self.grad_tol)
        return spec, params, config

    def fit(self, X, y=None) -> "LatticeEmbedder":
        spec, params, config = self._build()
        X = check_points_array(X, expected_dim=spec.ambient_dim)
        emap, report = embed_points(params, spec, X, config)
        self.n_features_in_ = X.shape[1]
        self.embedding_ = emap.images()
        self.embedding_map_ = emap
        self.report_ = report
        return self

    def transform(self, X) -> np.ndarray:
        if not hasattr(self, "n_features_in_"):
            raise RuntimeError("LatticeEmbedder must be fitted before transform")
        spec, params, config = self._build()
        X = check_points_array(X, expected_dim=self.n_features_in_)
        emap, report = embed_points(params, spec, X, config)
        self.last_report_ = report
        return emap.images()

    def fit_transform(self, X, y=None) -> np.ndarray:
        return self.fit(X, y).embedding_
