"""Scikit-learn style estimator facade over the embedding pipeline.

``LatticeEmbedder`` follows the transformer protocol (``fit`` / ``transform``
/ ``get_params`` / ``set_params``) without importing scikit-learn, so it
drops into sklearn pipelines by duck typing.  The map is per-point, so
``transform`` re-solves each row independently; ``fit`` additionally keeps
the training embedding and its solve report as fitted attributes.
"""
from __future__ import annotations

from dataclasses import KW_ONLY, dataclass, fields

import numpy as np

from .energy import EnergyParams
from .geometry import ManifoldSpec, make_manifold
from .solver import SolverConfig, embed_points
from .validation import check_points_array


@dataclass(eq=False)
class LatticeEmbedder:
    """Project ambient points onto a manifold by per-point energy descent.

    Parameters mirror the energy functional and solver settings: alpha/beta
    weight the tangential/normal alignment, gamma the curvature double
    integral at the closest point, lam the tube-smoothing regularization;
    ``EnergyParams`` and ``SolverConfig`` own their defaults and ranges.
    ``manifold`` is a built-in name (with ``manifold_params``) or a ready
    ManifoldSpec.

    After ``fit(X)`` the training embedding is available as ``embedding_``
    and the solve diagnostics as ``report_``; ``transform`` solves any batch
    of points with the same settings.  Rows are solved one after another,
    each independently of the other rows.  Rows farther than twice the tube
    radius from the manifold are outside the energy's support and pass
    through unchanged (flagged in the report).
    """

    manifold: str | ManifoldSpec = "plane"
    _: KW_ONLY
    manifold_params: dict | None = None
    alpha: float = EnergyParams.alpha
    beta: float = EnergyParams.beta
    gamma: float = EnergyParams.gamma
    lam: float = EnergyParams.lam
    tube_radius: float = EnergyParams.tube_radius
    max_iters: int = SolverConfig.max_iters
    grad_tol: float = SolverConfig.grad_tol

    def get_params(self, deep: bool = True) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def set_params(self, **params) -> "LatticeEmbedder":
        valid = {f.name for f in fields(self)}
        for name, value in params.items():
            if name not in valid:
                raise ValueError(
                    f"invalid parameter {name!r} for {type(self).__name__}"
                )
            setattr(self, name, value)
        return self

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
