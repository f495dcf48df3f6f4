"""Embed discrete lattice points onto smooth manifolds by minimizing a
three-term geometric energy, with full curvature kernels and stationarity
diagnostics."""

from .energy import (
    EnergyParams,
    alignment,
    alignment_gradient,
    embedding_pde_residual,
    reduced_residual,
    solve_lambda_reduced,
    total_energy,
    total_gradient,
)
from .estimator import LatticeEmbedder
from .field import ActivationField, activation, activation_gradient, regularization_gradient
from .geometry import (
    ManifoldSpec,
    Projection,
    TangentFrame,
    chart_eval,
    chart_jacobian,
    closest_point,
    decompose,
    distance_to_manifold,
    make_manifold,
    mean_sectional_curvature,
    metric,
    riemann_apply,
    sectional_curvature,
    tangent_frame,
)
from .lattice import (
    EmbeddingEntry,
    EmbeddingMap,
    LatticeSpec,
    alignment_of_linear_map,
    check_injective_invert,
    extend_map,
    generate_lattice,
    jacobian_of_extension,
    residual_jacobian_derivative,
)
from .quadrature import (
    QuadratureRule,
    build_quadrature,
    curvature_double_integral,
    curvature_integral_gradient,
    sphere_measure,
)
from .solver import (
    SolveReport,
    SolverConfig,
    descend_point,
    embed_lattice,
    embed_points,
    verify_stationarity,
)
from .config import RunConfig, parse_config

__version__ = "0.1.0"

__all__ = [
    "ActivationField",
    "EmbeddingEntry",
    "EmbeddingMap",
    "EnergyParams",
    "LatticeEmbedder",
    "LatticeSpec",
    "ManifoldSpec",
    "Projection",
    "QuadratureRule",
    "RunConfig",
    "SolveReport",
    "SolverConfig",
    "TangentFrame",
    "activation",
    "activation_gradient",
    "alignment",
    "alignment_gradient",
    "alignment_of_linear_map",
    "build_quadrature",
    "chart_eval",
    "chart_jacobian",
    "check_injective_invert",
    "closest_point",
    "curvature_double_integral",
    "curvature_integral_gradient",
    "decompose",
    "descend_point",
    "distance_to_manifold",
    "embed_lattice",
    "embed_points",
    "embedding_pde_residual",
    "extend_map",
    "generate_lattice",
    "jacobian_of_extension",
    "make_manifold",
    "mean_sectional_curvature",
    "metric",
    "parse_config",
    "reduced_residual",
    "regularization_gradient",
    "residual_jacobian_derivative",
    "riemann_apply",
    "sectional_curvature",
    "solve_lambda_reduced",
    "sphere_measure",
    "tangent_frame",
    "total_energy",
    "total_gradient",
    "verify_stationarity",
]
