"""Smooth activation field over a tubular neighborhood of the manifold.

The field is a distance-based quintic smoothstep: exactly 1 within one tube
radius r of M, decaying C2-smoothly to exactly 0 at twice the radius.  With
d the distance to M, t = d/r - 1 and S the smoothstep, A = 1 - S(t) on the
decay band 0 < t < 1.  Inside a tube narrower than the reach of M the
closest point p is unique, so the distance is differentiable with
grad d = (q - p)/d, the unit normal n; hence

    grad A = -S'(t)/r n,   grad (lam/2)||grad A||^2 = lam S'(t) S''(t)/r^3 n,

both exactly zero on the plateau and beyond the support, where S' = 0.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import ManifoldSpec, closest_point, distance_to_manifold

Array = np.ndarray


def _smoothstep(t: float) -> float:
    return t * t * t * (6.0 * t * t - 15.0 * t + 10.0)


@dataclass(frozen=True, eq=False)
class ActivationField:
    """Tube indicator smoothed to [0, 1] with plateau radius = tube_radius."""

    manifold: ManifoldSpec
    tube_radius: float

    def __post_init__(self):
        if self.tube_radius <= 0.0:
            raise ValueError("tube_radius must be positive")


def activation(field: ActivationField, x) -> float:
    """Field value at an ambient point: 1 on the tube, 0 beyond twice the
    tube radius, quintic smoothstep in between."""
    s = distance_to_manifold(field.manifold, x) / field.tube_radius
    if s <= 1.0:
        return 1.0
    if s >= 2.0:
        return 0.0
    return 1.0 - _smoothstep(s - 1.0)


def _decay_band(field: ActivationField, q: Array, p: Array):
    """(S'(t), S''(t), unit normal) at q with closest point p, or None off the
    open decay band 0 < t < 1, where S' vanishes."""
    diff = q - p
    dist = float(np.linalg.norm(diff))
    t = dist / field.tube_radius - 1.0
    if not 0.0 < t < 1.0:
        return None
    slope = 30.0 * t * t * (t - 1.0) ** 2
    bend = 60.0 * t * (t - 1.0) * (2.0 * t - 1.0)
    return slope, bend, diff / dist


def _activation_gradient_at(field: ActivationField, q: Array, p: Array) -> Array:
    band = _decay_band(field, q, p)
    if band is None:
        return np.zeros_like(q)
    slope, _, normal = band
    return (-slope / field.tube_radius) * normal


def _regularization_gradient_at(
    field: ActivationField, q: Array, p: Array, lam: float
) -> Array:
    band = _decay_band(field, q, p)
    if band is None:
        return np.zeros_like(q)
    slope, bend, normal = band
    return (lam * slope * bend / field.tube_radius**3) * normal


def activation_gradient(field: ActivationField, x) -> Array:
    """Ambient gradient of the activation: -S'(t)/r times the unit normal."""
    x = np.asarray(x, dtype=float).reshape(-1)
    return _activation_gradient_at(field, x, closest_point(field.manifold, x).point)


def regularization_gradient(field: ActivationField, x, lam: float) -> Array:
    """Gradient of the tube-smoothing energy (lam/2)||grad A||^2:
    lam S'(t) S''(t)/r^3 times the unit normal."""
    x = np.asarray(x, dtype=float).reshape(-1)
    if lam == 0.0:
        return np.zeros_like(x)
    return _regularization_gradient_at(
        field, x, closest_point(field.manifold, x).point, lam
    )
