"""Configuration ingestion for the CLI.

The format is a plain key-value document: ``section.key = value`` lines or
``[section]`` headers followed by ``key = value`` lines, with ``#`` comments.
Parsing is total and side-effect free; every omitted key gets a documented
default, unknown keys are rejected, and ``manifold.kind`` is the only
required key.
"""
from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field

import numpy as np

from .energy import EnergyParams
from .errors import (
    ConfigError,
    LatticeEmbedError,
    MissingRequiredError,
    TypeMismatchError,
    UnknownKeyError,
    ValidationError,
)
from .geometry import ManifoldSpec, make_manifold
from .lattice import LatticeSpec
from .solver import SolverConfig

_UNSET = object()


def _parse_bounds(text: str) -> tuple:
    """'lo:hi, lo:hi, ...' -> ((lo, hi), ...)."""
    out = []
    for part in text.split(","):
        pieces = part.split(":")
        if len(pieces) != 2:
            raise ValueError(f"bad bounds segment {part!r}")
        out.append((float(pieces[0]), float(pieces[1])))
    return tuple(out)


def _format_bounds(bounds) -> str:
    return ", ".join(f"{lo:g}:{hi:g}" for lo, hi in bounds)


# key -> (parser, default, serializer); defaults of None mean "resolved later"
_SCHEMA: dict[str, dict] = {
    "manifold": {
        "kind": (str, _UNSET, str),
        "r": (float, None, repr),
        "R": (float, None, repr),
        "chart": (str, None, str),
        "bounds": (_parse_bounds, None, _format_bounds),
    },
    "lattice": {
        "bounds": (_parse_bounds, ((0.0, 1.0), (0.0, 1.0), (0.0, 0.0)), _format_bounds),
        "spacing": (float, 0.25, repr),
    },
    "energy": {
        "alpha": (float, 1.0, repr),
        "beta": (float, 1.0, repr),
        "gamma": (float, 0.0, repr),
        "lambda": (float, 0.0, repr),
    },
    "field": {
        "tube_radius": (float, 0.1, repr),
    },
    "quadrature": {
        "resolution": (int, 64, repr),
        "seed": (int, 0, repr),
    },
    "solver": {
        "max_iters": (int, 500, repr),
        "grad_tol": (float, 1e-6, repr),
    },
    "output": {
        "directory": (str, "out", str),
    },
}
# constructor argument of each radius key, per built-in kind; a key a
# configuration leaves unset takes the constructor's default
_RADII = {
    "plane": {},
    "sphere": {"r": "radius"},
    "torus": {"R": "major_radius", "r": "minor_radius"},
}
# the manifold keys besides kind that each kind reads; setting any other one
# is a configuration error
_KIND_KEYS = {
    **{kind: tuple(radii) for kind, radii in _RADII.items()},
    "parametric": ("chart", "bounds"),
}


@dataclass(eq=True)
class RunConfig:
    """Fully resolved configuration; values live in per-section dicts."""

    sections: dict = field(default_factory=dict)
    # the spec manifold() built first; specs are immutable, so one serves
    # every command run on this configuration
    _spec: ManifoldSpec | None = field(
        default=None, init=False, compare=False, repr=False
    )

    def get(self, section: str, key: str):
        return self.sections[section][key]

    # -- assembly into library objects ------------------------------------

    def manifold(self) -> ManifoldSpec:
        """The configured manifold, built on the first call (parse_config
        makes it, to validate the manifold settings) and shared after."""
        if self._spec is None:
            self._spec = self._build_manifold()
        return self._spec

    def _build_manifold(self) -> ManifoldSpec:
        m = self.sections["manifold"]
        kind = m["kind"]
        if kind == "parametric":
            if not m["chart"] or m["bounds"] is None:
                raise MissingRequiredError(
                    "parametric manifolds need manifold.chart and manifold.bounds"
                )
            expressions = [s.strip() for s in m["chart"].split(";") if s.strip()]
            return make_manifold(
                "parametric", expressions=expressions, bounds=m["bounds"]
            )
        if kind not in _RADII:
            raise ValidationError(f"manifold.kind: unknown kind {kind!r}")
        radii = {
            arg: m[key] for key, arg in _RADII[kind].items() if m[key] is not None
        }
        return make_manifold(kind, **radii)

    def energy_params(self) -> EnergyParams:
        e, f, quad = (
            self.sections["energy"],
            self.sections["field"],
            self.sections["quadrature"],
        )
        return EnergyParams(
            alpha=e["alpha"],
            beta=e["beta"],
            gamma=e["gamma"],
            lam=e["lambda"],
            tube_radius=f["tube_radius"],
            quadrature_resolution=quad["resolution"],
            quadrature_seed=quad["seed"],
        )

    def lattice(self) -> LatticeSpec:
        lat = self.sections["lattice"]
        return LatticeSpec(bounds=np.asarray(lat["bounds"]), spacing=lat["spacing"])

    def solver(self) -> SolverConfig:
        s = self.sections["solver"]
        return SolverConfig(max_iters=s["max_iters"], grad_tol=s["grad_tol"])

    # -- canonical text form ----------------------------------------------

    def to_text(self) -> str:
        lines = ["# lattice-embed configuration (canonical form)"]
        for section in sorted(_SCHEMA):
            for key in sorted(_SCHEMA[section]):
                _, _, serialize = _SCHEMA[section][key]
                value = self.sections[section][key]
                if value is None:
                    continue
                lines.append(f"{section}.{key} = {serialize(value)}")
        return "\n".join(lines) + "\n"

    def digest(self) -> str:
        return hashlib.sha256(self.to_text().encode()).hexdigest()[:16]


def _validate(config: RunConfig) -> None:
    def require(section, key, ok, why):
        if not ok:
            raise ValidationError(f"{section}.{key}: {why}")

    e = config.sections["energy"]
    require("energy", "alpha", e["alpha"] > 0.0, "must be positive")
    require("energy", "beta", e["beta"] > 0.0, "must be positive")
    require("energy", "gamma", e["gamma"] >= 0.0, "must be nonnegative")
    require("energy", "lambda", e["lambda"] >= 0.0, "must be nonnegative")
    f = config.sections["field"]
    require("field", "tube_radius", f["tube_radius"] > 0.0, "must be positive")
    quad = config.sections["quadrature"]
    require("quadrature", "resolution", quad["resolution"] >= 4, "must be >= 4")
    lat = config.sections["lattice"]
    require("lattice", "spacing", lat["spacing"] > 0.0, "must be positive")
    require(
        "lattice",
        "bounds",
        all(lo <= hi for lo, hi in lat["bounds"]),
        "needs lower <= upper per axis",
    )
    s = config.sections["solver"]
    require("solver", "max_iters", s["max_iters"] >= 1, "must be at least 1")
    require("solver", "grad_tol", s["grad_tol"] > 0.0, "must be positive")
    m = config.sections["manifold"]
    if m["kind"] in _KIND_KEYS:  # an unknown kind fails in manifold()
        for key in sorted(set(m) - {"kind", *_KIND_KEYS[m["kind"]]}):
            require(
                "manifold",
                key,
                m[key] is None,
                f"not read by manifold kind {m['kind']!r}",
            )
    if m["r"] is not None:
        require("manifold", "r", m["r"] > 0.0, "must be positive")
    if m["R"] is not None:
        require("manifold", "R", m["R"] > 0.0, "must be positive")


def _convert(section: str, key: str, raw: str):
    parser, _, _ = _SCHEMA[section][key]
    try:
        if parser is int:
            as_float = float(raw)
            if not as_float.is_integer():
                raise ValueError("not an integer")
            return int(as_float)
        if parser is float:
            value = float(raw)
            if not math.isfinite(value):
                raise ValueError("not finite")
            return value
        return parser(raw)
    except ValueError as exc:
        raise TypeMismatchError(
            f"{section}.{key}: expected {getattr(parser, '__name__', 'value')}, "
            f"got {raw!r} ({exc})"
        ) from None


def parse_config(text: str) -> RunConfig:
    """Parse a configuration document into a fully resolved RunConfig."""
    values: dict[str, dict] = {s: {} for s in _SCHEMA}
    current = None
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            current = line[1:-1].strip()
            if current not in _SCHEMA:
                raise UnknownKeyError(f"line {lineno}: unknown section [{current}]")
            continue
        if "=" not in line:
            raise TypeMismatchError(
                f"line {lineno}: expected 'key = value', got {line!r}"
            )
        name, raw_value = (s.strip() for s in line.split("=", 1))
        if "." in name:
            section, key = name.split(".", 1)
        elif current is not None:
            section, key = current, name
        else:
            raise UnknownKeyError(
                f"line {lineno}: key {name!r} appears outside any section"
            )
        if section not in _SCHEMA:
            raise UnknownKeyError(
                f"line {lineno}: unknown section {section!r} for key {key!r}"
            )
        if key not in _SCHEMA[section]:
            raise UnknownKeyError(
                f"line {lineno}: unknown key {key!r} in section {section!r}"
            )
        values[section][key] = _convert(section, key, raw_value)

    sections = {}
    for section, keys in _SCHEMA.items():
        resolved = {}
        for key, (_, default, _) in keys.items():
            if key in values[section]:
                resolved[key] = values[section][key]
            elif default is _UNSET:
                raise MissingRequiredError(f"{section}.{key} is required")
            else:
                resolved[key] = default
        sections[section] = resolved
    config = RunConfig(sections=sections)
    _validate(config)
    try:
        config.manifold()  # surfaces bad manifold settings as config errors
    except ConfigError:
        raise
    except (LatticeEmbedError, ValueError) as exc:
        raise ValidationError(f"manifold: {exc}") from exc
    return config


def default_config() -> RunConfig:
    return parse_config("manifold.kind = plane\n")
