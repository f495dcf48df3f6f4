"""Configuration ingestion for the CLI.

The format is a plain key-value document: ``section.key = value`` lines or
``[section]`` headers followed by ``key = value`` lines, with ``#`` comments.
Parsing is total and side-effect free; every omitted key gets a documented
default, unknown keys are rejected, and ``manifold.kind`` is the only
required key.  The energy, field, lattice and solver keys only translate
names: ``EnergyParams``, ``LatticeSpec`` and ``SolverConfig`` own their
defaults and range checks, and a range error names the key that fed it.
"""
from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field

from .energy import EnergyParams, check_curvature_term
from .errors import (
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
        lo, hi = float(pieces[0]), float(pieces[1])
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise ValueError("not finite")
        out.append((lo, hi))
    return tuple(out)


def _parse_chart(text: str) -> str:
    """The chart's components as compile_chart receives them, each with its
    whitespace collapsed, joined by '; ': spellings of one chart share it."""
    parts = (" ".join(part.split()) for part in text.split(";"))
    return "; ".join(part for part in parts if part)


def _format_bound(value: float) -> str:
    # :g keeps 6 significant digits; repr where those do not read back, so
    # that bounds differing past the 6th digit get different digests
    text = f"{value:g}"
    return text if float(text) == value else repr(value)


def _format_bounds(bounds) -> str:
    return ", ".join(f"{_format_bound(lo)}:{_format_bound(hi)}" for lo, hi in bounds)


# key -> (parser, default, serializer); defaults of None mean "resolved later"
_SCHEMA: dict[str, dict] = {
    "manifold": {
        "kind": (str, _UNSET, str),
        "r": (float, None, repr),
        "R": (float, None, repr),
        "chart": (_parse_chart, None, str),
        "bounds": (_parse_bounds, None, _format_bounds),
    },
    "lattice": {
        "bounds": (_parse_bounds, ((0.0, 1.0), (0.0, 1.0), (0.0, 0.0)), _format_bounds),
        "spacing": (float, 0.25, repr),
    },
    "energy": {
        "alpha": (float, EnergyParams.alpha, repr),
        "beta": (float, EnergyParams.beta, repr),
        "gamma": (float, EnergyParams.gamma, repr),
        "lambda": (float, EnergyParams.lam, repr),
    },
    "field": {
        "tube_radius": (float, EnergyParams.tube_radius, repr),
    },
    "solver": {
        "max_iters": (int, SolverConfig.max_iters, repr),
        "grad_tol": (float, SolverConfig.grad_tol, repr),
    },
    "output": {
        "directory": (str, "out", str),
    },
}
# the manifold keys besides kind that each kind reads, and the constructor
# argument each one feeds; setting any other key is a configuration error
_KINDS = {
    "plane": {},
    "sphere": {"r": "radius"},
    "torus": {"R": "major_radius", "r": "minor_radius"},
    "parametric": {"chart": "expressions", "bounds": "bounds"},
}
# the value type and constructor argument each energy, field, lattice and
# solver key feeds; each range message starts with its argument's name
_FEEDS = {
    ("energy", "alpha"): (EnergyParams, "alpha"),
    ("energy", "beta"): (EnergyParams, "beta"),
    ("energy", "gamma"): (EnergyParams, "gamma"),
    ("energy", "lambda"): (EnergyParams, "lam"),
    ("field", "tube_radius"): (EnergyParams, "tube_radius"),
    ("lattice", "bounds"): (LatticeSpec, "bounds"),
    ("lattice", "spacing"): (LatticeSpec, "spacing"),
    ("solver", "max_iters"): (SolverConfig, "max_iters"),
    ("solver", "grad_tol"): (SolverConfig, "grad_tol"),
}


@dataclass(eq=True)
class RunConfig:
    """Fully resolved configuration: the values per section, and the
    library objects parse_config built from them once (immutable, so one
    serves every command run on this configuration).  Equality compares
    the values."""

    sections: dict
    _built: dict = field(compare=False, repr=False)

    def get(self, section: str, key: str):
        return self.sections[section][key]

    def manifold(self) -> ManifoldSpec:
        return self._built[ManifoldSpec]

    def energy_params(self) -> EnergyParams:
        return self._built[EnergyParams]

    def lattice(self) -> LatticeSpec:
        return self._built[LatticeSpec]

    def solver(self) -> SolverConfig:
        return self._built[SolverConfig]

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
        """Hash of every setting but output.directory, which says where the
        results go and changes none of them."""
        text = "".join(
            line
            for line in self.to_text().splitlines(keepends=True)
            if not line.startswith("output.")
        )
        return hashlib.sha256(text.encode()).hexdigest()[:16]


def _build_manifold(m: dict) -> ManifoldSpec:
    kind = m["kind"]
    if kind not in _KINDS:
        raise ValidationError(f"manifold.kind: unknown kind {kind!r}")
    for key in sorted(set(m) - {"kind", *_KINDS[kind]}):
        if m[key] is not None:
            raise ValidationError(f"manifold.{key}: not read by manifold kind {kind!r}")
    # the constructors check the radii jointly (0 < r < R), so only these
    # checks can name the key; an unset radius takes the constructor's
    # default, and a chart has none
    for key in ("r", "R"):
        if m[key] is not None and not m[key] > 0.0:
            raise ValidationError(f"manifold.{key}: must be positive")
    for key in ("chart", "bounds"):
        if key in _KINDS[kind] and not m[key]:
            raise MissingRequiredError(f"manifold.{key} is required by kind {kind!r}")
    args = {arg: m[key] for key, arg in _KINDS[kind].items() if m[key] is not None}
    if "expressions" in args:
        args["expressions"] = m["chart"].split("; ")
    try:
        return make_manifold(kind, **args)
    except (LatticeEmbedError, ValueError) as exc:
        raise ValidationError(f"manifold: {exc}") from exc


def _key_error(owner: type, exc: Exception) -> ValidationError:
    """The value type's message with its leading argument name replaced by
    the key that fed the argument."""
    arg, _, why = str(exc).partition(" ")
    for (section, key), feed in _FEEDS.items():
        if feed == (owner, arg):
            return ValidationError(f"{section}.{key}: {why}")
    return ValidationError(str(exc))


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
    # every library object the configuration describes, built once, by type
    args = {owner: {} for owner, _ in _FEEDS.values()}
    for (section, key), (owner, arg) in _FEEDS.items():
        args[owner][arg] = sections[section][key]
    built = {}
    for owner, kwargs in args.items():
        try:
            built[owner] = owner(**kwargs)
        except (LatticeEmbedError, ValueError) as exc:
            raise _key_error(owner, exc) from exc
    built[ManifoldSpec] = _build_manifold(sections["manifold"])
    try:
        check_curvature_term(built[EnergyParams], built[ManifoldSpec])
    except ValueError as exc:
        raise _key_error(EnergyParams, exc) from exc
    return RunConfig(sections, built)


def default_config() -> RunConfig:
    return parse_config("manifold.kind = plane\n")
