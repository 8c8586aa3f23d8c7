"""Spec files: TOML/JSON serialization of :class:`CampaignSpec`.

A spec file is a flat table of spec fields — the checked-in,
reviewable form of a campaign (``examples/specs/`` holds the ones the
full-paper reproduction runs). ``CampaignSpec.from_file`` /
``to_file`` dispatch here by extension:

* ``.toml`` — read with the stdlib ``tomllib``; written by the tiny
  emitter below (the environment has no TOML writer dependency).
  Chips must be referenced by preset name.
* ``.json`` — full fidelity: chips may also be *embedded* as complete
  ``GpuConfig`` tables (name -> latency model), so custom silicon is
  expressible in a checked-in artifact.

Unknown keys are configuration errors naming the offending key and
the valid choices — a typo in a spec file fails at load time, not as
a traceback from deep inside a worker. Round trips are exact:
``CampaignSpec.from_dict(spec.to_dict()) == spec``.
"""

from __future__ import annotations

import dataclasses
import json
from enum import Enum
from pathlib import Path

from repro.arch.config import GpuConfig
from repro.errors import ConfigError
from repro.spec.campaign import SPEC_TABLE, CampaignSpec, spec_field


# ----------------------------------------------------------------------
# dict codec
# ----------------------------------------------------------------------

def _plain(value):
    """Plain data for a checked field value (lists, strings, tables)."""
    if isinstance(value, tuple):
        return [_plain(item) for item in value]
    if isinstance(value, GpuConfig):
        return dataclasses.asdict(value)
    if isinstance(value, Enum):
        return value.value
    return value


def spec_to_dict(spec: CampaignSpec) -> dict:
    """Plain-data form of a spec. ``None`` (default) fields are omitted."""
    values = ((entry.name, getattr(spec, entry.name)) for entry in SPEC_TABLE)
    return {name: _plain(value) for name, value in values
            if value is not None}


def spec_from_dict(data: dict) -> CampaignSpec:
    """Inverse of :func:`spec_to_dict`; unknown keys raise ConfigError."""
    if not isinstance(data, dict):
        raise ConfigError(
            f"a campaign spec must be a table/object of spec fields, "
            f"got {type(data).__name__}")
    for key in data:
        spec_field(key, context="spec data")
    return CampaignSpec(**data)


# ----------------------------------------------------------------------
# TOML emitter (flat tables of str/int/float/bool/list values)
# ----------------------------------------------------------------------

def _toml_scalar(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, float)):
        return repr(value)
    if isinstance(value, str):
        # JSON string escaping is a valid TOML basic string.
        return json.dumps(value)
    raise ConfigError(
        f"cannot encode {value!r} as a TOML value; use a .json spec file "
        f"for embedded GpuConfig tables")


def _toml_value(value) -> str:
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(_toml_scalar(item) for item in value) + "]"
    return _toml_scalar(value)


def dumps_toml(data: dict) -> str:
    """Minimal TOML for a flat spec dict (keys are known-bare)."""
    lines = ["# repro campaign spec (repro-experiments run <this file>)"]
    lines += [f"{key} = {_toml_value(value)}"
              for key, value in data.items()]
    return "\n".join(lines) + "\n"


# ----------------------------------------------------------------------
# File I/O
# ----------------------------------------------------------------------

def load_spec(path) -> CampaignSpec:
    """Read + validate a ``.toml`` / ``.json`` spec file."""
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"spec file not found: {path}")
    suffix = path.suffix.lower()
    try:
        if suffix == ".toml":
            import tomllib
            with path.open("rb") as handle:
                data = tomllib.load(handle)
        elif suffix == ".json":
            with path.open("r", encoding="utf-8") as handle:
                data = json.load(handle)
        else:
            raise ConfigError(
                f"unsupported spec file extension {suffix!r} for {path}; "
                f"use .toml or .json")
    except ConfigError:
        raise
    except Exception as error:  # tomllib/json parse errors
        raise ConfigError(f"cannot parse spec file {path}: {error}") from None
    try:
        return spec_from_dict(data)
    except ConfigError as error:
        raise ConfigError(f"{path}: {error}") from None


def save_spec(spec: CampaignSpec, path) -> None:
    """Write a spec as ``.toml`` / ``.json`` (by extension)."""
    path = Path(path)
    data = spec_to_dict(spec)
    suffix = path.suffix.lower()
    if suffix == ".toml":
        path.write_text(dumps_toml(data), encoding="utf-8")
    elif suffix == ".json":
        path.write_text(json.dumps(data, indent=2) + "\n", encoding="utf-8")
    else:
        raise ConfigError(
            f"unsupported spec file extension {suffix!r} for {path}; "
            f"use .toml or .json")
