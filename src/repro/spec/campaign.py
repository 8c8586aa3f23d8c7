"""The declarative campaign specification.

:class:`CampaignSpec` is the single configuration object every layer
of the reproduction consumes: ``run_cell(spec)``,
``run_campaign(spec, store=..., workers=...)``, the figures
and the ``repro-experiments run`` / ``sweep`` CLI all take one frozen,
validated, serializable spec instead of six-plus parallel kwarg lists.
Adding a campaign axis is one field here plus its :data:`SPEC_TABLE`
entry — not a signature change in every layer.

Design rules:

* **Frozen + validated.** Construction runs every field through the
  relevant registry (chips, benchmarks, structures, fault models,
  schedulers), so a bad spec fails immediately with a
  :class:`~repro.errors.ConfigError` naming the offending field and
  the valid choices — never as a traceback from deep inside a worker.
* **One table.** Each field's check, command-line text parser, help
  and figure flag is its :data:`SPEC_TABLE` entry; construction, spec
  files, ``--set``/``--axis`` and the figure flags all read it.
* **What, not how.** The spec describes the campaign (which chips,
  which benchmarks, how many samples, which fault model...); execution
  resources — ``store``, ``workers``, ``progress`` — stay explicit
  arguments of the entry points, so one spec can run serially on a
  laptop or across a pool without edits.
* **Fingerprint-stable.** Spec fields map one-to-one onto the
  engine's golden/plan/shard/cell fingerprint parameters, so result
  stores written before the spec API resume with zero jobs executed.
* **``None`` means default.** Unset fields resolve at execution time
  (all chips, the full suite, env-default scale/samples, the paper's
  datapath structure pair), so figures can tell "user chose X" from
  "use my figure's default".

Serialization (``to_file``/``from_file`` for TOML and JSON) lives in
:mod:`repro.spec.files`; axis products (``spec.sweep(...)``) in
:mod:`repro.spec.sweep`.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Callable

from repro.arch.config import GpuConfig, LatencyModel
from repro.arch.scaling import get_scaled_gpu, list_scaled_gpus
from repro.arch.structures import (
    DATAPATH_STRUCTURES,
    STRUCTURE_REGISTRY,
    structure_info,
)
from repro.errors import ConfigError
from repro.kernels.registry import KERNEL_NAMES, SCALES
from repro.sim.scheduler import make_scheduler
from repro.spec.defaults import default_samples, default_scale

# Safe submodule imports: these modules never import repro.spec, and
# ``from package.submodule import name`` resolves even while the
# parent package's __init__ is still executing.
from repro.reliability.epf import RAW_FIT_PER_BIT
from repro.reliability.liveness import AceMode


@dataclass(frozen=True)
class CampaignSpec:
    """One validated, serializable description of a campaign.

    Every field is a campaign *axis*; ``None`` (where allowed) means
    "resolve the default at execution time". Each field's meaning,
    check, command-line text form and figure flag are its entry in
    :data:`SPEC_TABLE`. Chips may be preset names/aliases or explicit
    :class:`GpuConfig` objects. Execution resources (result store,
    worker count, progress callbacks) are deliberately not part of the
    spec; neither ``telemetry``, ``profile``, ``suffix_memo``,
    ``coordinator``, ``lease_ttl_s`` nor ``name`` joins any job
    fingerprint.
    """

    gpus: tuple | None = None
    workloads: tuple | None = None
    scale: str | None = None
    samples: int | None = None
    seed: int = 0
    scheduler: str = "rr"
    structures: tuple | None = None
    fault_model: str = "transient"
    ace_mode: AceMode = AceMode.CONSERVATIVE
    checkpoint_interval: int | str | None = None
    shard_size: int | None = None
    raw_fit_per_bit: float = RAW_FIT_PER_BIT
    telemetry: bool | str | None = None
    profile: bool | None = None
    suffix_memo: bool | None = None
    coordinator: str | None = None
    lease_ttl_s: float | None = None
    name: str | None = None

    def __post_init__(self):
        fields = self.__dataclass_fields__
        for entry in SPEC_TABLE:
            value = getattr(self, entry.name)
            # None means "the default" wherever the default is None.
            if value is not None or fields[entry.name].default is not None:
                object.__setattr__(self, entry.name, entry.check(value))

    # ------------------------------------------------------------------
    # Resolution (None -> concrete defaults, at execution time)
    # ------------------------------------------------------------------

    def resolved_gpus(self) -> list[GpuConfig]:
        """Chip configs: names through the scaled presets, configs as-is."""
        if self.gpus is None:
            return list_scaled_gpus()
        return [get_scaled_gpu(gpu) if isinstance(gpu, str) else gpu
                for gpu in self.gpus]

    def resolved_workloads(self) -> list[str]:
        return list(self.workloads) if self.workloads is not None \
            else list(KERNEL_NAMES)

    def resolved_scale(self) -> str:
        return self.scale if self.scale is not None else default_scale()

    def resolved_samples(self) -> int:
        return self.samples if self.samples is not None else default_samples()

    def resolved_structures(self) -> tuple:
        return self.structures if self.structures is not None \
            else DATAPATH_STRUCTURES

    def resolved_suffix_memo(self) -> bool:
        return True if self.suffix_memo is None else self.suffix_memo

    def resolved_shard_size(self) -> int:
        if self.shard_size is not None:
            return self.shard_size
        from repro.engine.matrix import DEFAULT_SHARD_SIZE
        return DEFAULT_SHARD_SIZE

    def single(self) -> tuple[GpuConfig, str]:
        """The (config, workload) of a one-cell spec (``run_cell``)."""
        gpus = self.resolved_gpus()
        workloads = self.resolved_workloads()
        if len(gpus) != 1 or len(workloads) != 1:
            raise ConfigError(
                f"run_cell needs a spec naming exactly one GPU and one "
                f"workload, got {len(gpus)} GPUs x {len(workloads)} "
                f"workloads")
        return gpus[0], workloads[0]

    # ------------------------------------------------------------------
    # Derivation
    # ------------------------------------------------------------------

    def replace(self, **changes) -> CampaignSpec:
        """A new spec with ``changes`` applied (and re-validated)."""
        for key in changes:
            spec_field(key, context="CampaignSpec.replace()")
        return dataclasses.replace(self, **changes)

    def sweep(self, **axes) -> list:
        """Child specs for the product of per-field value lists.

        See :func:`repro.spec.sweep.expand_sweep`.
        """
        from repro.spec.sweep import expand_sweep
        return expand_sweep(self, axes)

    # ------------------------------------------------------------------
    # Serialization (implemented in repro.spec.files)
    # ------------------------------------------------------------------

    def to_dict(self) -> dict:
        """Plain-data dict (None fields omitted); inverse of from_dict."""
        from repro.spec.files import spec_to_dict
        return spec_to_dict(self)

    @classmethod
    def from_dict(cls, data: dict) -> CampaignSpec:
        """Build + validate from plain data; unknown keys are errors."""
        from repro.spec.files import spec_from_dict
        return spec_from_dict(data)

    def to_file(self, path) -> None:
        """Write the spec as TOML or JSON (by file extension)."""
        from repro.spec.files import save_spec
        save_spec(self, path)

    @classmethod
    def from_file(cls, path) -> CampaignSpec:
        """Load + validate a TOML/JSON spec file."""
        from repro.spec.files import load_spec
        return load_spec(path)

    def describe(self) -> str:
        """One-line human summary (sweep tables, CLI banners)."""
        gpus = self.gpus if self.gpus is not None else "all"
        workloads = self.workloads if self.workloads is not None else "all"
        label = f"{self.name}: " if self.name else ""
        return (f"{label}gpus={gpus} workloads={workloads} "
                f"scale={self.resolved_scale()} "
                f"samples={self.resolved_samples()} seed={self.seed} "
                f"structures={','.join(self.resolved_structures())} "
                f"fault_model={self.fault_model}")


#: Spec field names in declaration order — the valid keys for spec
#: files, ``--set`` overrides and sweep axes.
SPEC_FIELDS: tuple = tuple(
    f.name for f in dataclasses.fields(CampaignSpec)
)


# ----------------------------------------------------------------------
# The spec-field table: each field's check, text parser, help and flag
# ----------------------------------------------------------------------
#
# Checks and text parsers raise ConfigError with a bare message;
# SpecField.check / SpecField.parse prefix it with the field's name.

def _as_tuple(value) -> tuple:
    if isinstance(value, str):
        return (value,)
    try:
        return tuple(value)
    except TypeError:
        raise ConfigError(
            f"expected a name or a list of names, got {value!r}") from None


def _names(check_one):
    """Check of a name set: a name or a list, each through ``check_one``."""
    return lambda value: tuple(check_one(item) for item in _as_tuple(value))


def _one_of(known, what: str):
    def check(value):
        if value not in known:
            raise ConfigError(
                f"unknown {what} {value!r}; known: {', '.join(known)}")
        return value
    return check


def _integer(minimum: int):
    def check(value):
        if isinstance(value, bool) or not isinstance(value, int):
            raise ConfigError(f"expected an integer, got {value!r}")
        if value < minimum:
            raise ConfigError(f"must be >= {minimum}, got {value}")
        return value
    return check


def _positive_number(value) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"expected a number, got {value!r}")
    if not math.isfinite(value) or value <= 0:
        raise ConfigError(f"must be a finite number > 0, got {value}")
    return float(value)


def _typed(kind, expected: str):
    def check(value):
        if not isinstance(value, kind):
            raise ConfigError(f"expected {expected}, got {value!r}")
        return value
    return check


#: A registry key: refuse lists and tables before they reach a lookup.
_name = _typed(str, "a name")


def _check_gpu(gpu):
    if isinstance(gpu, dict):  # an embedded GpuConfig table (JSON files)
        try:
            params = dict(gpu)
            latency = params.pop("latency", None)
            if latency is not None:
                params["latency"] = LatencyModel(**latency)
            return GpuConfig(**params)
        except TypeError as error:
            raise ConfigError(
                f"bad embedded GpuConfig table: {error}") from None
    if isinstance(gpu, str):
        get_scaled_gpu(gpu)  # raises naming the known chips
    elif not isinstance(gpu, GpuConfig):
        raise ConfigError(f"expected a chip name or GpuConfig, got {gpu!r}")
    return gpu


def _check_scheduler(value):
    make_scheduler(_name(value))  # raises naming the known policies
    return value


def _check_structures(value):
    structures = _as_tuple(value)
    if not structures:
        raise ConfigError("needs at least one structure name")
    for structure in structures:
        structure_info(_name(structure))  # raises naming the registry
    return tuple(dict.fromkeys(structures))  # dedupe, keep order


def _check_fault_model(value):
    from repro.faultmodels.registry import fault_model_name
    return fault_model_name(_name(value))


def _fault_model_names():
    from repro.faultmodels.registry import list_fault_models
    return list_fault_models()


def _check_ace_mode(value):
    try:
        return AceMode(value)
    except ValueError:
        raise ConfigError(
            f"unknown mode {value!r}; known: "
            f"{', '.join(m.value for m in AceMode)}") from None


def _check_interval(value):
    return value if value == "auto" else _integer(1)(value)


def _check_telemetry(value):
    if isinstance(value, bool):
        return value
    if not isinstance(value, str):
        raise ConfigError(
            f"expected true/false or a JSONL path, got {value!r}")
    if not value:
        raise ConfigError("path must be a non-empty string")
    return value


def _check_coordinator(value):
    if not isinstance(value, str) \
            or not value.startswith(("http://", "https://")):
        raise ConfigError(
            f"expected a coordinator URL like http://host:port, "
            f"got {value!r}")
    return value


def _text(text: str) -> str:
    return text


def _read_names(text: str) -> tuple:
    """Names joined by ``,`` (by ``+`` inside one sweep-axis point)."""
    names = tuple(name for name in text.replace("+", ",").split(",")
                  if name)
    if not names:
        raise ConfigError(
            f"expected a comma-separated name list, got {text!r}")
    return names


def _read_int(text: str):
    """An integer; an inclusive ``a..b`` range is the list of its values."""
    lo, dots, hi = text.partition("..")
    try:
        if not dots:
            return int(text)
        values = list(range(int(lo), int(hi) + 1))
    except ValueError:
        raise ConfigError(
            f"expected an integer or an a..b range, got {text!r}") from None
    if not values:
        raise ConfigError(f"empty range {text!r}")
    return values


def _read_number(text: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise ConfigError(f"expected a number, got {text!r}") from None


def _read_switch(text: str) -> bool:
    low = text.lower()
    if low in ("true", "on", "1", "yes"):
        return True
    if low in ("false", "off", "0", "no", "none"):
        return False
    raise ConfigError(f"expected true/false, got {text!r}")


def _read_telemetry(text: str):
    try:
        return _read_switch(text)
    except ConfigError:
        return text  # a JSONL path


def _read_interval(text: str):
    if text in ("none", "off"):
        return None
    if text == "auto":
        return text
    try:
        return int(text)
    except ValueError:
        raise ConfigError(
            f"expected 'auto', 'none' or a cycle count, got {text!r}"
        ) from None


@dataclass(frozen=True)
class Flag:
    """A spec field's flag on the figure subcommands (``fig1`` ...)."""

    metavar: str | None = None
    #: ``"+"``: a name set given as several words.
    nargs: str | None = None
    #: Zero-argument callable listing the accepted values (registries
    #: load only when a parser is built).
    choices: Callable | None = None
    #: False when the field has no ``--FIELD`` flag, only ``off``.
    on: bool = True
    #: ``(switch, help, value)``: a ``--no-...`` switch setting ``value``.
    off: tuple | None = None
    #: The value when no flag is given; None keeps the spec's default.
    default: object = None


@dataclass(frozen=True)
class SpecField:
    """One :class:`CampaignSpec` field: its check, text parser and help."""

    name: str
    #: What the field means; also its command-line help.
    help: str
    #: value -> normalized value; raises ConfigError.
    normalize: Callable
    #: Command-line text -> value (``--set``, ``--axis``, figure flags).
    #: A list is several sweep-axis points.
    read: Callable = _text
    flag: Flag | None = None

    @property
    def option(self) -> str:
        return "--" + self.name.replace("_", "-")

    def check(self, value):
        """``value`` normalized, or a ConfigError naming the field."""
        try:
            return self.normalize(value)
        except ConfigError as error:
            raise ConfigError(f"spec field {self.name!r}: {error}") from None

    def parse(self, text: str):
        """The value of command-line ``text`` (check it with :meth:`check`)."""
        try:
            return self.read(text)
        except ConfigError as error:
            raise ConfigError(f"spec field {self.name!r}: {error}") from None

    def points(self, text: str) -> list:
        """The values of one ``--axis FIELD=P1,P2,...`` sweep axis.

        An integer point may be an inclusive ``a..b`` range; a name-set
        point joins its names with ``+``.
        """
        points: list = []
        for part in filter(None, text.split(",")):
            value = self.parse(part)
            points.extend(value if isinstance(value, list) else [value])
        if not points:
            raise ConfigError(f"sweep axis {self.name!r} has no values")
        return points


#: One entry per :class:`CampaignSpec` field, in declaration order.
SPEC_TABLE: tuple = (
    SpecField(
        "gpus", "chip subset by name/alias (default: all four, scaled)",
        _names(_check_gpu), _read_names, Flag(metavar="GPU", nargs="+")),
    SpecField(
        "workloads", "benchmark subset",
        _names(_one_of(KERNEL_NAMES, "benchmark")), _read_names,
        Flag(metavar="BENCH", nargs="+", choices=lambda: KERNEL_NAMES)),
    SpecField(
        "scale", "workload input scale (default: REPRO_SCALE or small)",
        _one_of(SCALES, "scale"), flag=Flag(choices=lambda: SCALES)),
    SpecField(
        "samples", "fault injections per structure (paper: 2000; default: "
                   "REPRO_FI_SAMPLES or 150)",
        _integer(1), _read_int, Flag()),
    SpecField(
        "seed", "RNG seed for fault sampling (default: 0)",
        _integer(0), _read_int, Flag()),
    SpecField(
        "scheduler", "warp scheduling policy: rr or gto (default: rr)",
        _check_scheduler),
    SpecField(
        "structures",
        "retarget the campaign at these structures (space- or "
        f"comma-separated; registry: {', '.join(STRUCTURE_REGISTRY)}; "
        "default: each experiment's own set)",
        _check_structures, _read_names, Flag(metavar="STRUCT", nargs="+")),
    SpecField(
        "fault_model", "fault model for the campaign: %(choices)s (default: "
                       "transient, the paper's single-bit-flip model)",
        _check_fault_model,
        flag=Flag(metavar="MODEL", choices=_fault_model_names)),
    SpecField(
        "ace_mode", "ACE liveness analysis mode: conservative or "
                    "lane_masked (default: conservative)",
        _check_ace_mode),
    SpecField(
        "checkpoint_interval",
        "golden-run snapshot stride in cycles for suffix-only fault "
        "injection (default: auto — self-tuning doubling schedule; any "
        "value gives identical results)",
        _check_interval, _read_interval,
        Flag(metavar="CYCLES", default="auto", off=(
            "--no-checkpoints",
            "disable golden-run snapshots: re-simulate every live fault "
            "from cycle zero (bit-identical, slower)", None))),
    SpecField(
        "shard_size", "live fault plans per FI-shard job (default: 24; any "
                      "value gives identical results)",
        _integer(1), _read_int, Flag(metavar="N")),
    SpecField(
        "raw_fit_per_bit", "raw soft-error FIT per storage bit (the EPF "
                           "scale factor)",
        _positive_number, _read_number),
    SpecField(
        "telemetry", "engine telemetry: true for a JSONL event stream next "
                     "to the result store, or its path. Observability-only",
        _check_telemetry, _read_telemetry),
    SpecField(
        "profile", "collect the hot-path profile (phase timers, dispatch "
                   "counters) into the telemetry stream, for 'profile "
                   "STORE'. Observability-only",
        _typed(bool, "true/false"), _read_switch),
    SpecField(
        "suffix_memo", "cross-sample suffix memoization (default: on; "
                       "engages only with checkpoints; bit-identical "
                       "results)",
        _typed(bool, "true/false"), _read_switch,
        Flag(on=False, off=(
            "--no-suffix-memo",
            "disable cross-sample suffix memoization (bit-identical; "
            "measured campaigns ran no slower without it)", False))),
    SpecField(
        "coordinator", "campaign-service coordinator URL (http://host:port), "
                       "the default target of 'submit'",
        _check_coordinator),
    SpecField(
        "lease_ttl_s", "seconds a leased job may go without a worker "
                       "heartbeat before it is re-queued (default: the "
                       "spec's lease_ttl_s, or 30)",
        _positive_number, _read_number),
    SpecField(
        "name", "human-readable label (spec files, sweep tables)",
        _typed(str, "a string")),
)

_BY_NAME = {entry.name: entry for entry in SPEC_TABLE}


def spec_field(key, *, context: str = "CampaignSpec") -> SpecField:
    """The table entry of spec field ``key``; ConfigError if unknown."""
    try:
        return _BY_NAME[key]
    except KeyError:
        raise ConfigError(
            f"unknown spec key {key!r} in {context}; "
            f"valid keys: {', '.join(SPEC_FIELDS)}") from None

def require_spec(spec, *, who: str) -> CampaignSpec:
    """Return ``spec``, or raise :class:`ConfigError` if it is not a spec."""
    if not isinstance(spec, CampaignSpec):
        raise ConfigError(
            f"{who}() expects a CampaignSpec as its first argument, "
            f"got {type(spec).__name__}")
    return spec
