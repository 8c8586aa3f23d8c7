"""The declarative campaign specification.

:class:`CampaignSpec` is the single configuration object every layer
of the reproduction consumes: ``run_cell(spec)``,
``run_campaign(spec, store=..., workers=...)``, the figures
and the ``repro-experiments run`` / ``sweep`` CLI all take one frozen,
validated, serializable spec instead of six-plus parallel kwarg lists.
Adding a campaign axis is one field here — not a signature change in
every layer.

Design rules:

* **Frozen + validated.** Construction runs every field through the
  relevant registry (chips, benchmarks, structures, fault models,
  schedulers), so a bad spec fails immediately with a
  :class:`~repro.errors.ConfigError` naming the offending field and
  the valid choices — never as a traceback from deep inside a worker.
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
from dataclasses import dataclass

from repro.arch.config import GpuConfig
from repro.arch.scaling import get_scaled_gpu, list_scaled_gpus
from repro.arch.structures import DATAPATH_STRUCTURES, structure_info
from repro.errors import ConfigError
from repro.kernels.registry import KERNEL_NAMES, SCALES
from repro.sim.scheduler import make_scheduler
from repro.spec.defaults import default_samples, default_scale

# Safe submodule imports: these modules never import repro.spec, and
# ``from package.submodule import name`` resolves even while the
# parent package's __init__ is still executing.
from repro.reliability.epf import RAW_FIT_PER_BIT
from repro.reliability.liveness import AceMode


def _field_error(field: str, message: str) -> ConfigError:
    return ConfigError(f"spec field {field!r}: {message}")


def _as_tuple(field: str, value) -> tuple:
    """Normalize a str / iterable field value to a tuple."""
    if isinstance(value, str):
        return (value,)
    try:
        return tuple(value)
    except TypeError:
        raise _field_error(
            field, f"expected a name or a list of names, got {value!r}"
        ) from None


def _check_int(field: str, value, minimum: int) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise _field_error(field, f"expected an integer, got {value!r}")
    if value < minimum:
        raise _field_error(field, f"must be >= {minimum}, got {value}")
    return value


@dataclass(frozen=True)
class CampaignSpec:
    """One validated, serializable description of a campaign.

    Every field is a campaign *axis*; ``None`` (where allowed) means
    "resolve the default at execution time". Execution resources
    (result store, worker count, progress callbacks) are deliberately
    not part of the spec.
    """

    #: Chips: preset names/aliases (resolved through the scaled
    #: presets) or explicit :class:`GpuConfig` objects. None = all
    #: four paper chips, scaled.
    gpus: tuple | None = None
    #: Benchmark subset by name. None = the full ten-benchmark suite.
    workloads: tuple | None = None
    #: Workload input scale. None = REPRO_SCALE or "small".
    scale: str | None = None
    #: FI samples per structure. None = REPRO_FI_SAMPLES or 150.
    samples: int | None = None
    #: RNG seed for fault sampling.
    seed: int = 0
    #: Warp scheduling policy ("rr" or "gto").
    scheduler: str = "rr"
    #: Fault-site structure subset (registry names). None = the
    #: paper's datapath pair (register_file, local_memory).
    structures: tuple | None = None
    #: Fault model registry name (transient / stuck_at / mbu).
    fault_model: str = "transient"
    #: ACE liveness analysis mode.
    ace_mode: AceMode = AceMode.CONSERVATIVE
    #: Golden-run snapshot stride for suffix-only FI: None (off),
    #: "auto" (self-tuning), or a cycle count.
    checkpoint_interval: int | str | None = None
    #: Live fault plans per FI shard job. None = engine default.
    shard_size: int | None = None
    #: Raw soft-error FIT per storage bit (the EPF scale factor).
    raw_fit_per_bit: float = RAW_FIT_PER_BIT
    #: Engine telemetry: None/False = off, True = JSONL event stream
    #: next to the result store, a path = JSONL there. Strictly
    #: observability-only — never part of any job fingerprint, and the
    #: result store is bit-identical with it on or off.
    telemetry: bool | str | None = None
    #: Hot-path profiling (phase timers + dispatch counters feeding
    #: ``cell_profile``/``campaign_profile`` telemetry events and the
    #: ``profile STORE`` report): None/False = off, True = on. Same
    #: guarantee as ``telemetry``: never part of any job fingerprint,
    #: result stores bit-identical with it on or off.
    profile: bool | None = None
    #: Cross-sample suffix memoization (:mod:`repro.checkpoint.memo`):
    #: None = on (the default), False = off. Takes effect only with
    #: checkpointing enabled; derived state like checkpoints — results
    #: bit-identical on or off, never part of any job fingerprint.
    suffix_memo: bool | None = None
    #: Campaign-service coordinator URL (``http://host:port``) this
    #: spec is meant to run against — the default target of
    #: ``repro-experiments submit``. An execution resource like
    #: ``suffix_memo``: never part of any job fingerprint, and a
    #: distributed store is bit-identical to a local one.
    coordinator: str | None = None
    #: Campaign-service lease TTL in seconds: how long a leased job may
    #: go without a worker heartbeat before the coordinator re-queues
    #: it. None = the service default (30s). Fingerprint-transparent.
    lease_ttl_s: int | float | None = None
    #: Optional human-readable label (spec files, sweep tables). Not
    #: part of any job fingerprint.
    name: str | None = None

    # ------------------------------------------------------------------
    # Validation (every field, friendly errors)
    # ------------------------------------------------------------------

    def __post_init__(self):
        set_ = object.__setattr__
        if self.gpus is not None:
            gpus = _as_tuple("gpus", self.gpus)
            for gpu in gpus:
                if isinstance(gpu, GpuConfig):
                    continue
                if not isinstance(gpu, str):
                    raise _field_error(
                        "gpus",
                        f"expected a chip name or GpuConfig, got {gpu!r}")
                try:
                    get_scaled_gpu(gpu)
                except ConfigError as error:
                    raise _field_error("gpus", str(error)) from None
            set_(self, "gpus", gpus)
        if self.workloads is not None:
            workloads = _as_tuple("workloads", self.workloads)
            for workload in workloads:
                if workload not in KERNEL_NAMES:
                    raise _field_error(
                        "workloads",
                        f"unknown benchmark {workload!r}; "
                        f"known: {', '.join(KERNEL_NAMES)}")
            set_(self, "workloads", workloads)
        if self.scale is not None and self.scale not in SCALES:
            raise _field_error(
                "scale",
                f"unknown scale {self.scale!r}; known: {', '.join(SCALES)}")
        if self.samples is not None:
            _check_int("samples", self.samples, 1)
        _check_int("seed", self.seed, 0)
        try:
            make_scheduler(self.scheduler)
        except ConfigError as error:
            raise _field_error("scheduler", str(error)) from None
        if self.structures is not None:
            structures = _as_tuple("structures", self.structures)
            if not structures:
                raise _field_error(
                    "structures", "needs at least one structure name")
            for structure in structures:
                try:
                    structure_info(structure)
                except ConfigError as error:
                    raise _field_error("structures", str(error)) from None
            # Dedupe, keep first-mention order (matches the CLI flag).
            set_(self, "structures", tuple(dict.fromkeys(structures)))
        from repro.faultmodels.registry import fault_model_name
        try:
            set_(self, "fault_model", fault_model_name(self.fault_model))
        except ConfigError as error:
            raise _field_error("fault_model", str(error)) from None
        if not isinstance(self.ace_mode, AceMode):
            try:
                set_(self, "ace_mode", AceMode(self.ace_mode))
            except ValueError:
                raise _field_error(
                    "ace_mode",
                    f"unknown mode {self.ace_mode!r}; known: "
                    f"{', '.join(m.value for m in AceMode)}") from None
        if self.checkpoint_interval is not None \
                and self.checkpoint_interval != "auto":
            _check_int("checkpoint_interval", self.checkpoint_interval, 1)
        if self.shard_size is not None:
            _check_int("shard_size", self.shard_size, 1)
        if isinstance(self.raw_fit_per_bit, bool) \
                or not isinstance(self.raw_fit_per_bit, (int, float)):
            raise _field_error(
                "raw_fit_per_bit",
                f"expected a number, got {self.raw_fit_per_bit!r}")
        set_(self, "raw_fit_per_bit", float(self.raw_fit_per_bit))
        if self.raw_fit_per_bit <= 0:
            raise _field_error(
                "raw_fit_per_bit",
                f"must be > 0, got {self.raw_fit_per_bit}")
        if self.telemetry is not None and not isinstance(
                self.telemetry, bool):
            if not isinstance(self.telemetry, str):
                raise _field_error(
                    "telemetry",
                    f"expected true/false or a JSONL path, "
                    f"got {self.telemetry!r}")
            if not self.telemetry:
                raise _field_error(
                    "telemetry", "path must be a non-empty string")
        if self.profile is not None and not isinstance(self.profile, bool):
            raise _field_error(
                "profile",
                f"expected true/false, got {self.profile!r}")
        if self.suffix_memo is not None and not isinstance(
                self.suffix_memo, bool):
            raise _field_error(
                "suffix_memo",
                f"expected true/false, got {self.suffix_memo!r}")
        if self.coordinator is not None:
            if not isinstance(self.coordinator, str) \
                    or not self.coordinator.startswith(("http://",
                                                        "https://")):
                raise _field_error(
                    "coordinator",
                    f"expected a coordinator URL like http://host:port, "
                    f"got {self.coordinator!r}")
        if self.lease_ttl_s is not None:
            if isinstance(self.lease_ttl_s, bool) \
                    or not isinstance(self.lease_ttl_s, (int, float)):
                raise _field_error(
                    "lease_ttl_s",
                    f"expected a number of seconds, got "
                    f"{self.lease_ttl_s!r}")
            if self.lease_ttl_s <= 0:
                raise _field_error(
                    "lease_ttl_s",
                    f"must be > 0, got {self.lease_ttl_s}")
        if self.name is not None and not isinstance(self.name, str):
            raise _field_error(
                "name", f"expected a string, got {self.name!r}")

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
            if key not in SPEC_FIELDS:
                raise ConfigError(
                    f"unknown spec key {key!r}; "
                    f"valid keys: {', '.join(SPEC_FIELDS)}")
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

#: Fields holding name *sets* (a tuple value is one campaign's worth
#: of names) — drives both sweep-axis normalization and CLI parsing,
#: so a new tuple-typed field is declared here exactly once.
TUPLE_FIELDS: tuple = ("gpus", "workloads", "structures")

#: Integer-typed fields — drives CLI value parsing and ``a..b``
#: range expansion for sweep axes.
INT_FIELDS: tuple = ("samples", "seed", "shard_size")


def check_spec_keys(keys, *, context: str) -> None:
    """Raise :class:`ConfigError` for any key that is not a spec field."""
    for key in keys:
        if key not in SPEC_FIELDS:
            raise ConfigError(
                f"unknown spec key {key!r} in {context}; "
                f"valid keys: {', '.join(SPEC_FIELDS)}")


def require_spec(spec, *, who: str) -> CampaignSpec:
    """Return ``spec``, or raise :class:`ConfigError` if it is not a spec."""
    if not isinstance(spec, CampaignSpec):
        raise ConfigError(
            f"{who}() expects a CampaignSpec as its first argument, "
            f"got {type(spec).__name__}")
    return spec
