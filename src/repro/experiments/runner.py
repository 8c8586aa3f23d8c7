"""Command-line entry point for the figures and spec-file campaigns.

Campaigns are configured by one declarative
:class:`repro.spec.CampaignSpec` object, and the CLI is a thin layer
of argparse *subcommands* over it, sharing one set of option groups:

* the figure subcommands (``fig1`` ``fig2`` ``fig3`` ``control``
  ``models`` ``all``) build a spec from their campaign flags and run
  the matching :data:`repro.experiments.figures.FIGURES` entry;
* ``run path/to/spec.toml`` executes a TOML/JSON spec file, with
  ``--set key=value`` overrides of single spec fields;
* ``sweep path/to/spec.toml --axis key=v1,v2 ...`` expands the spec
  by an axis product (``--axis`` repeats), runs every child campaign
  against one shared result store and golden cache, and prints a
  per-axis summary table;
* ``status STORE`` renders the campaign monitor for a result store —
  per-kind job counts, cache hit rates, worker occupancy, injection
  throughput and (for an in-progress campaign) an ETA — from the
  telemetry stream recorded next to the store
  (:mod:`repro.telemetry`). ``--follow`` live-tails the stream,
  refreshing the panel as a running campaign appends events
  (``--once`` renders a single refresh and exits, for scripts);
* ``profile STORE`` renders the hot-path profiling report — per-phase
  wall-time breakdown, per-ISA opcode-class dispatch mix, counters and
  top cost centers — from the ``cell_profile``/``campaign_profile``
  events a campaign run with ``--profile`` (or ``profile = true`` in
  the spec) records (:mod:`repro.telemetry.profile`);
* ``serve SPEC... --store S`` runs the distributed campaign
  coordinator (:mod:`repro.engine.service`): it expands the specs into
  the ordinary job graph and leases ready jobs over JSON-HTTP to
  ``worker URL`` processes, which execute them with the standard
  engine worker functions and push results back; ``submit URL SPEC``
  queues more campaigns onto a live coordinator. Distributed stores
  are bit-identical to local ones, and a worker killed mid-campaign is
  recovered by lease expiry.

Campaigns run on the job-graph execution engine: golden runs are
shared between figures, ``--workers`` runs whole (GPU, benchmark)
cells concurrently, and ``--resume STORE`` persists every finished
job so a killed campaign picks up where it left off and identical
re-invocations execute nothing. A summary line (jobs total / cached /
executed) is printed after each run. Spec fields map onto the same
job fingerprints that stores written before the spec API hold, so
those resume with zero jobs executed.

Every spec field's check, text form (``--set``, ``--axis``), help and
figure flag is its entry in :data:`repro.spec.SPEC_TABLE`; this module
only places those flags and reads them back. Bad values and unknown
keys exit 2 with a message naming the flag or field and, for
registries, the valid choices. ``run``/``sweep``/``serve`` also take
``--telemetry [PATH]`` / ``--profile`` (and their ``--no-`` forms),
overriding the spec's own fields; both are observability-only.

Examples::

    repro-experiments fig1 --samples 200 --scale small --out results/fig1.csv
    repro-experiments fig3 --gpus gtx480 hd7970 --workloads matrixMul kmeans
    repro-experiments fig1 --fault-model stuck_at --samples 200
    repro-experiments models --workers 8 --resume results/store.jsonl
    repro-experiments all --workers 8 --resume results/store.jsonl
    repro-experiments run examples/specs/smoke_fig1.toml
    repro-experiments run campaign.toml --set samples=500 --set scale=small
    repro-experiments run campaign.toml --resume results/store.jsonl --telemetry
    repro-experiments sweep campaign.toml --axis fault_model=transient,stuck_at \
        --axis seed=0..2 --resume results/sweep.jsonl
    repro-experiments status results/store.jsonl
    repro-experiments serve campaign.toml --store results/shared.jsonl --port 8642
    repro-experiments worker http://127.0.0.1:8642
    repro-experiments submit --url http://127.0.0.1:8642 another.toml
    repro-experiments control --structures simt_stack,predicate_file
    repro-experiments --list-gpus
    repro-experiments --list-fault-models
    repro-experiments --list-structures
    python -m repro.experiments all --samples 100
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from pathlib import Path

from repro.arch.presets import GPU_ALIASES, GPU_PRESETS
from repro.arch.structures import STRUCTURE_REGISTRY
from repro.engine import CampaignStats, ResultStore
from repro.errors import ConfigError
from repro.experiments.figures import FIGURES, run_figure
from repro.faultmodels.registry import FAULT_MODELS
from repro.kernels.registry import KERNEL_NAMES, get_workload
from repro.reliability.report import format_avf_figure, write_cells_csv
from repro.spec import (
    SPEC_FIELDS,
    SPEC_TABLE,
    CampaignSpec,
    SpecField,
    run_sweep,
    spec_field,
)

#: ``all`` reproduces the paper's figures (control and models are
#: opt-in).
_PAPER_FIGURES = ("fig1", "fig2", "fig3")


# ----------------------------------------------------------------------
# Shared option groups (argparse parent parsers)
# ----------------------------------------------------------------------

def _campaign_parent() -> argparse.ArgumentParser:
    """The figure subcommands' campaign-axis flags: every spec field's
    figure flag from :data:`repro.spec.SPEC_TABLE`."""
    parent = argparse.ArgumentParser(add_help=False)
    group = parent.add_argument_group("campaign axes")
    for field in SPEC_TABLE:
        flag = field.flag
        if flag is not None and flag.on:
            group.add_argument(
                field.option, dest=field.name, nargs=flag.nargs,
                metavar=flag.metavar, help=field.help,
                choices=flag.choices() if flag.choices else None)
        if flag is not None and flag.off:
            switch, text, _ = flag.off
            group.add_argument(switch, dest=f"no_{field.name}",
                               action="store_true", help=text)
    return parent


def _exec_parent() -> argparse.ArgumentParser:
    """Execution-resource flags shared by every campaign subcommand."""
    parent = argparse.ArgumentParser(add_help=False)
    group = parent.add_argument_group("execution")
    group.add_argument(
        "--workers", type=int, default=1,
        help="process-pool size; cells run concurrently across the pool "
             "(default: serial; results are identical for any value)",
    )
    group.add_argument(
        "--resume", default=None, metavar="STORE",
        help="persistent result store (JSONL): finished jobs are loaded "
             "instead of re-executed, new ones are appended — interrupted "
             "campaigns resume, repeated ones are incremental",
    )
    group.add_argument(
        "--out", default=None, metavar="CSV",
        help="also write the cells to this CSV path (figure name is "
             "appended when running 'all')",
    )
    group.add_argument(
        "--quiet", action="store_true",
        help="suppress the per-cell progress lines",
    )
    return parent


def _telemetry_parent() -> argparse.ArgumentParser:
    """The ``run``/``sweep`` telemetry flags (observability stream)."""
    parent = argparse.ArgumentParser(add_help=False)
    group = parent.add_argument_group("telemetry")
    group.add_argument(
        "--telemetry", nargs="?", const=True, default=None, metavar="PATH",
        help="record the engine telemetry event stream as JSONL — next to "
             "the --resume store when PATH is omitted; overrides the "
             "spec's own 'telemetry' field. Observability-only: results "
             "are bit-identical with or without it",
    )
    group.add_argument(
        "--no-telemetry", action="store_true",
        help="force telemetry off even when the spec file enables it",
    )
    group.add_argument(
        "--profile", action="store_true", default=None,
        help="collect the hot-path profile (per-phase timers, dispatch "
             "counters) into the telemetry stream, for 'profile STORE'; "
             "overrides the spec's own 'profile' field. Observability-"
             "only: results are bit-identical with or without it",
    )
    group.add_argument(
        "--no-profile", action="store_true",
        help="force profiling off even when the spec file enables it",
    )
    return parent


def _add_set_flag(parser: argparse.ArgumentParser, help: str) -> None:
    """The repeatable ``--set KEY=VALUE`` spec-field override."""
    parser.add_argument(
        "--set", action="append", default=None, metavar="KEY=VALUE",
        help=help)


def _add_store_args(parser: argparse.ArgumentParser) -> None:
    """``status``/``profile``: the store and its telemetry stream."""
    parser.add_argument("store", help="path to the result store (JSONL)")
    parser.add_argument(
        "--telemetry", default=None, metavar="PATH",
        help="telemetry JSONL to read (default: the store's "
             ".telemetry.jsonl sibling)",
    )


def _add_list_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--list-gpus", action="store_true",
        help="list the known chips (and their CLI aliases) and exit",
    )
    parser.add_argument(
        "--list-workloads", action="store_true",
        help="list the benchmark suite and exit",
    )
    parser.add_argument(
        "--list-fault-models", action="store_true",
        help="list the registered fault models and exit",
    )
    parser.add_argument(
        "--list-structures", action="store_true",
        help="list the fault-site structure registry (geometry, exposing "
             "ISAs) and exit",
    )


def _build_parser() -> argparse.ArgumentParser:
    campaign = _campaign_parent()
    execution = _exec_parent()
    telemetry = _telemetry_parent()
    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description="Regenerate the figures of Vallero et al., ISPASS 2017 "
                    "— plus the spec-file subcommands 'run SPEC' / "
                    "'sweep SPEC --axis key=v1,v2' and the campaign "
                    "monitor 'status STORE'.",
    )
    _add_list_flags(parser)
    sub = parser.add_subparsers(dest="command", metavar="COMMAND")

    figure_help = {name: figure.help for name, figure in FIGURES.items()}
    figure_help["all"] = "fig1 + fig2 + fig3 in one campaign"
    for name, text in figure_help.items():
        sub.add_parser(
            name, parents=[campaign, execution], help=text,
            description=f"Run the {text} experiment.")

    run_parser = sub.add_parser(
        "run", parents=[execution, telemetry],
        help="execute a TOML/JSON campaign spec file",
        description="Execute a TOML/JSON campaign spec file.")
    run_parser.add_argument("spec", help="path to the .toml/.json spec file")
    _add_set_flag(
        run_parser,
        "override one spec field (repeatable); unknown keys are "
        f"errors — valid: {', '.join(SPEC_FIELDS)}")

    sweep_parser = sub.add_parser(
        "sweep", parents=[execution, telemetry],
        help="expand a spec file by an axis product and run every child",
        description="Expand a spec file by an axis product and run every "
                    "child campaign against one shared store.")
    sweep_parser.add_argument("spec", help="path to the .toml/.json base spec")
    sweep_parser.add_argument(
        "--axis", action="append", default=None, metavar="KEY=V1,V2",
        help="one sweep axis (repeatable, required at least once); "
             "integer axes accept a..b ranges, set-valued axes join "
             "names with '+'",
    )
    _add_set_flag(
        sweep_parser,
        "override one base-spec field before expansion (repeatable)")

    status_parser = sub.add_parser(
        "status",
        help="render the campaign monitor for a result store",
        description="Render the campaign monitor for a result store: "
                    "per-kind job counts, cache hit rates, worker "
                    "occupancy, throughput and ETA, from the telemetry "
                    "stream recorded next to the store.")
    _add_store_args(status_parser)
    status_parser.add_argument(
        "--follow", action="store_true",
        help="live-tail the telemetry stream: re-render the panel as a "
             "running campaign appends events, exit when it completes "
             "(tolerant of a partially written last line)",
    )
    status_parser.add_argument(
        "--once", action="store_true",
        help="with --follow: render one refresh and exit (scripts/CI)",
    )
    status_parser.add_argument(
        "--interval", type=float, default=2.0, metavar="SECONDS",
        help="--follow poll interval (default: 2.0)",
    )

    serve_parser = sub.add_parser(
        "serve", parents=[telemetry],
        help="run the campaign coordinator: lease jobs to HTTP workers",
        description="Run the campaign-service coordinator: expand the "
                    "given spec files into the job graph and lease ready "
                    "jobs to registered workers over JSON-HTTP, appending "
                    "validated results to one shared store. Stores are "
                    "bit-identical to a local process-pool run.")
    serve_parser.add_argument(
        "specs", nargs="+", metavar="SPEC",
        help="TOML/JSON campaign spec file(s) to serve, in order")
    serve_parser.add_argument(
        "--store", required=True, metavar="STORE",
        help="shared persistent result store (JSONL); finished jobs are "
             "loaded instead of re-leased, so pre-service stores resume "
             "with zero jobs executed")
    serve_parser.add_argument(
        "--host", default="127.0.0.1",
        help="bind address (default: 127.0.0.1; use 0.0.0.0 for a "
             "multi-host fleet)")
    serve_parser.add_argument(
        "--port", type=int, default=0,
        help="bind port (default: 0 = pick a free one; the chosen URL "
             "is printed on startup)")
    serve_parser.add_argument(
        "--lease-ttl", default=None, metavar="SECONDS",
        help=spec_field("lease_ttl_s").help)
    _add_set_flag(
        serve_parser,
        "override one spec field on every served spec (repeatable)")
    serve_parser.add_argument(
        "--quiet", action="store_true",
        help="suppress the per-cell progress lines")

    worker_parser = sub.add_parser(
        "worker",
        help="run one campaign-service worker against a coordinator",
        description="Run one campaign worker: register with the "
                    "coordinator, lease ready jobs, execute them with the "
                    "standard engine worker functions, push the payloads "
                    "back, and exit when the coordinator finishes.")
    worker_parser.add_argument(
        "url", help="coordinator URL, e.g. http://127.0.0.1:8642")
    worker_parser.add_argument(
        "--id", default=None, metavar="NAME",
        help="worker id reported to the coordinator "
             "(default: hostname-pid)")
    worker_parser.add_argument(
        "--poll", type=float, default=0.2, metavar="SECONDS",
        help="idle poll interval when no job is ready (default: 0.2)")
    worker_parser.add_argument(
        "--give-up", type=float, default=30.0, metavar="SECONDS",
        help="seconds to retry an unreachable coordinator before "
             "exiting (default: 30)")
    worker_parser.add_argument(
        "--segment-store", default=None, metavar="STORE",
        help="local JSONL segment store: every computed payload is "
             "appended before the push and replayed on the next start, "
             "so a worker killed mid-push loses nothing (the "
             "coordinator merges duplicates idempotently)")
    worker_parser.add_argument(
        "--quiet", action="store_true",
        help="suppress the per-job progress lines")

    submit_parser = sub.add_parser(
        "submit",
        help="queue more campaign specs onto a running coordinator",
        description="POST one or more spec files to a running "
                    "coordinator's /v1/submit endpoint; they are run "
                    "after the campaigns already queued.")
    submit_parser.add_argument(
        "specs", nargs="+", metavar="SPEC",
        help="TOML/JSON campaign spec file(s) to queue")
    submit_parser.add_argument(
        "--url", default=None,
        help="coordinator URL (default: the first spec's own "
             "'coordinator' field)")
    _add_set_flag(
        submit_parser,
        "override one spec field on every submitted spec (repeatable)")

    profile_parser = sub.add_parser(
        "profile",
        help="render the hot-path profiling report for a result store",
        description="Render the hot-path profiling report for a result "
                    "store: per-phase wall-time breakdown, per-ISA "
                    "opcode-class dispatch mix, counters and top cost "
                    "centers, from the cell_profile/campaign_profile "
                    "events a campaign run with --profile recorded.")
    _add_store_args(profile_parser)
    return parser


def _flag_pair(args, name: str):
    """A spec setting from its ``--NAME``/``--no-NAME`` flag pair.

    ``None`` defers to the spec's own field; ``False`` forces it off;
    otherwise the ``--NAME`` value (``True``, or ``--telemetry``'s path).
    """
    value = getattr(args, name, None)
    if getattr(args, f"no_{name}", False):
        if value is not None:
            flag = name.replace("_", "-")
            raise ConfigError(
                f"--{flag} and --no-{flag} are mutually exclusive")
        return False
    return value


def _flag_value(field: SpecField, option: str, text: str):
    """Flag text parsed and checked by its spec field; errors name it."""
    try:
        return field.check(field.parse(text))
    except ConfigError as error:
        raise ConfigError(f"{option}: {error}") from None


def _figure_value(args, field: SpecField):
    """One spec field from its figure flags (None: the spec default)."""
    flag, text = field.flag, getattr(args, field.name, None)
    if getattr(args, f"no_{field.name}", False):
        switch, _, value = flag.off
        if text is not None:
            raise ConfigError(
                f"{switch} and {field.option} are mutually exclusive")
        return value
    if text is None:
        return flag.default
    if isinstance(text, list):  # nargs="+": names, commas allowed too
        text = ",".join(text)
    return _flag_value(field, field.option, text)


def _spec_from_args(args) -> CampaignSpec:
    """The figure subcommands' CampaignSpec (None fields = defaults)."""
    values = ((field.name, _figure_value(args, field))
              for field in SPEC_TABLE if field.flag is not None)
    return CampaignSpec(**{name: value for name, value in values
                           if value is not None})


def _progress(cell):
    print(
        f"  [{time.strftime('%H:%M:%S')}] {cell.gpu:<26} {cell.workload:<12} "
        f"cycles={cell.cycles:<9} fi={cell.fi_time_s:6.1f}s",
        file=sys.stderr,
        flush=True,
    )


def _list_gpus() -> None:
    for name, config in GPU_PRESETS.items():
        aliases = sorted(a for a, full in GPU_ALIASES.items() if full == name)
        print(f"{name:<18} aliases: {', '.join(aliases):<28} "
              f"{config.describe()}")


def _list_workloads() -> None:
    for name in KERNEL_NAMES:
        workload = get_workload(name, "small")
        lmem = "local-memory" if workload.uses_local_memory else "no local mem"
        print(f"{name:<12} [{lmem}]  {workload.description}")


def _list_fault_models() -> None:
    for name, model in FAULT_MODELS.items():
        kind = "permanent" if model.persistent else "transient"
        print(f"{name:<10} [{kind}]  {model.description}")


def _list_structures() -> None:
    for name, info in STRUCTURE_REGISTRY.items():
        kind = "control " if info.control else "datapath"
        isas = "+".join(info.isas)
        print(f"{name:<16} [{kind}] isa: {isas:<8} {info.description}")


# ----------------------------------------------------------------------
# Spec-field value parsing (the `run --set` / `sweep --axis` surface)
# ----------------------------------------------------------------------

def _split_assignment(text: str, *, flag: str) -> tuple[str, str]:
    key, sep, value = text.partition("=")
    if not sep or not key:
        raise ConfigError(
            f"{flag} expects key=value, got {text!r}")
    return key.strip(), value.strip()


def _apply_sets(spec: CampaignSpec, sets: list | None,
                *, flag: str = "--set") -> CampaignSpec:
    for text in sets or ():
        key, value = _split_assignment(text, flag=flag)
        field = spec_field(key, context=f"{flag} {key}=...")
        spec = spec.replace(**{key: field.parse(value)})
    return spec


def _load_spec(path: str, args) -> CampaignSpec:
    """A spec file with the subcommand's ``--set`` overrides applied."""
    return _apply_sets(CampaignSpec.from_file(path), args.set)


# ----------------------------------------------------------------------
# Subcommand bodies
# ----------------------------------------------------------------------

def _main_figures(args) -> int:
    """The figure subcommands: one :data:`FIGURES` entry, or ``all``."""
    spec = _spec_from_args(args)
    names = _PAPER_FIGURES if args.command == "all" else [args.command]
    store = ResultStore(args.resume) if args.resume else None
    try:
        for name in names:
            print(f"== running {name} ==", file=sys.stderr, flush=True)
            stats = CampaignStats()
            cells, report = run_figure(
                name, spec,
                # A named model narrows the models sweep to it; without
                # --fault-model it compares them all.
                fault_models=[spec.fault_model] if args.fault_model
                else None,
                store=store, workers=args.workers,
                progress=None if args.quiet else _progress, stats=stats)
            if args.out:
                write_cells_csv(cells, args.out if args.command != "all"
                                else args.out.replace(".csv", f"_{name}.csv"))
            print(report)
            print()
            print(stats.summary(), file=sys.stderr, flush=True)
    finally:
        if store is not None:
            store.close()
    return 0


def _main_run(args) -> int:
    """``run SPEC``: execute one spec file."""
    spec = _load_spec(args.spec, args)
    telemetry = _flag_pair(args, "telemetry")
    from repro.engine.matrix import run_campaign
    title = spec.name or args.spec
    print(f"== running spec {title} ==", file=sys.stderr, flush=True)
    print(f"   {spec.describe()}", file=sys.stderr, flush=True)
    stats = CampaignStats()
    result = run_campaign(
        spec, store=args.resume, workers=args.workers,
        progress=None if args.quiet else _progress, stats=stats,
        telemetry=telemetry, profile=_flag_pair(args, "profile"))
    anchor = spec.resolved_structures()[0]
    # Cells whose chip does not expose the anchor structure never
    # sampled it; keep them out of the table instead of rendering a
    # fabricated 0.000 (the exposure rule is ISA-dependent).
    sampled = [cell for cell in result.cells if anchor in cell.fi]
    print(format_avf_figure(
        sampled, anchor, f"Campaign {title} — {anchor} AVF"))
    skipped = len(result.cells) - len(sampled)
    if skipped:
        print(f"({skipped} cells omitted from the table: their chips do "
              f"not expose {anchor})", file=sys.stderr)
    if args.out:
        write_cells_csv(result.cells, args.out)
    print(stats.summary(), file=sys.stderr, flush=True)
    return 0


def _main_sweep(args) -> int:
    """``sweep SPEC --axis ...``: spec file x axis product."""
    if not args.axis:
        raise ConfigError(
            "sweep needs at least one --axis key=v1,v2 "
            f"(valid keys: {', '.join(f for f in SPEC_FIELDS if f != 'name')})")
    spec = _load_spec(args.spec, args)
    telemetry = _flag_pair(args, "telemetry")
    axes: dict = {}
    for text in args.axis:
        key, value = _split_assignment(text, flag="--axis")
        field = spec_field(key, context=f"--axis {key}=...")
        if key in axes:
            raise ConfigError(
                f"duplicate sweep axis {key!r}; give each --axis "
                f"once and comma-separate its values")
        axes[key] = field.points(value)
    title = spec.name or args.spec
    total = 1
    for values in axes.values():
        total *= len(values)
    print(f"== sweeping spec {title}: {total} campaigns ==",
          file=sys.stderr, flush=True)
    stats = CampaignStats()
    result = run_sweep(
        spec, axes, store=args.resume, workers=args.workers,
        progress=None if args.quiet else _progress, stats=stats,
        telemetry=telemetry, profile=_flag_pair(args, "profile"))
    print(result.summary())
    if args.out:
        write_cells_csv(result.cells, args.out)
    print(stats.summary(), file=sys.stderr, flush=True)
    return 0


def _store_and_telemetry(args) -> tuple[Path, Path]:
    """``status``/``profile``: the existing store and its telemetry path."""
    from repro.telemetry import telemetry_path_for_store
    store_path = Path(args.store)
    if not store_path.exists():
        raise ConfigError(
            f"result store not found: {store_path} (give the JSONL file a "
            f"campaign wrote via --resume)")
    telemetry_path = (Path(args.telemetry) if args.telemetry
                      else telemetry_path_for_store(store_path))
    return store_path, telemetry_path


def _store_counts(store_path: Path) -> dict:
    store = ResultStore(store_path)
    try:
        return store.counts_by_kind()
    finally:
        store.close()


def _main_status(args) -> int:
    """``status STORE``: the campaign monitor panel."""
    from repro.telemetry import (
        aggregate_events,
        format_status,
        load_telemetry_events,
    )
    store_path, telemetry_path = _store_and_telemetry(args)
    if args.follow or args.once:
        return _follow_status(store_path, telemetry_path,
                              interval=args.interval, once=args.once)
    counts = _store_counts(store_path)
    events, skipped = (load_telemetry_events(telemetry_path)
                       if telemetry_path.exists() else ([], 0))
    print(format_status(store_path, counts, aggregate_events(events),
                        telemetry_path=telemetry_path))
    if skipped:
        print(f"({skipped} partial/unparseable telemetry lines skipped — "
              f"a campaign may still be writing)", file=sys.stderr)
    return 0


def _follow_status(store_path: Path, telemetry_path: Path, *,
                   interval: float, once: bool) -> int:
    """``status --follow``: live-tail the telemetry stream.

    Polls the JSONL for appended events (tolerating the partially
    written last line of an in-flight campaign), re-renders the panel
    when something new arrived, and exits once the stream shows every
    begun campaign completed — or immediately after one render with
    ``--once``.
    """
    from repro.telemetry import TelemetryTail, aggregate_events, format_status
    tail = TelemetryTail(telemetry_path)
    events: list = []
    first = True
    try:
        while True:
            fresh = tail.poll()
            events.extend(fresh)
            if first or fresh:
                status = aggregate_events(events)
                if not first:
                    print()
                print(format_status(store_path, _store_counts(store_path),
                                    status, telemetry_path=telemetry_path),
                      flush=True)
                if tail.skipped:
                    print(f"({tail.skipped} partial/unparseable telemetry "
                          f"lines skipped)", file=sys.stderr, flush=True)
                if once:
                    return 0
                if status.campaigns_begun and not status.in_progress:
                    return 0
                first = False
            time.sleep(interval)
    except KeyboardInterrupt:
        return 0


def _main_serve(args) -> int:
    """``serve SPEC...``: the campaign-service coordinator."""
    from repro.engine.service import CampaignService
    lease_ttl = None if args.lease_ttl is None else _flag_value(
        spec_field("lease_ttl_s"), "--lease-ttl", args.lease_ttl)
    specs = [_load_spec(path, args) for path in args.specs]
    store = ResultStore(args.store)

    def on_campaign(spec, result):
        title = spec.name or spec.describe()
        print(f"== served campaign {title} ==", file=sys.stderr,
              flush=True)
        print(result.stats.summary(), file=sys.stderr, flush=True)

    try:
        service = CampaignService(
            store, specs, host=args.host, port=args.port,
            lease_ttl_s=lease_ttl,
            telemetry=_flag_pair(args, "telemetry"),
            profile=_flag_pair(args, "profile"),
            progress=None if args.quiet else _progress)
        print(f"coordinator listening on {service.url} "
              f"({len(specs)} campaign(s) queued)", flush=True)
        stats = service.run(on_campaign=on_campaign)
        print(stats.summary(), file=sys.stderr, flush=True)
    finally:
        store.close()
    return 0


def _main_worker(args) -> int:
    """``worker URL``: one campaign-service fleet member."""
    from repro.engine.service import CampaignWorker, CoordinatorUnreachable
    segment = ResultStore(args.segment_store) if args.segment_store \
        else None
    worker = CampaignWorker(
        args.url, worker_id=args.id, poll_s=args.poll,
        give_up_s=args.give_up, segment_store=segment, quiet=args.quiet)
    try:
        counters = worker.run()
    except CoordinatorUnreachable as error:
        raise ConfigError(str(error)) from None
    finally:
        if segment is not None:
            segment.close()
    print(f"worker {worker.worker_id}: "
          + ", ".join(f"{k}={v}" for k, v in sorted(counters.items())),
          file=sys.stderr, flush=True)
    return 0


def _main_submit(args) -> int:
    """``submit SPEC...``: queue specs onto a running coordinator."""
    from repro.engine.service import CoordinatorClient, protocol
    specs = [(path, _load_spec(path, args)) for path in args.specs]
    url = args.url or next(
        (spec.coordinator for _, spec in specs
         if spec.coordinator is not None), None)
    if url is None:
        raise ConfigError(
            "submit needs a coordinator: give --url, or set the "
            "'coordinator' field in a spec file")
    client = CoordinatorClient(url)
    for path, spec in specs:
        response = client.post(protocol.SUBMIT_PATH,
                               {"spec": spec.to_dict()})
        if not response.get("ok"):
            raise ConfigError(
                f"coordinator rejected {path}: "
                f"{response.get('error', 'unknown error')}")
        print(f"queued {response.get('queued', path)} on {url}")
    return 0


def _main_profile(args) -> int:
    """``profile STORE``: the hot-path profiling report."""
    from repro.telemetry import (
        aggregate_profiles,
        format_profile,
        load_telemetry_events,
    )
    store_path, telemetry_path = _store_and_telemetry(args)
    if not telemetry_path.exists():
        raise ConfigError(
            f"no telemetry stream at {telemetry_path}; re-run the campaign "
            f"with --profile (or set profile = true in the spec) to record "
            f"one")
    events, skipped = load_telemetry_events(telemetry_path)
    work = [e.get("work_s") for e in events
            if e.get("event") == "campaign_profile"]
    work_s = sum(w for w in work if isinstance(w, (int, float))) or None
    print(format_profile(store_path, aggregate_profiles(events),
                         work_s=work_s))
    if skipped:
        print(f"({skipped} partial/unparseable telemetry lines skipped — "
              f"a campaign may still be writing)", file=sys.stderr)
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if args.list_gpus:
        _list_gpus()
        return 0
    if args.list_workloads:
        _list_workloads()
        return 0
    if args.list_fault_models:
        _list_fault_models()
        return 0
    if args.list_structures:
        _list_structures()
        return 0
    if args.command is None:
        print("error: an experiment "
              f"({'|'.join((*sorted(FIGURES), 'all'))}) or a "
              "subcommand (run|sweep|status|profile|serve|worker|submit) "
              "is required unless "
              "--list-gpus/--list-workloads/--list-fault-models/"
              "--list-structures is given",
              file=sys.stderr)
        return 2
    try:
        if getattr(args, "workers", 1) < 1:
            raise ConfigError(
                f"--workers must be >= 1, got {args.workers}")
        if args.command == "run":
            return _main_run(args)
        if args.command == "sweep":
            return _main_sweep(args)
        if args.command == "status":
            return _main_status(args)
        if args.command == "profile":
            return _main_profile(args)
        if args.command == "serve":
            return _main_serve(args)
        if args.command == "worker":
            return _main_worker(args)
        if args.command == "submit":
            return _main_submit(args)
        return _main_figures(args)
    except ConfigError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # stdout went to a pager/head that quit; not an error. Point
        # stdout at devnull so the interpreter's shutdown flush does
        # not raise a second time.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 0


if __name__ == "__main__":
    sys.exit(main())
