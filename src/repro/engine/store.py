"""Persistent result store: every completed job, one JSONL record.

The store is the engine's memory across process boundaries: each record
holds a job's fingerprint (its full parameter identity, see
:mod:`repro.engine.fingerprint`), its kind, and its payload. A campaign
killed mid-run leaves behind a store whose finished jobs are simply
loaded instead of re-executed on the next invocation (``--resume``);
re-running an already-complete campaign executes nothing at all.

Records are appended with a flush + fsync per job, so at most the
record being written when the process dies can be lost; a truncated
trailing line is detected and skipped on load.

:func:`diff_stores` compares two stores semantically: execution
settings (checkpoints, memo, telemetry, profile, workers,
shard size, the campaign service) must leave the stored results
bit-identical, and this is the comparison that checks it.
"""

from __future__ import annotations

import json
import os
from collections.abc import Iterator
from pathlib import Path


class ResultStore:
    """Append-only fingerprint -> (kind, payload) store.

    ``path=None`` gives an in-memory store (no persistence) with the
    same interface, which is what ephemeral campaigns use.
    """

    def __init__(self, path: str | Path | None = None):
        self.path = Path(path) if path is not None else None
        self._records: dict[str, dict] = {}
        self._handle = None
        self.dropped_lines = 0
        if self.path is not None and self.path.exists():
            self._load()

    # ------------------------------------------------------------------
    def _load(self) -> None:
        # Byte-mode read with per-line decoding (the TelemetryTail
        # idiom): a process killed mid-append can tear the final line
        # anywhere, including inside a multi-byte UTF-8 sequence, and
        # a text-mode iterator would raise UnicodeDecodeError for the
        # whole file instead of dropping the one torn record.
        for raw in self.path.read_bytes().split(b"\n"):
            if not raw.strip():
                continue
            try:
                record = json.loads(raw.decode("utf-8"))
                fp = record["fp"]
                record["kind"], record["payload"]
            except (UnicodeDecodeError, json.JSONDecodeError, KeyError,
                    TypeError):
                # Interrupted append: tolerate and let the job re-run.
                self.dropped_lines += 1
                continue
            self._records[fp] = record

    def _append(self, record: dict) -> None:
        if self.path is None:
            return
        if self._handle is None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            # A file killed mid-append may end without a newline; the
            # first record appended after a resume must not glue itself
            # onto the torn tail (losing *both* lines on the next load).
            torn_tail = False
            if self.path.exists() and self.path.stat().st_size:
                with self.path.open("rb") as tail:
                    tail.seek(-1, os.SEEK_END)
                    torn_tail = tail.read(1) != b"\n"
            self._handle = self.path.open("a", encoding="utf-8")
            if torn_tail:
                self._handle.write("\n")
        self._handle.write(json.dumps(record) + "\n")
        self._handle.flush()
        os.fsync(self._handle.fileno())

    # ------------------------------------------------------------------
    def __contains__(self, fp: str) -> bool:
        return fp in self._records

    def __len__(self) -> int:
        return len(self._records)

    def get(self, fp: str) -> dict | None:
        """Payload of a finished job, or None."""
        record = self._records.get(fp)
        return record["payload"] if record is not None else None

    def kind_of(self, fp: str) -> str | None:
        record = self._records.get(fp)
        return record["kind"] if record is not None else None

    def put(self, fp: str, kind: str, payload: dict) -> None:
        """Record one finished job (idempotent per fingerprint).

        Payload keys starting with ``_`` are *ephemeral* — in-process
        extras (e.g. the golden job's machine snapshots) that are
        neither JSON-safe nor part of the job's fingerprinted result —
        and are stripped before recording. Consumers must treat them
        as optional: a payload loaded from a store never has them.
        """
        if fp in self._records:
            return
        payload = {k: v for k, v in payload.items() if not k.startswith("_")}
        record = {"fp": fp, "kind": kind, "payload": payload}
        self._records[fp] = record
        self._append(record)

    def records(self) -> Iterator[tuple[str, str, dict]]:
        """Every finished job as ``(fingerprint, kind, payload)``, in
        append order, as of this call: jobs put later are not seen."""
        return ((record["fp"], record["kind"], record["payload"])
                for record in list(self._records.values()))

    def counts_by_kind(self) -> dict[str, int]:
        """kind -> number of finished jobs (for summaries)."""
        counts: dict[str, int] = {}
        for record in self._records.values():
            counts[record["kind"]] = counts.get(record["kind"], 0) + 1
        return counts

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def __enter__(self) -> "ResultStore":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


_TIME_SUFFIX = "_time_s"


def _strip_times(value):
    """Recursively drop wall-time measurement fields (``*_time_s``)."""
    if isinstance(value, dict):
        return {key: _strip_times(item) for key, item in value.items()
                if not key.endswith(_TIME_SUFFIX)}
    if isinstance(value, list):
        return [_strip_times(item) for item in value]
    return value


def _cell_key(payload: dict) -> tuple:
    return (payload["gpu"], payload["workload"], payload["scale"],
            payload["scheduler"], payload["samples"], payload["seed"],
            payload.get("fault_model", "transient"))


def diff_stores(left, right, *, ignore_order: bool = False) -> list[str]:
    """Semantic differences between two result stores; ``[]`` = agree.

    ``left``/``right`` are :class:`ResultStore` objects or paths to
    one (loaded with the store's own torn-line tolerance).

    * golden / plan / shard records must match by fingerprint, with
      payloads equal once wall-time fields are stripped (``*_time_s``
      are machine-load measurements, not results);
    * cell records carry the checkpoint setting in their fingerprint by
      design, so they are matched by campaign identity — (gpu,
      workload, scale, scheduler, samples, seed, fault_model) — and
      compared on every non-time field.

    Unless ``ignore_order``, the records both stores hold must also
    have been appended in the same relative order: the right check for
    twins from deterministic (inline) runs. Concurrent twins (process
    pools, the campaign service's leases) complete jobs in racy order,
    which is execution scheduling, not results.
    """
    stores = [side if isinstance(side, ResultStore) else ResultStore(side)
              for side in (left, right)]
    names = [store.path.name if store.path is not None else side
             for store, side in zip(stores, ("left", "right"))]
    records = [store._records for store in stores]
    problems = []

    if not ignore_order:
        shared = records[0].keys() & records[1].keys()
        left_seq, right_seq = ([fp for fp in side if fp in shared]
                               for side in records)
        if left_seq != right_seq:
            first = next(i for i, (a, b)
                         in enumerate(zip(left_seq, right_seq)) if a != b)
            problems.append(
                f"append order differs at shared record {first} "
                f"({left_seq[first][:12]}… vs {right_seq[first][:12]}…); "
                f"concurrent runs may legitimately reorder — compare "
                f"them with ignore_order (--ignore-order)")

    sims = [{fp: r for fp, r in side.items() if r["kind"] != "cell"}
            for side in records]
    cells = [{_cell_key(r["payload"]): r["payload"]
              for r in side.values() if r["kind"] == "cell"}
             for side in records]

    for fp in sorted(sims[0].keys() | sims[1].keys()):
        a, b = sims[0].get(fp), sims[1].get(fp)
        if a is None or b is None:
            present = b if a is None else a
            missing = names[0] if a is None else names[1]
            problems.append(
                f"{present['kind']} {fp[:12]}… missing from {missing}")
        elif _strip_times(a["payload"]) != _strip_times(b["payload"]):
            problems.append(f"{a['kind']} {fp[:12]}… payloads differ")

    for key in sorted(cells[0].keys() | cells[1].keys()):
        a, b = cells[0].get(key), cells[1].get(key)
        if a is None or b is None:
            missing = names[0] if a is None else names[1]
            problems.append(f"cell {key} missing from {missing}")
        elif _strip_times(a) != _strip_times(b):
            problems.append(f"cell {key} payloads differ")
    return problems
