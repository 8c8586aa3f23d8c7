"""Live-tailing of a telemetry JSONL stream for ``status --follow``.

A campaign's JsonlTelemetrySink appends one JSON object per line and
flushes per event, but a reader polling the file can still observe a
*partially written* final line (and, on resume with a fresh store, a
file that shrinks). :class:`TelemetryTail` owns that tolerance: it
remembers a byte offset, reads only what is new, buffers an
incomplete trailing line until its newline arrives, decodes each line
independently (a torn multi-byte UTF-8 sequence or half-written JSON
object is skipped and counted, never raised), and resets cleanly if
the file is truncated or not yet created.
"""

from __future__ import annotations

from pathlib import Path

from repro.telemetry.sink import decode_telemetry_lines


class TelemetryTail:
    """Incremental reader over an append-only telemetry JSONL file."""

    def __init__(self, path):
        self.path = Path(path)
        #: byte offset of the next unread byte in the file.
        self.offset = 0
        #: complete-but-undecodable or non-event lines seen so far.
        self.skipped = 0
        # Bytes of a trailing line whose newline has not arrived yet.
        self._partial = b""

    def poll(self) -> list:
        """Return telemetry events appended since the last poll.

        Safe to call before the file exists (returns ``[]``) and
        across truncation (restarts from the top). Only lines
        terminated by a newline are decoded; an in-flight final line
        waits in the buffer for the next poll.
        """
        try:
            size = self.path.stat().st_size
        except OSError:
            return []
        if size < self.offset:
            # Truncated (e.g. the store was rebuilt): start over.
            self.offset = 0
            self._partial = b""
        if size == self.offset:
            return []
        with self.path.open("rb") as handle:
            handle.seek(self.offset)
            chunk = handle.read()
        self.offset += len(chunk)
        data = self._partial + chunk
        lines = data.split(b"\n")
        self._partial = lines.pop()
        events, skipped = decode_telemetry_lines(lines)
        self.skipped += skipped
        return events
