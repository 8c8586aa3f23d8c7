"""Tracing must observe, never perturb: traced and untraced runs agree.

Also checks sink fan-out, the event-stream sanity properties the
reliability analyses rely on (per-core chronological order, writes
before reads for registers), and that a recorded :class:`AccessTrace`
replays the stream it recorded.
"""

import numpy as np
import pytest

from repro.kernels.registry import get_workload
from repro.kernels.workload import run_workload
from repro.reliability.liveness import AceAccumulator, OccupancyAccumulator
from repro.sim.gpu import Gpu
from repro.sim.tracing import (
    TRACE_SCHEMA_VERSION,
    AccessTrace,
    CompositeSink,
    EventRecorder,
    JsonlTraceSink,
    TraceSink,
    read_trace_events,
)
from tests.conftest import MINI_AMD, MINI_NVIDIA


class TestTransparency:
    def _compare(self, config, workload_name):
        workload = get_workload(workload_name, "tiny")
        bare = run_workload(Gpu(config), workload)
        sink = CompositeSink(
            AceAccumulator(config), OccupancyAccumulator(config), EventRecorder()
        )
        traced = run_workload(Gpu(config, sink=sink), workload)
        assert bare.cycles == traced.cycles
        for name in bare.outputs:
            assert np.array_equal(bare.outputs[name], traced.outputs[name])

    def test_sass_traced_equals_untraced(self):
        self._compare(MINI_NVIDIA, "matrixMul")

    def test_si_traced_equals_untraced(self):
        self._compare(MINI_AMD, "scan")


class TestEventStream:
    def _recorded(self, config, workload_name):
        recorder = EventRecorder()
        workload = get_workload(workload_name, "tiny")
        run_workload(Gpu(config, sink=recorder), workload)
        return recorder

    def test_per_core_chronological_order(self):
        recorder = self._recorded(MINI_NVIDIA, "reduction")
        last = {}
        for cycle, core, _row, _mask, _w in recorder.reg_events:
            assert cycle >= last.get(core, 0)
            last[core] = cycle

    def test_registers_written_before_read(self):
        """No kernel reads an uninitialised register row."""
        recorder = self._recorded(MINI_NVIDIA, "vectoradd")
        written = set()
        for _cycle, core, row, mask, is_write in recorder.reg_events:
            if is_write:
                written.add((core, row))
            else:
                assert (core, row) in written

    def test_lmem_written_before_read(self):
        recorder = self._recorded(MINI_NVIDIA, "matrixMul")
        written = set()
        for _cycle, core, words, is_write in recorder.lmem_events:
            if is_write:
                written.update((core, w) for w in words)
            else:
                for word in words:
                    assert (core, word) in written

    def test_end_cycle_recorded(self):
        recorder = self._recorded(MINI_AMD, "vectoradd")
        assert recorder.end_cycle is not None and recorder.end_cycle > 0

    def test_alloc_free_balance(self):
        recorder = self._recorded(MINI_AMD, "histogram")
        balance = 0
        for *_rest, kind in recorder.block_events:
            balance += 1 if kind == "alloc" else -1
            assert balance >= 0
        assert balance == 0


class TestCompositeSink:
    def test_fan_out(self):
        a, b = EventRecorder(), EventRecorder()
        composite = CompositeSink(a, b, None)
        composite.on_reg_access(1, 0, 2, 0xF, True)
        composite.on_lmem_access(2, 0, np.array([1]), False)
        composite.on_block_alloc(0, 0, 64, 128)
        composite.on_block_free(9, 0, 64, 128)
        composite.on_run_end(10)
        for sink in (a, b):
            assert len(sink.reg_events) == 1
            assert len(sink.lmem_events) == 1
            assert len(sink.block_events) == 2
            assert sink.end_cycle == 10

    def test_base_sink_is_noop(self):
        sink = TraceSink()
        sink.on_reg_access(0, 0, 0, 0, False)
        sink.on_lmem_access(0, 0, np.array([0]), True)
        sink.on_block_alloc(0, 0, 0, 0)
        sink.on_block_free(0, 0, 0, 0)
        sink.on_run_end(0)


class TestJsonlTraceSink:
    def test_round_trips_a_real_run(self, tmp_path):
        """A traced run's JSONL file replays to the recorder's stream."""
        path = tmp_path / "trace.jsonl"
        recorder = EventRecorder()
        workload = get_workload("vectoradd", "tiny")
        run_workload(Gpu(MINI_NVIDIA,
                         sink=CompositeSink(recorder, JsonlTraceSink(path))),
                     workload)
        events = read_trace_events(path)
        assert events and all(e["v"] == TRACE_SCHEMA_VERSION for e in events)
        assert events[-1]["event"] == "run_end"
        assert events[-1]["cycle"] == recorder.end_cycle
        regs = [e for e in events if e["event"] == "reg_access"]
        assert [(e["cycle"], e["core"], e["row"], e["mask"], e["is_write"])
                for e in regs] == recorder.reg_events
        lmems = [e for e in events if e["event"] == "lmem_access"]
        assert [(e["cycle"], e["core"], tuple(e["words"]), e["is_write"])
                for e in lmems] == recorder.lmem_events

    def test_values_are_plain_json_scalars(self, tmp_path):
        # numpy inputs must land as native ints/bools on disk.
        path = tmp_path / "trace.jsonl"
        with JsonlTraceSink(path) as sink:
            sink.on_reg_access(np.int64(5), np.int32(0), 2, np.int64(0xF),
                               np.bool_(True))
            sink.on_lmem_access(6, 0, np.array([3, 4]), False)
        (reg, lmem) = read_trace_events(path)
        assert reg == {"v": TRACE_SCHEMA_VERSION, "event": "reg_access",
                       "cycle": 5, "core": 0, "row": 2, "mask": 15,
                       "is_write": True}
        assert lmem["words"] == [3, 4]

    def test_run_end_closes_the_file(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        sink = JsonlTraceSink(path)
        sink.on_run_end(42)
        assert sink._handle is None
        sink.on_reg_access(0, 0, 0, 0, True)  # after close: ignored
        assert read_trace_events(path) == [
            {"v": TRACE_SCHEMA_VERSION, "event": "run_end", "cycle": 42}]

    def test_traced_run_is_unperturbed(self, tmp_path):
        workload = get_workload("vectoradd", "tiny")
        bare = run_workload(Gpu(MINI_NVIDIA), workload)
        traced = run_workload(
            Gpu(MINI_NVIDIA, sink=JsonlTraceSink(tmp_path / "t.jsonl")),
            workload)
        assert bare.cycles == traced.cycles
        for name in bare.outputs:
            assert np.array_equal(bare.outputs[name], traced.outputs[name])


class TestAccessTrace:
    @staticmethod
    def _record(config, workload_name, chunk_events=None):
        """(online recorder, replayed recorder, trace) of one run."""
        online, trace = EventRecorder(), AccessTrace()
        if chunk_events is not None:
            trace.CHUNK_EVENTS = chunk_events
        run_workload(Gpu(config, sink=CompositeSink(online, trace)),
                     get_workload(workload_name, "tiny"))
        replayed = EventRecorder()
        trace.replay(replayed)
        return online, replayed, trace

    def _assert_same_stream(self, online, replayed):
        assert replayed.reg_events == online.reg_events
        assert replayed.lmem_events == online.lmem_events
        assert replayed.warp_slot_events == [
            event for event in online.warp_slot_events
            if event[3] == "free"]
        assert replayed.end_cycle == online.end_cycle
        assert replayed.block_events == []

    def test_replay_repeats_the_recorded_stream(self):
        for config, name in ((MINI_NVIDIA, "transpose"), (MINI_AMD, "scan")):
            online, replayed, trace = self._record(config, name)
            assert online.lmem_events and online.warp_slot_events
            self._assert_same_stream(online, replayed)

    def test_chunk_boundaries_keep_order_and_words(self):
        online, replayed, trace = self._record(MINI_NVIDIA, "scan",
                                               chunk_events=7)
        assert len(trace._chunks) > 100
        self._assert_same_stream(online, replayed)

    def test_columns_are_compact(self):
        online, replayed, trace = self._record(MINI_AMD, "scan")
        (chunk,) = trace._chunks
        events = (len(replayed.reg_events) + len(replayed.lmem_events)
                  + len(replayed.warp_slot_events))
        words = sum(len(event[2]) for event in online.lmem_events)
        # 30 bytes per event plus 8 per lmem word and per offset: no
        # Python objects are kept once the run has ended.
        assert sum(column.nbytes for column in chunk) == (
            30 * events + 8 * words + 8 * (len(online.lmem_events) + 1))
        assert trace._events == [] and trace._words == []

    def test_replay_delivers_python_scalars(self):
        _, replayed, _ = self._record(MINI_AMD, "histogram")
        cycle, core, row, mask, is_write = replayed.reg_events[0]
        assert all(type(v) is int for v in (cycle, core, row, mask))
        assert type(is_write) is bool
        assert any(event[3] >= 1 << 63 for event in replayed.reg_events)

    def test_replay_before_run_end_is_an_error(self):
        trace = AccessTrace()
        trace.on_reg_access(0, 0, 0, 1, True)
        with pytest.raises(RuntimeError, match="not ended"):
            trace.replay(TraceSink())
