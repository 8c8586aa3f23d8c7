"""Result store round-trips, the store comparator and job fingerprint
invalidation."""

import json
from dataclasses import replace

import numpy as np
import pytest

from repro.engine.fingerprint import (
    cell_params,
    fingerprint,
    golden_params,
    plan_params,
    shard_params,
)
from repro.engine.jobs import decode_outputs, encode_outputs
from repro.engine.store import ResultStore, diff_stores
from repro.reliability.liveness import AceMode
from tests.conftest import MINI_AMD, MINI_NVIDIA


class TestResultStore:
    def test_round_trip_across_reopen(self, tmp_path):
        path = tmp_path / "store.jsonl"
        with ResultStore(path) as store:
            store.put("fp1", "golden", {"cycles": 123})
            store.put("fp2", "shard", {"results": [[1, 2]]})
        reloaded = ResultStore(path)
        assert "fp1" in reloaded and "fp2" in reloaded
        assert reloaded.get("fp1") == {"cycles": 123}
        assert reloaded.get("fp2") == {"results": [[1, 2]]}
        assert reloaded.kind_of("fp1") == "golden"
        assert len(reloaded) == 2
        assert reloaded.counts_by_kind() == {"golden": 1, "shard": 1}

    def test_records_iterate_in_append_order(self, tmp_path):
        path = tmp_path / "store.jsonl"
        with ResultStore(path) as store:
            store.put("fp2", "shard", {"results": [[1, 2]]})
            store.put("fp1", "golden", {"cycles": 123, "_snapshots": [0]})
            store.put("fp2", "shard", {"results": []})  # already recorded
            records = store.records()
            store.put("fp3", "cell", {"v": 1})  # after the call: not seen
            assert list(records) == [
                ("fp2", "shard", {"results": [[1, 2]]}),
                ("fp1", "golden", {"cycles": 123}),
            ]
        assert list(ResultStore(path).records()) == [
            ("fp2", "shard", {"results": [[1, 2]]}),
            ("fp1", "golden", {"cycles": 123}),
            ("fp3", "cell", {"v": 1}),
        ]
        assert list(ResultStore().records()) == []

    def test_put_is_idempotent(self, tmp_path):
        path = tmp_path / "store.jsonl"
        with ResultStore(path) as store:
            store.put("fp", "cell", {"v": 1})
            store.put("fp", "cell", {"v": 2})  # ignored: already recorded
        assert ResultStore(path).get("fp") == {"v": 1}
        assert len(path.read_text().splitlines()) == 1

    def test_truncated_tail_line_is_skipped(self, tmp_path):
        path = tmp_path / "store.jsonl"
        with ResultStore(path) as store:
            store.put("fp1", "golden", {"cycles": 1})
            store.put("fp2", "golden", {"cycles": 2})
        path.write_text(path.read_text()[:-20])  # kill mid-append
        reloaded = ResultStore(path)
        assert reloaded.dropped_lines == 1
        assert "fp1" in reloaded and "fp2" not in reloaded

    def test_tail_torn_inside_utf8_sequence_is_skipped(self, tmp_path):
        path = tmp_path / "store.jsonl"
        good = json.dumps({"fp": "fp1", "kind": "golden",
                           "payload": {"cycles": 1}})
        # A record torn mid-multi-byte sequence ('é' loses its second
        # byte): the tail is not even valid UTF-8, so a text-mode
        # reader would raise UnicodeDecodeError for the whole file
        # instead of dropping the one torn line.
        torn = '{"fp": "fp2", "kind": "cell", "payload": {"w": "café'
        path.write_bytes(good.encode("utf-8") + b"\n" +
                         torn.encode("utf-8")[:-1])
        reloaded = ResultStore(path)
        assert reloaded.dropped_lines == 1
        assert "fp1" in reloaded and "fp2" not in reloaded
        # The surviving store keeps appending normally.
        with reloaded:
            reloaded.put("fp3", "golden", {"cycles": 3})
        assert "fp3" in ResultStore(path)

    def test_non_record_line_is_skipped(self, tmp_path):
        path = tmp_path / "store.jsonl"
        path.write_text('{"fp": "x"}\n[1, 2]\n')
        reloaded = ResultStore(path)
        assert reloaded.dropped_lines == 2
        assert len(reloaded) == 0

    def test_memory_store_does_not_persist(self, tmp_path):
        store = ResultStore(None)
        store.put("fp", "golden", {"cycles": 9})
        assert store.get("fp") == {"cycles": 9}
        assert store.path is None

    def test_missing_fingerprint(self, tmp_path):
        store = ResultStore(tmp_path / "s.jsonl")
        assert store.get("nope") is None
        assert store.kind_of("nope") is None
        assert "nope" not in store


def _cell(**changes) -> dict:
    payload = {"gpu": "g", "workload": "w", "scale": "tiny",
               "scheduler": "rr", "samples": 4, "seed": 0,
               "fault_model": "transient", "fi": {"sdc": 1},
               "fi_time_s": 0.5}
    payload.update(changes)
    return payload


def _write(path, records) -> None:
    """A store holding ``records`` ((fp, kind, payload)) in this order."""
    with ResultStore(path) as store:
        for fp, kind, payload in records:
            store.put(fp, kind, payload)


#: A minimal campaign store image: golden -> shard -> cell.
RECORDS = [
    ("g1", "golden", {"cycles": 10, "wall_time_s": 0.1}),
    ("s1", "shard", {"results": [["register_file", 0, 1, 2, "sdc", "", 1]],
                     "wall_time_s": 0.2}),
    ("c1", "cell", _cell()),
]


class TestDiffStores:
    def test_identical_stores_agree(self, tmp_path):
        _write(tmp_path / "a.jsonl", RECORDS)
        _write(tmp_path / "b.jsonl", RECORDS)
        assert diff_stores(tmp_path / "a.jsonl", tmp_path / "b.jsonl") == []

    def test_wall_time_fields_are_ignored(self, tmp_path):
        timed = [(fp, kind, {**payload, "wall_time_s": 9.0,
                             "golden_time_s": 9.0})
                 for fp, kind, payload in RECORDS]
        timed[2] = ("c1", "cell", _cell(fi_time_s=7.0,
                                        fi={"sdc": 1, "wall_time_s": 3.0}))
        _write(tmp_path / "a.jsonl", RECORDS)
        _write(tmp_path / "b.jsonl", timed)
        assert diff_stores(tmp_path / "a.jsonl", tmp_path / "b.jsonl") == []

    def test_changed_shard_payload_is_reported(self, tmp_path):
        changed = list(RECORDS)
        changed[1] = ("s1", "shard",
                      {"results": [["register_file", 0, 1, 2, "due",
                                    "WatchdogTimeout", 0]]})
        _write(tmp_path / "a.jsonl", RECORDS)
        _write(tmp_path / "b.jsonl", changed)
        assert diff_stores(tmp_path / "a.jsonl", tmp_path / "b.jsonl") == \
            ["shard s1… payloads differ"]

    def test_extra_payload_key_is_reported(self, tmp_path):
        changed = list(RECORDS)
        changed[1] = ("s1", "shard", {**RECORDS[1][2], "profile": {}})
        _write(tmp_path / "a.jsonl", RECORDS)
        _write(tmp_path / "b.jsonl", changed)
        assert diff_stores(tmp_path / "a.jsonl", tmp_path / "b.jsonl") == \
            ["shard s1… payloads differ"]

    def test_missing_record_is_reported(self, tmp_path):
        _write(tmp_path / "a.jsonl", RECORDS)
        _write(tmp_path / "b.jsonl", RECORDS[1:])
        assert diff_stores(tmp_path / "a.jsonl", tmp_path / "b.jsonl") == \
            ["golden g1… missing from b.jsonl"]

    def test_changed_cell_is_reported(self, tmp_path):
        changed = RECORDS[:2] + [("c1", "cell", _cell(fi={"sdc": 2}))]
        _write(tmp_path / "a.jsonl", RECORDS)
        _write(tmp_path / "b.jsonl", changed)
        assert diff_stores(tmp_path / "a.jsonl", tmp_path / "b.jsonl") == \
            ["cell ('g', 'w', 'tiny', 'rr', 4, 0, 'transient') "
             "payloads differ"]

    def test_cells_match_by_campaign_identity_not_fingerprint(
            self, tmp_path):
        # The checkpoint interval joins only the cell fingerprint.
        _write(tmp_path / "a.jsonl", RECORDS)
        _write(tmp_path / "b.jsonl", RECORDS[:2] + [("c2", "cell", _cell())])
        assert diff_stores(tmp_path / "a.jsonl", tmp_path / "b.jsonl") == []

    def test_append_order_difference_unless_ignored(self, tmp_path):
        _write(tmp_path / "a.jsonl", RECORDS)
        _write(tmp_path / "b.jsonl", [RECORDS[1], RECORDS[0], RECORDS[2]])
        problems = diff_stores(tmp_path / "a.jsonl", tmp_path / "b.jsonl")
        assert len(problems) == 1
        assert problems[0].startswith("append order differs at shared "
                                      "record 0 (g1… vs s1…)")
        assert diff_stores(tmp_path / "a.jsonl", tmp_path / "b.jsonl",
                           ignore_order=True) == []

    def test_torn_trailing_line_is_tolerated(self, tmp_path):
        _write(tmp_path / "a.jsonl", RECORDS)
        _write(tmp_path / "b.jsonl", RECORDS)
        with (tmp_path / "b.jsonl").open("ab") as handle:
            handle.write(b'{"fp": "x1", "kind": "shard", "payload": {"re')
        assert diff_stores(tmp_path / "a.jsonl", tmp_path / "b.jsonl") == []

    def test_accepts_open_stores(self, tmp_path):
        _write(tmp_path / "a.jsonl", RECORDS)
        memory = ResultStore(None)
        for fp, kind, payload in RECORDS[:2]:
            memory.put(fp, kind, payload)
        assert diff_stores(ResultStore(tmp_path / "a.jsonl"), memory) == \
            ["cell ('g', 'w', 'tiny', 'rr', 4, 0, 'transient') "
             "missing from right"]


class TestOutputCodec:
    def test_outputs_round_trip_bit_exact(self):
        outputs = {
            "a": np.arange(17, dtype=np.uint32),
            "b": np.array([[1.5, -0.0], [np.inf, 3.25]], dtype=np.float32),
        }
        decoded = decode_outputs(json.loads(json.dumps(encode_outputs(outputs))))
        for name, want in outputs.items():
            assert decoded[name].dtype == want.dtype
            assert decoded[name].shape == want.shape
            assert np.array_equal(
                decoded[name].view(np.uint8), want.view(np.uint8))


class TestFingerprints:
    def test_same_params_same_fingerprint(self):
        a = fingerprint("golden", golden_params(
            MINI_NVIDIA, "histogram", "tiny", "rr", AceMode.CONSERVATIVE))
        b = fingerprint("golden", golden_params(
            MINI_NVIDIA, "histogram", "tiny", "rr", AceMode.CONSERVATIVE))
        assert a == b

    @pytest.mark.parametrize("mutate", [
        lambda p: golden_params(MINI_AMD, "histogram", "tiny", "rr",
                                AceMode.CONSERVATIVE),
        lambda p: golden_params(MINI_NVIDIA, "scan", "tiny", "rr",
                                AceMode.CONSERVATIVE),
        lambda p: golden_params(MINI_NVIDIA, "histogram", "small", "rr",
                                AceMode.CONSERVATIVE),
        lambda p: golden_params(MINI_NVIDIA, "histogram", "tiny", "gtlo",
                                AceMode.CONSERVATIVE),
        lambda p: golden_params(MINI_NVIDIA, "histogram", "tiny", "rr",
                                AceMode.LANE_MASKED),
    ])
    def test_any_golden_param_change_invalidates(self, mutate):
        base = fingerprint("golden", golden_params(
            MINI_NVIDIA, "histogram", "tiny", "rr", AceMode.CONSERVATIVE))
        assert fingerprint("golden", mutate(None)) != base

    def test_latency_change_invalidates(self):
        tweaked = replace(
            MINI_NVIDIA, latency=replace(MINI_NVIDIA.latency, alu=9))
        a = fingerprint("golden", golden_params(
            MINI_NVIDIA, "histogram", "tiny", "rr", AceMode.CONSERVATIVE))
        b = fingerprint("golden", golden_params(
            tweaked, "histogram", "tiny", "rr", AceMode.CONSERVATIVE))
        assert a != b

    def test_plan_fingerprint_tracks_samples_seed_structures(self):
        base = fingerprint("plan", plan_params("g", 100, 0, ("register_file",)))
        assert fingerprint("plan", plan_params("g", 101, 0,
                                               ("register_file",))) != base
        assert fingerprint("plan", plan_params("g", 100, 1,
                                               ("register_file",))) != base
        assert fingerprint("plan", plan_params(
            "g", 100, 0, ("register_file", "local_memory"))) != base
        assert fingerprint("plan", plan_params("x", 100, 0,
                                               ("register_file",))) != base

    def test_shard_and_cell_fingerprints(self):
        assert fingerprint("shard", shard_params("p", 0, 24)) != \
               fingerprint("shard", shard_params("p", 24, 48))
        assert fingerprint("cell", cell_params("p", 1e-3)) != \
               fingerprint("cell", cell_params("p", 2e-3))

    def test_kind_is_part_of_identity(self):
        params = {"x": 1}
        assert fingerprint("golden", params) != fingerprint("plan", params)
