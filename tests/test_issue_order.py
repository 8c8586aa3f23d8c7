"""Issue-order oracle: the exact warp issue sequence of fault-free runs.

Each case runs one ``tiny`` workload on a mini chip under one warp
scheduler policy and pins the golden cycle count, every launch's
cycles, the issued warp-instruction count and a SHA-256 of the
``(t_issue, core_id, wid)`` sequence in issue order. Any change to how
the issue loop picks warps — its ready set, its tie set, or the order
it hands ties to :mod:`repro.sim.scheduler` — moves the digest, even
where cycle totals happen to agree. The recorded values and the way
they were made are in ``tests/fixtures/issue_order/``.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from repro.kernels.registry import get_workload
from repro.kernels.workload import run_workload
from repro.sim.core import CoreBase
from repro.sim.gpu import Gpu
from tests.conftest import MINI_AMD, MINI_NVIDIA

FIXTURE = Path(__file__).parent / "fixtures" / "issue_order" / "cases.json"

CHIPS = {"sass": MINI_NVIDIA, "si": MINI_AMD}
POLICIES = ("rr", "gto")
#: ``histogram`` and ``scan`` synchronise at barriers; ``gaussian`` has
#: 14 launches, so reconvergence tables serve more than one launch.
KERNELS = ("histogram", "scan", "gaussian")
CASES = [f"{isa}-{policy}-{kernel}" for isa in CHIPS for policy in POLICIES
         for kernel in KERNELS]


def record_case(case: str, monkeypatch) -> dict:
    """Run one case and return what the fixture pins for it."""
    isa, policy, kernel = case.split("-")
    sequence = hashlib.sha256()
    issued = 0
    original = CoreBase._issue

    def recording_issue(core, warp, t_issue):
        nonlocal issued
        sequence.update(f"{t_issue},{core.core_id},{warp.wid}\n".encode())
        issued += 1
        return original(core, warp, t_issue)

    monkeypatch.setattr(CoreBase, "_issue", recording_issue)
    gpu = Gpu(CHIPS[isa], scheduler=policy)
    result = run_workload(gpu, get_workload(kernel, "tiny"))
    assert issued == gpu.instructions_issued
    return {
        "cycles": result.cycles,
        "launch_cycles": list(result.launch_cycles),
        "instructions_issued": gpu.instructions_issued,
        "issue_sha256": sequence.hexdigest(),
    }


@pytest.mark.parametrize("case", CASES)
def test_issue_order_matches_recording(case, monkeypatch):
    assert record_case(case, monkeypatch) == \
        json.loads(FIXTURE.read_text())[case]
