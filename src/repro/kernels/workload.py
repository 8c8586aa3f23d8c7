"""Workload model: buffers + launches + numpy reference, per benchmark.

A :class:`Workload` is the host-side program of one benchmark: it
declares the device buffers (with initial contents), produces the
launch sequence for a given ISA (kernels may launch several times, e.g.
gaussian's per-column Fan1/Fan2 iterations), names the output buffers,
and provides a pure-numpy reference against which the simulator's
functional correctness is validated.

Fault-injection outcome classification never uses the numpy reference:
it compares faulty outputs bit-exactly against the *fault-free
simulation* of the same chip (the paper's SDC definition). The numpy
reference only guards the kernels themselves.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.errors import ConfigError
from repro.sim.gpu import Gpu


@dataclass
class BufferSpec:
    """One device buffer and its initial contents."""

    name: str
    data: np.ndarray | None = None   # None -> zero-initialised
    nbytes: int = 0                  # used when data is None

    def __post_init__(self):
        if self.data is None and self.nbytes <= 0:
            raise ConfigError(f"buffer {self.name!r} needs data or nbytes")

    @property
    def size_bytes(self) -> int:
        return self.data.size * 4 if self.data is not None else self.nbytes


@dataclass
class Workload:
    """One benchmark instance (inputs fixed by the scale + seed)."""

    name: str
    #: isa -> assembled Program(s); every benchmark provides "sass" and "si"
    programs: dict
    buffers: list
    #: (isa, bases: dict name->byte base) -> list[LaunchConfig]
    make_launches: Callable
    #: names of buffers compared as outputs
    output_buffers: list
    #: numpy reference for the output buffers: () -> dict name -> ndarray
    reference: Callable
    #: per-buffer dtype for reference comparison ("f32" | "i32" | "u32")
    output_dtypes: dict = field(default_factory=dict)
    #: relative tolerance for float reference comparison
    rtol: float = 1e-4
    #: free-form description (shown by reports)
    description: str = ""
    #: True when the kernel allocates local/shared memory (Fig. 2 membership)
    uses_local_memory: bool = False

    def program(self, isa: str):
        """Primary program for an ISA (first kernel for multi-kernel suites)."""
        try:
            entry = self.programs[isa]
        except KeyError:
            raise ConfigError(
                f"workload {self.name!r} has no {isa!r} implementation"
            ) from None
        return entry[0] if isinstance(entry, list) else entry

    def all_programs(self, isa: str) -> list:
        """Every kernel of this workload for an ISA."""
        entry = self.programs[isa]
        return list(entry) if isinstance(entry, list) else [entry]


@dataclass
class RunResult:
    """Outcome of running a workload on one simulated GPU."""

    workload: str
    gpu: str
    cycles: int                      # total chip cycles across all launches
    launch_cycles: list
    outputs: dict                    # buffer name -> u32 ndarray

    @property
    def num_launches(self) -> int:
        return len(self.launch_cycles)


def run_workload(gpu: Gpu, workload: Workload, monitor=None) -> RunResult:
    """Allocate buffers, run every launch, snapshot the outputs.

    ``monitor`` (optional) observes the run for the checkpoint
    subsystem: ``monitor.begin_launch(gpu, index, launch_cycles)``
    before each launch and ``monitor.after_step(gpu)`` between core
    steps. Monitors never perturb the simulation.
    """
    bases: dict[str, int] = {}
    for spec in workload.buffers:
        if spec.data is not None:
            buffer = gpu.mem.alloc_from(spec.name, spec.data)
        else:
            buffer = gpu.mem.alloc(spec.name, spec.nbytes)
        bases[spec.name] = buffer.base
    launch_cycles = []
    for index, launch in enumerate(workload.make_launches(gpu.config.isa, bases)):
        if monitor is not None:
            monitor.begin_launch(gpu, index, launch_cycles)
        launch_cycles.append(gpu.launch(launch, monitor=monitor))
    cycles = gpu.finish()
    outputs = gpu.mem.snapshot(workload.output_buffers)
    return RunResult(
        workload=workload.name,
        gpu=gpu.config.name,
        cycles=cycles,
        launch_cycles=launch_cycles,
        outputs=outputs,
    )


def verify_against_reference(workload: Workload, outputs: dict) -> list[str]:
    """Compare simulated outputs against the numpy reference.

    Returns a list of human-readable mismatch descriptions (empty =
    pass). Float buffers compare with ``workload.rtol``; integer buffers
    compare exactly.
    """
    expected = workload.reference()
    problems: list[str] = []
    for name in workload.output_buffers:
        want = expected[name].reshape(-1)
        got_words = outputs[name][: want.size]
        dtype = workload.output_dtypes.get(name, "f32")
        if dtype == "f32":
            got = got_words.view(np.float32)
            close = np.isclose(
                got, want.astype(np.float32), rtol=workload.rtol, atol=1e-5
            )
            if not close.all():
                bad = int(np.argmin(close))
                problems.append(
                    f"{name}[{bad}]: got {got[bad]!r}, want {float(want.reshape(-1)[bad])!r}"
                )
        else:
            view = np.int32 if dtype == "i32" else np.uint32
            got = got_words.view(view)
            want_cast = want.reshape(-1).astype(view)
            if not np.array_equal(got, want_cast):
                bad = int(np.argmax(got != want_cast))
                problems.append(
                    f"{name}[{bad}]: got {int(got[bad])}, want {int(want_cast[bad])}"
                )
    return problems
