"""Warp scheduling policies.

The core's event loop computes, each issue slot, the set of warps that
tie for the earliest possible issue time; the policy only breaks the
tie. The candidates always arrive in warp-id order: the core keeps its
runnable-warp list in that order (:mod:`repro.sim.core`), and both
policies' tie-breaks rely on it. Two policies from the GPU literature
(and GPGPU-Sim) are provided: loose round-robin (LRR) and
greedy-then-oldest (GTO). The paper lists "execution scheduling" among
the factors studied; the scheduler ablation benchmark flips this
policy.
"""

from __future__ import annotations

from repro.errors import ConfigError


class WarpScheduler:
    """Tie-break policy among equally-ready warps."""

    name = "base"

    def pick(self, candidates: list, last_issued: int):
        """Choose one warp from ``candidates`` (non-empty, same ready time).

        ``last_issued`` is the warp id issued in the previous slot
        (-1 at start). Candidates are ordered by warp id, an invariant
        the core's runnable-warp list maintains.
        """
        raise NotImplementedError


class RoundRobinScheduler(WarpScheduler):
    """Loose round-robin: next warp id after the last issued one."""

    name = "rr"

    def pick(self, candidates, last_issued):
        for warp in candidates:
            if warp.wid > last_issued:
                return warp
        return candidates[0]


class GreedyThenOldestScheduler(WarpScheduler):
    """Keep issuing the same warp while possible, else the oldest.

    "Oldest" is the warp that has gone longest without issuing
    (tracked by each warp's ``last_issue`` cycle).
    """

    name = "gto"

    def pick(self, candidates, last_issued):
        for warp in candidates:
            if warp.wid == last_issued:
                return warp
        return min(candidates, key=lambda warp: (warp.last_issue, warp.wid))


_POLICIES = {
    "rr": RoundRobinScheduler,
    "gto": GreedyThenOldestScheduler,
}


def make_scheduler(name: str) -> WarpScheduler:
    """Instantiate a policy by name ("rr" or "gto")."""
    try:
        return _POLICIES[name]()
    except KeyError:
        raise ConfigError(
            f"unknown scheduler {name!r}; known: {', '.join(_POLICIES)}"
        ) from None
