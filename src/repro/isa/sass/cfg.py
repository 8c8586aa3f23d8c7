"""Control-flow analysis for SASS kernels.

Builds the instruction-level CFG and computes each branch's immediate
post-dominator — the reconvergence point used by the SIMT stack (the
same policy GPGPU-Sim applies to SASS/PTX without explicit SSY
annotations). The post-dominators are the dominators of the reversed
CFG, found with the iterative algorithm of Cooper, Harvey and Kennedy
("A Simple, Fast Dominance Algorithm", 2001).
"""

from __future__ import annotations

from repro.errors import AssemblyError
from repro.isa.base import LabelRef, Program
from repro.sim.simt_stack import NO_RECONV

#: The virtual exit node. A branch whose sides rejoin only there never
#: reconverges, so it shares ``NO_RECONV``'s value.
EXIT_NODE = NO_RECONV


def build_cfg(program: Program) -> list[list[int]]:
    """Successor nodes of every pc, with the virtual exit ``EXIT_NODE``.

    Falling through the last instruction leads to the exit; a branch to
    a label after it leads to pc ``len(program.instructions)``, which is
    not the exit and has no successors.
    """
    count = len(program.instructions)
    successors = []
    for pc, inst in enumerate(program.instructions):
        fallthrough = pc + 1 if pc + 1 < count else EXIT_NODE
        if inst.opcode == "EXIT":
            succ = [EXIT_NODE]
            if inst.guard is not None:
                succ.append(fallthrough)
        elif inst.opcode == "BRA":
            target_op = inst.operands[0]
            if not isinstance(target_op, LabelRef):
                raise AssemblyError("BRA target must be a label", line=inst.line)
            succ = [program.resolve_label(target_op)]
            if inst.guard is not None:
                succ.append(fallthrough)
        else:
            succ = [fallthrough]
        successors.append(succ)
    return successors


def immediate_postdominators(program: Program) -> dict[int, int]:
    """pc -> reconvergence pc for every branch reachable from pc 0.

    ``NO_RECONV`` when the branch's sides only rejoin at program exit,
    or when the branch cannot reach the exit at all.
    """
    # A branch past the last instruction leads to a dead end.
    successors = build_cfg(program) + [[]]
    # Instructions unreachable from the entry never run; drop them.
    reachable, stack = {0}, [0]
    while stack:
        for succ in successors[stack.pop()]:
            if succ not in reachable and succ != EXIT_NODE:
                reachable.add(succ)
                stack.append(succ)
    preds = {node: [] for node in (EXIT_NODE, *reachable)}
    for pc in reachable:
        for succ in successors[pc]:
            preds[succ].append(pc)
    # Postorder of the reversed CFG from the exit: pcs that cannot reach
    # the exit are left out and so never post-dominate anything.
    order, seen, walk = [], {EXIT_NODE}, [(EXIT_NODE, iter(preds[EXIT_NODE]))]
    while walk:
        node, pending = walk[-1]
        for pred in pending:
            if pred not in seen:
                seen.add(pred)
                walk.append((pred, iter(preds[pred])))
                break
        else:
            walk.pop()
            order.append(node)
    rank = {node: i for i, node in enumerate(order)}
    ipdom = {EXIT_NODE: EXIT_NODE}
    changed = True
    while changed:
        changed = False
        for node in reversed(order[:-1]):
            new = None
            for succ in successors[node]:
                if succ in ipdom:
                    new = succ if new is None else _meet(succ, new, ipdom, rank)
            if ipdom.get(node) != new:
                ipdom[node] = new
                changed = True
    return {pc: ipdom.get(pc, NO_RECONV)
            for pc, inst in enumerate(program.instructions)
            if inst.opcode == "BRA" and pc in reachable}


def _meet(a: int, b: int, ipdom: dict[int, int], rank: dict[int, int]) -> int:
    """Nearest common post-dominator: walk both fingers up the tree."""
    while a != b:
        while rank[a] < rank[b]:
            a = ipdom[a]
        while rank[b] < rank[a]:
            b = ipdom[b]
    return a
