"""Control-flow analysis (immediate post-dominator) tests."""

from __future__ import annotations

import json
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.isa.sass.cfg import EXIT_NODE, build_cfg, immediate_postdominators
from repro.isa.sass.parser import assemble_sass
from repro.kernels.registry import KERNEL_NAMES, SCALES, get_workload
from repro.sim.simt_stack import NO_RECONV

#: Every kernel's reconvergence tables as recorded with networkx's
#: dominator algorithm (``tests/fixtures/ipdom/README.md``).
FIXTURE = Path(__file__).parent / "fixtures" / "ipdom" / "tables.json"


def asm(body: str):
    return assemble_sass(f".kernel t\n.regs 8\n{body}\n")


#: One instruction of a random program: ``(kind, target label, guarded)``
#: with kind ``op`` (falls through), ``bra`` or ``exit``.
INSTRUCTION = st.tuples(st.sampled_from(("op", "bra", "exit")),
                        st.integers(0, 8), st.booleans())


def random_program(spec):
    """Assemble ``spec`` with a label before every pc and one past the end."""
    lines = []
    for pc, (kind, target, guarded) in enumerate(spec):
        guard = "@P0 " if guarded else ""
        lines.append(f"L{pc}:")
        if kind == "op":
            lines.append("IADD R0, R0, 1")
        elif kind == "bra":
            lines.append(f"{guard}BRA L{target % (len(spec) + 1)}")
        else:
            lines.append(f"{guard}EXIT")
    lines.append(f"L{len(spec)}:")
    return asm("\n".join(lines))


def brute_force_ipdom(spec) -> dict:
    """Set-based post-dominators: pdom(v) = {v} | (intersection of pdom(succ))."""
    count = len(spec)
    succs = {"exit": set(), count: set()}  # the pc past the end is a dead end
    for pc, (kind, target, guarded) in enumerate(spec):
        fallthrough = pc + 1 if pc + 1 < count else "exit"
        first = {"op": fallthrough, "bra": target % (count + 1), "exit": "exit"}[kind]
        succs[pc] = {first, fallthrough} if guarded and kind != "op" else {first}
    nodes = set(succs)
    pdom = {node: set(nodes) for node in nodes}
    pdom["exit"] = {"exit"}
    reaches_exit = {"exit"}
    changed = True
    while changed:
        changed = False
        for node in nodes - {"exit"}:
            new = {node}.union(set(nodes).intersection(*(pdom[s] for s in succs[node])))
            if succs[node] & reaches_exit and node not in reaches_exit:
                reaches_exit.add(node)
                changed = True
            if new != pdom[node]:
                pdom[node] = new
                changed = True
    reachable, stack = {0}, [0]
    while stack:
        for succ in succs[stack.pop()] - reachable - {"exit"}:
            reachable.add(succ)
            stack.append(succ)
    table = {}
    for pc in sorted(reachable):
        if pc == count or spec[pc][0] != "bra":
            continue
        table[pc] = NO_RECONV
        if pc in reaches_exit:
            strict = pdom[pc] - {pc}
            nearest = max(strict, key=lambda node: len(pdom[node]))
            if nearest != "exit":
                table[pc] = nearest
    return table


def sass_tables() -> dict:
    """``kernel/scale/program`` -> reconvergence table of every SASS program."""
    tables = {}
    for name in KERNEL_NAMES:
        for scale in SCALES:
            for program in get_workload(name, scale).all_programs("sass"):
                table = immediate_postdominators(program)
                tables[f"{name}/{scale}/{program.name}"] = {
                    str(pc): reconv for pc, reconv in table.items()}
    return tables


class TestIpdom:
    def test_if_then_reconverges_at_join(self):
        program = asm(
            "ISETP.LT P0, R0, R1\n"   # 0
            "@P0 BRA skip\n"          # 1
            "IADD R0, R0, 1\n"        # 2
            "skip:\n"
            "IADD R0, R0, 2\n"        # 3
            "EXIT"                    # 4
        )
        table = immediate_postdominators(program)
        assert table[1] == 3

    def test_if_else_reconverges_after_both(self):
        program = asm(
            "@P0 BRA else_b\n"        # 0
            "IADD R0, R0, 1\n"        # 1
            "BRA join\n"              # 2
            "else_b:\n"
            "IADD R0, R0, 2\n"        # 3
            "join:\n"
            "EXIT"                    # 4
        )
        table = immediate_postdominators(program)
        assert table[0] == 4
        assert table[2] == 4  # unconditional branch trivially post-dominated

    def test_loop_backedge(self):
        program = asm(
            "loop:\n"
            "IADD R0, R0, 1\n"        # 0
            "ISETP.LT P0, R0, R1\n"   # 1
            "@P0 BRA loop\n"          # 2
            "EXIT"                    # 3
        )
        table = immediate_postdominators(program)
        assert table[2] == 3

    def test_branch_to_exit_no_reconv(self):
        program = asm(
            "@P0 BRA done\n"          # 0
            "EXIT\n"                  # 1
            "done:\n"
            "EXIT"                    # 2
        )
        table = immediate_postdominators(program)
        assert table[0] == NO_RECONV

    def test_guarded_exit_edges(self):
        program = asm(
            "@P0 EXIT\n"              # 0
            "IADD R0, R0, 1\n"        # 1
            "EXIT"                    # 2
        )
        successors = build_cfg(program)
        assert EXIT_NODE in successors[0]
        assert 1 in successors[0]

    def test_straightline_has_no_branches(self):
        program = asm("IADD R0, R0, 1\nEXIT")
        assert immediate_postdominators(program) == {}

    def test_every_kernel_matches_recorded_tables(self):
        assert sass_tables() == json.loads(FIXTURE.read_text())

    @settings(max_examples=300, deadline=None)
    @given(st.lists(INSTRUCTION, min_size=1, max_size=8))
    def test_matches_brute_force(self, spec):
        program = random_program(spec)
        assert immediate_postdominators(program) == brute_force_ipdom(spec)
