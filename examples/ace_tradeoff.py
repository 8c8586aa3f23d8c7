"""ACE vs FI: the accuracy / analysis-time trade-off the paper closes on.

Times both methodologies on the same (chip, benchmark) cell and prints
the accuracy gap per structure. Expected outcome (paper, section III):
ACE costs one traced simulation but overestimates the register file's
AVF; fault injection is accurate but costs hundreds of re-simulations;
for local memory ACE is nearly as accurate as FI — so ACE is the right
tool there.

Run:  python examples/ace_tradeoff.py
"""

from repro import LOCAL_MEMORY, REGISTER_FILE, CampaignSpec, run_cell

GPU = "fx5800"
BENCHMARK = "transpose"
SAMPLES = 200


def main() -> None:
    cell = run_cell(CampaignSpec(gpus=(GPU,), workloads=(BENCHMARK,),
                                 scale="small", samples=SAMPLES, seed=0))
    estimates = cell.fi.values()

    print(f"{cell.gpu} / {BENCHMARK} (n={SAMPLES}/structure)\n")
    print(f"ACE analysis : {cell.golden_time_s:6.1f}s  (one traced golden run)")
    print(f"FI campaign  : {cell.fi_time_s:6.1f}s  "
          f"({sum(e.resimulated for e in estimates)} re-simulations, "
          f"{sum(e.pruned for e in estimates)} pruned)\n")
    print(f"{'structure':<16} {'AVF-FI':>8} {'AVF-ACE':>8} {'ACE/FI':>8}")
    for structure in (REGISTER_FILE, LOCAL_MEMORY):
        fi = cell.avf_fi(structure)
        ace = cell.avf_ace(structure)
        ratio = ace / fi if fi else float("inf")
        print(f"{structure:<16} {fi:8.3f} {ace:8.3f} {ratio:8.2f}")
    print(
        "\nReading: the register file's ACE/FI ratio exceeds 1 (lifetime "
        "analysis cannot see logical masking), while local memory's sits "
        "near 1 — so ACE can replace FI there at a fraction of the cost."
    )


if __name__ == "__main__":
    main()
