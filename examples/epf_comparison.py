"""EPF comparison: the paper's Fig. 3 combined reliability-performance
metric across all four chips on one benchmark.

EPF = EIT / FIT ranks chips differently than AVF alone: a chip with a
bigger (hence more fault-prone) register file can still win on EPF by
finishing executions faster. Run on vectoradd for a quick demo.

Run:  python examples/epf_comparison.py
"""

from repro import (
    LOCAL_MEMORY,
    REGISTER_FILE,
    CampaignSpec,
    format_epf_figure,
    run_campaign,
)

BENCHMARK = "vectoradd"


def main() -> None:
    # gpus left unset = all four scaled chips, in figure order.
    spec = CampaignSpec(workloads=(BENCHMARK,), scale="small",
                        samples=150, seed=0)
    cells = run_campaign(
        spec,
        progress=lambda cell: print(f"done {cell.gpu}", flush=True),
    ).cells

    print()
    print(format_epf_figure(cells, f"EPF on {BENCHMARK} (mini Fig. 3)"))

    print("ingredients:")
    for cell in cells:
        epf = cell.epf
        print(f"  {cell.gpu:<26} t_exec={epf.t_exec_s * 1e6:8.2f}us  "
              f"EIT={epf.eit:.2e}  "
              f"FIT(rf)={epf.fit_by_structure[REGISTER_FILE]:8.1f}  "
              f"FIT(lm)={epf.fit_by_structure[LOCAL_MEMORY]:8.1f}  "
              f"EPF={epf.epf:.2e}")

    best = max(cells, key=lambda c: c.epf.epf)
    print(f"\nmost executions per failure: {best.gpu}")


if __name__ == "__main__":
    main()
