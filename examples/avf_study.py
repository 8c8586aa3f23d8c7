"""Mini AVF study: the paper's Fig. 1/Fig. 2 on a 2-chip, 3-benchmark slice.

Compares one chip per vendor (HD Radeon 7970 vs GeForce GTX 480) on
three benchmarks, printing the register-file and local-memory AVF by
both methodologies plus occupancy — a < 2-minute version of the
full `repro-experiments fig1`/`fig2` campaigns.

Run:  python examples/avf_study.py
"""

from repro import (
    LOCAL_MEMORY,
    REGISTER_FILE,
    CampaignSpec,
    format_avf_figure,
    run_campaign,
)

GPUS = ("hd7970", "gtx480")
BENCHMARKS = ("matrixMul", "reduction", "histogram")


def main() -> None:
    # One declarative spec covers the whole 2x3 slice; one campaign
    # serves both figures and reports cells in matrix order.
    spec = CampaignSpec(gpus=GPUS, workloads=BENCHMARKS,
                        scale="small", samples=150, seed=0)
    cells = run_campaign(
        spec,
        progress=lambda cell: print(
            f"done {cell.gpu} / {cell.workload}", flush=True),
    ).cells

    print()
    print(format_avf_figure(cells, REGISTER_FILE,
                            "Register File AVF (mini Fig. 1)"))
    print()
    print(format_avf_figure(cells, LOCAL_MEMORY,
                            "Local Memory AVF (mini Fig. 2)"))

    print("\nKey observations to compare with the paper:")
    for cell in cells:
        rf_fi = cell.avf_fi(REGISTER_FILE)
        rf_ace = cell.avf_ace(REGISTER_FILE)
        lm_fi = cell.avf_fi(LOCAL_MEMORY)
        lm_ace = cell.avf_ace(LOCAL_MEMORY)
        print(f"  {cell.gpu:<26} {cell.workload:<10} "
              f"regfile ACE/FI={rf_ace / rf_fi if rf_fi else float('inf'):5.2f}  "
              f"localmem ACE/FI={lm_ace / lm_fi if lm_fi else float('inf'):5.2f}")


if __name__ == "__main__":
    main()
