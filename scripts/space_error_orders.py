"""Space-error-only orders of a 1D convergence study config.

``run_convergence_study`` steps each resolution N at dt = 1/N^2, so its
errors mix the first-order time error into the spatial one.  This script
runs every resolution of the study, and its reference, at the reference's
step dt = 1/reference^2 instead, so the time error is the same for all of
them and the errors are the space error alone.  It prints the per-species
L2 errors, the pairwise orders and the fitted order, computed as the study
computes them.

    PYTHONPATH=src python3 scripts/space_error_orders.py configs/convergence-case1.cfg
"""

from __future__ import annotations

import sys
from dataclasses import replace

from biofilm_fv.cli import load_config
from biofilm_fv.harness import (convergence_against_reference, convergence_resolutions,
                                run_evolution)


def main(path):
    spec = load_config(path, "convergence")
    # the study's own checks, so a config it rejects fails here before any run
    resolutions, reference = convergence_resolutions(spec)
    runs = [run_evolution(replace(spec, n_cells=n, dt_policy="fixed", dt=1.0 / reference**2,
                                  snapshot_times=()))
            for n in resolutions + (reference,)]
    result = convergence_against_reference(runs)
    print(f"{path}: dt = 1/{reference}^2 for N = {', '.join(map(str, resolutions))}")
    for i, (errors, pairwise, fitted) in enumerate(zip(
            result.l2_errors, result.pairwise_order, result.fitted_order), start=1):
        print(f"species {i}: errors {' '.join(f'{e:.4e}' for e in errors)}")
        print(f"  pairwise orders {', '.join(f'{p:.3f}' for p in pairwise)}; "
              f"fitted {fitted:.3f}")


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit("usage: space_error_orders.py CONFIG")
    main(sys.argv[1])
