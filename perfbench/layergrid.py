"""Layer grid: the five grid stages of the KDP source at n = 256 ... 2048.

    python3 perfbench/layergrid.py --threads 2

Times joint_amplitude, delta_k, schmidt_decompose, heralded_density_matrix
and hom_dip (301 delays) on the shipped KDP source, and prints one JSON
object {metric: [median ms, samples]}. BLAS threads are pinned to
``--threads`` before numpy is imported, so ``--threads 1`` is the plain
single-threaded baseline. run.py starts this in a fresh interpreter.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import time
from pathlib import Path

SIZES = (256, 512, 1024, 2048)
# Repeats per size; the n=2048 SVD alone takes seconds.
REPEATS = {256: 5, 512: 5, 1024: 3, 2048: 1}
STAGES = ("joint_amplitude", "delta_k", "schmidt_decompose", "heralded_density_matrix",
          "hom_dip")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--threads", type=int, required=True)
    parser.add_argument("--prefix", default="grid")
    args = parser.parse_args()
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(args.threads)
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

    import numpy as np
    from pairspec.crystals import get_crystal
    from pairspec.dispersion import delta_k
    from pairspec.interference import SourceSpec, hom_dip
    from pairspec.jsa import PumpSpec, build_grid, joint_amplitude
    from pairspec.schmidt import heralded_density_matrix, schmidt_decompose

    source = SourceSpec(get_crystal("KDP", 5.0), PumpSpec(415.0, 4.0), flat_phase=True)
    theta = source.resolve_theta()
    delays = np.linspace(-1500.0, 1500.0, 301)
    out = {}
    for n in SIZES:
        grid = build_grid(source.crystal, source.pump, n_points=n, theta_deg=theta)
        we, wo = grid.omega_e[:, None], grid.omega_o[None, :]
        jsa = joint_amplitude(source.crystal, theta, source.pump, grid, flat_phase=True)
        rho = heralded_density_matrix(jsa, "e")
        calls = {
            "joint_amplitude": lambda: joint_amplitude(source.crystal, theta, source.pump,
                                                       grid, flat_phase=True),
            "delta_k": lambda: delta_k(source.crystal, theta, we, wo),
            "schmidt_decompose": lambda: schmidt_decompose(jsa),
            "heralded_density_matrix": lambda: heralded_density_matrix(jsa, "e"),
            "hom_dip": lambda: hom_dip(rho, rho, delays),
        }
        for stage in STAGES:
            samples = []
            for _ in range(REPEATS[n]):
                start = time.perf_counter()
                calls[stage]()
                samples.append((time.perf_counter() - start) * 1e3)
            out[f"{args.prefix}.{stage}_ms.n{n}"] = [statistics.median(samples), len(samples)]
    print(json.dumps(out))


if __name__ == "__main__":
    main()
