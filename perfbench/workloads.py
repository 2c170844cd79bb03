"""The three benchmark workloads: command lists a source designer would run.

Each workload is built from a seed into a work directory. The program only
ever sees the generated inputs (config files and count CSVs); the seed
itself reaches it only as the ``--seed`` of ``hom`` and ``scan``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

# The two shipped reference sources (configs/kdp.cfg, configs/bbo.cfg), plus
# a KDP source with a twice-broader pump for the mismatched HOM pair. The
# benchmark writes its own copies so that editing the shipped examples does
# not silently change what is measured.
CONFIGS = {
    "kdp": """[source]
crystal = KDP
length_mm = 5
pump_center_nm = 415
pump_fwhm_nm = 4
flat_phase = true

[grid]
n_points = 512
span_sigmas = 4
""",
    "bbo": """[source]
crystal = BBO
length_mm = 2
pump_center_nm = 400
pump_fwhm_nm = 4
flat_phase = true

[grid]
n_points = 512
span_sigmas = 4
""",
}
CONFIGS["kdp8"] = CONFIGS["kdp"].replace("pump_fwhm_nm = 4", "pump_fwhm_nm = 8")

# Acceptance 3's filter ladder: 20, 19, ..., 1 nm.
SWEEP_BANDWIDTHS = [float(b) for b in range(20, 0, -1)]

HOM_GRID_POINTS = 1024
HOM_PAIRS_PER_POINT = 2000
# label -> (config a, config b, herald arm, delays start:stop:count)
HOM_CASES = {
    "kdp_o": ("kdp", "kdp", "o", "-1500:1500:301"),
    "kdp_e": ("kdp", "kdp", "e", "-400:400:401"),
    "kdp4_kdp8_o": ("kdp", "kdp8", "o", "-1500:1500:301"),
    "bbo_o": ("bbo", "bbo", "o", "-1500:1500:301"),
}

GVM_HITS = [750.0 + 25.0 * i for i in range(8)]
# Daughter wavelengths whose +-50 nm pump window has no GVM sign change.
GVM_MISSES = [("BBO", 800.0), ("BBO", 850.0), ("KDP", 1000.0)]

FIT_NOISY_FILES = 22
FIT_VISIBILITIES = (0.35, 0.944)
FIT_FWHMS_FS = (92.0, 440.0)
# Pairs per point are log-uniform over 1e3..1e5. Below that, the fitter's
# 1/max(counts, 1) weighting biases V=0.944 dips enough that the 5-sigma
# truth check fails for 1.6% of them at 100 pairs and 0.02% at 316 (see
# perfbench/README.md), and a run must not fail on a correct program.
FIT_LOG10_PAIRS = (3.0, 5.0)
NOISELESS_BASELINE = 1e9
FOUR_LN2 = 4.0 * math.log(2.0)


@dataclass
class Invocation:
    """One CLI run: its argv, where it writes, and what must come out."""

    label: str
    command: str
    argv: list
    out: Path
    expect_rc: int = 0
    check: dict = field(default_factory=dict)


def dip_rates(delays, visibility, fwhm_fs, center_fs=0.0):
    return 1.0 - visibility * np.exp(-FOUR_LN2 * (delays - center_fs) ** 2 / fwhm_fs ** 2)


def _write_configs(inputs, names):
    inputs.mkdir(parents=True, exist_ok=True)
    paths = {}
    for name in names:
        path = inputs / f"{name}.cfg"
        path.write_text(CONFIGS[name])
        paths[name] = path
    return paths


def characterize(seed, work):
    """Single-source characterisation of both shipped sources at n=512."""
    rng = np.random.default_rng(seed)
    cfg = _write_configs(work / "inputs", ("kdp", "bbo"))
    bandwidths = ",".join(f"{b:g}" for b in SWEEP_BANDWIDTHS)
    invs = []
    for name in ("kdp", "bbo"):
        c = str(cfg[name])
        out = work / "out" / name
        scan = ["--resolution-nm", "0.2", "--step-nm", "0.1"]
        invs += [
            Invocation(f"{name}.jsa", "jsa", ["jsa", "--config", c], out / "jsa",
                       check={"kind": "jsi", "n": 512}),
            Invocation(f"{name}.schmidt", "schmidt", ["schmidt", "--config", c],
                       out / "schmidt", check={"kind": "schmidt", "source": name}),
            Invocation(f"{name}.sweep", "sweep",
                       ["sweep", "--config", c, "--bandwidths", bandwidths],
                       out / "sweep", check={"kind": "sweep", "source": name}),
            Invocation(f"{name}.scan", "scan", ["scan", "--config", c] + scan,
                       out / "scan", check={"kind": "scan"}),
            Invocation(f"{name}.scan_budget", "scan",
                       ["scan", "--config", c] + scan
                       + ["--budget", "1e6", "--seed", str(int(rng.integers(2 ** 31)))],
                       out / "scan_budget",
                       check={"kind": "scan", "budget": 1e6,
                              "noiseless": str(out / "scan")}),
        ]
    return invs


def interfere(seed, work):
    """Two-source HOM at 1024 grid points, each scan followed by a fit."""
    rng = np.random.default_rng(seed)
    cfg = _write_configs(work / "inputs", ("kdp", "kdp8", "bbo"))
    invs = []
    for label, (a, b, herald, delays) in HOM_CASES.items():
        out = work / "out" / label
        hom_out = out / "hom"
        invs.append(Invocation(
            f"{label}.hom", "hom",
            ["hom", "--config-a", str(cfg[a]), "--config-b", str(cfg[b]),
             "--herald-arm", herald, f"--delays={delays}",
             "--grid-points", str(HOM_GRID_POINTS),
             "--pairs-per-point", str(HOM_PAIRS_PER_POINT),
             "--seed", str(int(rng.integers(2 ** 31)))],
            hom_out, check={"kind": "hom", "case": label,
                            "pairs": HOM_PAIRS_PER_POINT}))
        invs.append(Invocation(
            f"{label}.fit", "fit",
            ["fit", "--counts", str(hom_out / "hom_counts.csv")], out / "fit",
            check={"kind": "fit", "hom": str(hom_out)}))
    return invs


def _write_counts(path, delays, counts, pairs):
    with open(path, "w") as fh:
        fh.write(f"# pairs_per_point,{pairs:.9g}\n# seed,0\ndelay_fs,counts\n")
        for t, n in zip(delays, counts):
            fh.write(f"{t:.9g},{int(n)}\n")


def solve(seed, work):
    """Grid-free scalar work: GVM hits and misses, and fits of count files."""
    rng = np.random.default_rng(seed)
    inputs = work / "inputs"
    inputs.mkdir(parents=True, exist_ok=True)
    invs = []
    for d in GVM_HITS:
        invs.append(Invocation(
            f"gvm.KDP.{d:g}", "gvm", ["gvm", "--crystal", "KDP", "--daughter-nm", f"{d:g}"],
            work / "out" / f"gvm_KDP_{d:g}", check={"kind": "gvm", "crystal": "KDP"}))
    for crystal, d in GVM_MISSES:
        invs.append(Invocation(
            f"gvm.{crystal}.{d:g}", "gvm",
            ["gvm", "--crystal", crystal, "--daughter-nm", f"{d:g}"],
            work / "out" / f"gvm_{crystal}_{d:g}", expect_rc=3,
            check={"kind": "gvm_miss"}))
    dips = []
    for i in range(FIT_NOISY_FILES):
        dips.append((FIT_VISIBILITIES[i % 2], FIT_FWHMS_FS[(i // 2) % 2],
                     10.0 ** rng.uniform(*FIT_LOG10_PAIRS), False))
    dips.append((0.944, 440.0, NOISELESS_BASELINE, True))
    dips.append((0.35, 92.0, NOISELESS_BASELINE, True))
    for i, (vis, fwhm, pairs, noiseless) in enumerate(dips):
        n = int(rng.integers(61, 302))
        center = float(rng.uniform(-0.1, 0.1) * fwhm)
        delays = np.linspace(-3.5 * fwhm, 3.5 * fwhm, n)
        # Round the delays as the CSV stores them, so the truth is exact.
        delays = np.array([float(f"{t:.9g}") for t in delays])
        mean = pairs * dip_rates(delays, vis, fwhm, center)
        counts = np.round(mean) if noiseless else rng.poisson(mean)
        path = inputs / f"counts_{i:02d}.csv"
        _write_counts(path, delays, counts.astype(np.int64), pairs)
        invs.append(Invocation(
            f"fit.{i:02d}", "fit", ["fit", "--counts", str(path)],
            work / "out" / f"fit_{i:02d}",
            check={"kind": "fit", "truth": [pairs, vis, center, fwhm],
                   "noiseless": noiseless}))
    return invs


WORKLOADS = {"characterize": characterize, "interfere": interfere, "solve": solve}

# Wrapped functions each workload must reach; a traced run that records no
# call to one of them is broken (a wrapper bound at the wrong place).
MUST_HIT = {
    "characterize": ["crystals.SellmeierForm.index", "dispersion.delta_k",
                     "jsa.build_grid", "jsa.joint_amplitude", "jsa.apply_filters",
                     "jsa.export_jsi_csv", "schmidt.schmidt_decompose",
                     "schmidt.heralding_efficiency", "analysis.filter_sweep",
                     "analysis.simulate_jsi_scan", "interference.SourceSpec.build_jsa",
                     "cli.load_config", "cli.main"],
    "interfere": ["crystals.SellmeierForm.index", "dispersion.delta_k",
                  "jsa.joint_amplitude", "schmidt.heralded_density_matrix",
                  "interference.two_source_experiment", "interference.hom_dip",
                  "analysis.simulate_counts", "analysis.fit_gaussian_dip",
                  "analysis.CountRecord.from_csv", "cli.load_config", "cli.main"],
    "solve": ["crystals.SellmeierForm.index", "dispersion.index_e",
              "dispersion.phasematching_angle", "dispersion.group_index",
              "dispersion.gvm_pump_wavelength", "analysis.fit_gaussian_dip",
              "analysis.CountRecord.from_csv", "cli.main"],
}
