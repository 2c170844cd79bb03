"""Output checks: every invocation's exit code and files, against expectations.

A check returns a list of problems (empty when the output is correct) and a
list of (label, value, reference) for the physics outputs that feed
``result_err``. The references come from reference.json. Gross-error gates
here are deliberately loose (percent level); the exact deviation from the
reference is what ``result_err`` reports.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np
from scipy.optimize import least_squares

import workloads

REFERENCE = json.loads((Path(__file__).resolve().parent / "reference.json").read_text())

GRID_REL_TOL = 2e-2     # purity, visibility, FWHM against the converged reference
GVM_ABS_TOL_NM = 1e-3   # ten times the solver's documented 1e-4 nm bracket
PULL_LIMIT = 5.0        # fitted parameters against the truth, in reported sigmas
NOISELESS_REL_TOL = 1e-6  # acceptance 8's noiseless recovery
SIGMA_RATIO = (0.5, 2.0)  # reported sigma against the Fisher-information sigma


class CheckError(Exception):
    """An output that is missing, malformed or wrong."""


def _require(cond, message):
    if not cond:
        raise CheckError(message)


def _finite(array, what):
    try:
        array = np.asarray(array, dtype=float)
    except (TypeError, ValueError) as exc:
        raise CheckError(f"{what}: {exc}") from exc
    _require(array.size > 0 and np.all(np.isfinite(array)), f"{what}: empty or non-finite")
    return array


def _read_json(path):
    try:
        return json.loads(Path(path).read_text())
    except (OSError, ValueError) as exc:
        raise CheckError(f"{Path(path).name}: {exc}") from exc


def _read_lines(path):
    try:
        return Path(path).read_text().splitlines()
    except OSError as exc:
        raise CheckError(f"{Path(path).name}: {exc}") from exc


def _read_csv(path):
    """(comment key -> text after its first comma, data rows as field lists)."""
    comments, rows = {}, []
    for line in _read_lines(path):
        if line.startswith("# "):
            key, _, rest = line[2:].partition(",")
            comments[key] = rest
        elif line:
            rows.append(line.split(","))
    return comments, rows


def _floats(fields, what):
    try:
        return _finite([float(x) for x in fields], what)
    except ValueError as exc:
        raise CheckError(f"{what}: {exc}") from exc


def _matrix(rows, what):
    _require(rows and len({len(r) for r in rows}) == 1, f"{what}: ragged or empty matrix")
    return _floats([x for r in rows for x in r], what).reshape(len(rows), len(rows[0]))


def _uniform(axis, what):
    """Step of a uniform ascending axis printed with 9 significant digits."""
    step = float(axis[-1] - axis[0]) / (axis.size - 1)
    _require(step > 0 and np.all(np.abs(np.diff(axis) - step) <= 1e-8 * np.max(np.abs(axis))),
             f"{what}: axis is not uniform and ascending")
    return step


def _poisson_consistent(counts, expected, what):
    """Chi-square of counts against Poisson means, within 5 sigma of its mean."""
    _require(counts.shape == expected.shape, f"{what}: shape {counts.shape} != {expected.shape}")
    _require(np.all(counts >= 0) and np.all(counts == np.round(counts)),
             f"{what}: counts are not non-negative integers")
    used = expected >= 5.0
    k = int(used.sum())
    _require(k >= 10, f"{what}: fewer than 10 cells with >= 5 expected counts")
    chi2 = float(np.sum((counts[used] - expected[used]) ** 2 / expected[used]))
    sd = math.sqrt(float(np.sum(2.0 + 1.0 / expected[used])))
    _require(abs(chi2 - k) <= 5.0 * sd,
             f"{what}: chi2 {chi2:.1f} over {k} cells is {abs(chi2 - k) / sd:.1f} sd off")


def _against(label, value, ref, tol, values):
    values.append((label, float(value), float(ref)))
    _require(abs(value - ref) <= tol * abs(ref),
             f"{label} = {value:.9g}, reference {ref:.9g} (tolerance {tol:g} relative)")


def check_jsi(inv, values):
    n = inv.check["n"]
    comments, rows = _read_csv(inv.out / "jsi.csv")
    axes = {}
    for key in ("axis_e_nm", "axis_e_rad_s", "axis_o_nm", "axis_o_rad_s"):
        _require(key in comments, f"jsi.csv: missing {key}")
        axes[key] = _floats(comments[key].split(","), f"jsi.csv {key}")
        _require(axes[key].size == n, f"jsi.csv {key}: {axes[key].size} points, expected {n}")
    jsi = _matrix(rows, "jsi.csv")
    _require(jsi.shape == (n, n), f"jsi.csv: shape {jsi.shape}, expected {(n, n)}")
    _require(np.all(jsi >= 0), "jsi.csv: negative intensity")
    we, wo = axes["axis_e_rad_s"], axes["axis_o_rad_s"]
    measure = _uniform(we, "axis_e_rad_s") * _uniform(wo, "axis_o_rad_s")
    norm = float(jsi.sum() * measure)
    _require(abs(norm - 1.0) < 1e-6, f"jsi.csv: JSI integrates to {norm:.9g}, not 1")
    meta = _read_json(inv.out / "jsi_meta.json")
    _require(meta.get("grid", {}).get("n_e") == n, "jsi_meta.json: wrong grid size")
    density = jsi / jsi.sum()
    p_e, p_o = density.sum(axis=1), density.sum(axis=0)
    mu_e, mu_o = p_e @ we, p_o @ wo
    cov = float(((we - mu_e)[:, None] * (wo - mu_o)[None, :] * density).sum())
    pearson = cov / math.sqrt(float(p_e @ (we - mu_e) ** 2) * float(p_o @ (wo - mu_o) ** 2))
    reported = meta.get("pearson_correlation")
    _require(isinstance(reported, float) and abs(reported - pearson) < 1e-6,
             f"jsi_meta.json: Pearson {reported} but the JSI gives {pearson:.9g}")


def check_schmidt(inv, values):
    source = inv.check["source"]
    _, rows = _read_csv(inv.out / "schmidt.csv")
    _require(rows and rows[0] == ["k", "c_k", "c_k_squared"], "schmidt.csv: bad header")
    table = _matrix(rows[1:], "schmidt.csv")
    _require(table.shape[1] == 3 and 1 <= table.shape[0] <= 64, "schmidt.csv: bad shape")
    c = table[:, 1]
    _require(np.all(c >= 0) and np.all(np.diff(c) <= 0), "schmidt.csv: c_k not descending")
    _require(np.allclose(table[:, 2], c ** 2, rtol=1e-9), "schmidt.csv: c_k^2 mismatch")
    meta = _read_json(inv.out / "schmidt_meta.json")
    purity = _finite(meta.get("purity"), "purity")
    _require(0.0 < purity <= 1.0, f"purity {purity} outside (0, 1]")
    _require(abs(float(np.sum(c ** 4)) - purity) < 1e-6,
             "schmidt.csv: sum of c_k^4 disagrees with the reported purity")
    _require(abs(meta.get("schmidt_number", 0.0) * purity - 1.0) < 1e-9,
             "schmidt number is not 1 / purity")
    _against(f"purity.{source}", float(purity), REFERENCE["purity"][source],
             GRID_REL_TOL, values)


def check_sweep(inv, values):
    source = inv.check["source"]
    lines = _read_lines(inv.out / "sweep.csv")
    _require(len(lines) >= 2 and lines[0].startswith("# "), "sweep.csv: missing config line")
    try:
        json.loads(lines[0][2:])
    except ValueError as exc:
        raise CheckError(f"sweep.csv: config line: {exc}") from exc
    _require(lines[1] == "bandwidth_nm,purity,heralding_efficiency", "sweep.csv: bad header")
    table = _matrix([line.split(",") for line in lines[2:]], "sweep.csv")
    bandwidths = workloads.SWEEP_BANDWIDTHS
    _require(table.shape == (len(bandwidths), 3), f"sweep.csv: shape {table.shape}")
    _require(np.allclose(table[:, 0], bandwidths), "sweep.csv: wrong bandwidths")
    _require(np.all((table[:, 1:] > 0) & (table[:, 1:] <= 1)),
             "sweep.csv: purity or efficiency outside (0, 1]")
    for bw, purity, ref in zip(bandwidths, table[:, 1], REFERENCE["sweep_purity"][source]):
        _against(f"sweep.{source}.{bw:g}nm", purity, ref, GRID_REL_TOL, values)


def _read_scan(out):
    comments, rows = _read_csv(out / "scan.csv")
    for key in ("resolution_fwhm_nm", "step_nm", "axis_e_nm", "axis_o_nm"):
        _require(key in comments, f"scan.csv: missing {key}")
    axis_e = _floats(comments["axis_e_nm"].split(","), "axis_e_nm")
    axis_o = _floats(comments["axis_o_nm"].split(","), "axis_o_nm")
    grid = _matrix(rows, "scan.csv")
    _require(grid.shape == (axis_e.size, axis_o.size), "scan.csv: shape does not match axes")
    _require(np.all(grid >= 0), "scan.csv: negative entries")
    _require(float(comments["step_nm"]) == 0.1 and float(comments["resolution_fwhm_nm"]) == 0.2,
             "scan.csv: wrong resolution or step")
    _require(abs(_uniform(axis_e, "axis_e_nm") - 0.1) < 1e-6, "scan.csv: wrong lattice step")
    return axis_e, axis_o, grid


def check_scan(inv, values):
    axis_e, axis_o, grid = _read_scan(inv.out)
    budget = inv.check.get("budget")
    if budget is None:
        _require(grid.sum() > 0, "scan.csv: no intensity")
        return
    ref_e, ref_o, smooth = _read_scan(Path(inv.check["noiseless"]))
    _require(np.array_equal(axis_e, ref_e) and np.array_equal(axis_o, ref_o),
             "scan.csv: lattice differs from the noiseless scan")
    total = float(grid.sum())
    _require(abs(total - budget) <= 5.0 * math.sqrt(budget),
             f"scan.csv: {total:.0f} counts for a budget of {budget:.0f}")
    _poisson_consistent(grid, smooth * (budget / smooth.sum()), "scan.csv")


def _read_hom(out):
    comments, rows = _read_csv(out / "hom.csv")
    for key in ("visibility", "dip_fwhm_fs", "coherence_time_fs"):
        _require(key in comments, f"hom.csv: missing {key}")
    _require(rows and rows[0] == ["delay_fs", "normalized_rate"], "hom.csv: bad header")
    table = _matrix(rows[1:], "hom.csv")
    return {k: float(comments[k]) for k in ("visibility", "dip_fwhm_fs",
                                            "coherence_time_fs")}, table


def check_hom(inv, values):
    case = inv.check["case"]
    head, table = _read_hom(inv.out)
    start, stop, count = workloads.HOM_CASES[case][3].split(":")
    delays = np.linspace(float(start), float(stop), int(count))
    _require(table.shape == (delays.size, 2) and np.allclose(table[:, 0], delays, atol=1e-6),
             "hom.csv: delays differ from the requested scan")
    _require(np.all((table[:, 1] >= 0) & (table[:, 1] <= 2)), "hom.csv: rate out of range")
    vis, fwhm = head["visibility"], head["dip_fwhm_fs"]
    _require(0.0 <= vis <= 1.0, f"hom.csv: visibility {vis}")
    _require(abs(head["coherence_time_fs"] - fwhm / math.sqrt(2.0)) <= 1e-8 * fwhm,
             "hom.csv: coherence time is not FWHM / sqrt(2)")
    ref = REFERENCE["hom"][case]
    _against(f"hom.{case}.visibility", vis, ref["visibility"], GRID_REL_TOL, values)
    _against(f"hom.{case}.fwhm_fs", fwhm, ref["fwhm_fs"], GRID_REL_TOL, values)
    comments, rows = _read_csv(inv.out / "hom_counts.csv")
    _require(float(comments.get("pairs_per_point", "nan")) == inv.check["pairs"],
             "hom_counts.csv: wrong pairs_per_point")
    counts = _matrix(rows[1:], "hom_counts.csv")
    _require(np.allclose(counts[:, 0], table[:, 0]), "hom_counts.csv: delays differ")
    _poisson_consistent(counts[:, 1], inv.check["pairs"] * table[:, 1], "hom_counts.csv")


def _fisher_sigma(params, delays):
    """Parameter sigmas of the dip model at params under Poisson noise."""
    b, v, t0, w = params
    g = np.exp(-workloads.FOUR_LN2 * (delays - t0) ** 2 / w ** 2)
    mean = b * (1.0 - v * g)
    jac = np.stack([1.0 - v * g, -b * g,
                    -b * v * g * 2.0 * workloads.FOUR_LN2 * (delays - t0) / w ** 2,
                    -b * v * g * 2.0 * workloads.FOUR_LN2 * (delays - t0) ** 2 / w ** 3],
                   axis=1)
    normal = (jac / np.maximum(mean, 1.0)[:, None]).T @ jac
    return np.sqrt(np.diag(np.linalg.inv(normal)))


def _gaussian_truth(delays, expected, start):
    """Best Gaussian dip through noiseless means: what a fit should converge to."""
    def residual(p):
        return (workloads.dip_rates(delays, p[1], p[3], p[2]) * p[0] - expected) \
            / np.sqrt(np.maximum(expected, 1.0))
    return least_squares(residual, start, method="lm", xtol=1e-14, ftol=1e-14).x


def check_fit(inv, values):
    fit = _read_json(inv.out / "fit.json")
    keys = ("baseline", "visibility", "center_fs", "fwhm_fs")
    got = _finite([fit.get(k) for k in keys], "fit.json parameters")
    sigma = _finite([fit.get("uncertainties", {}).get(k) for k in keys], "fit.json sigmas")
    _require(fit.get("converged") is True, "fit did not converge")
    if "hom" in inv.check:
        head, table = _read_hom(Path(inv.check["hom"]))
        comments, rows = _read_csv(Path(inv.check["hom"]) / "hom_counts.csv")
        delays = table[:, 0]
        pairs = float(comments["pairs_per_point"])
        truth = _gaussian_truth(delays, pairs * table[:, 1],
                                [pairs, head["visibility"], 0.0, head["dip_fwhm_fs"]])
        noiseless = False
    else:
        truth = np.array(inv.check["truth"], dtype=float)
        noiseless = inv.check["noiseless"]
        _, rows = _read_csv(inv.argv[2])
        delays = _floats([r[0] for r in rows[1:]], "counts delays")
    if noiseless:
        for i, name in ((1, "visibility"), (3, "fwhm_fs")):
            err = abs(got[i] - truth[i]) / truth[i]
            _require(err < NOISELESS_REL_TOL, f"noiseless fit {name} off by {err:.1e} relative")
        _require(abs(got[2] - truth[2]) < NOISELESS_REL_TOL * truth[3],
                 "noiseless fit center off")
        return
    expected_sigma = _fisher_sigma(truth, delays)
    for i in (1, 2, 3):
        pull = abs(got[i] - truth[i]) / sigma[i]
        _require(pull <= PULL_LIMIT, f"fit {keys[i]} = {got[i]:.6g}, truth {truth[i]:.6g}, "
                                     f"{pull:.1f} sigma off")
        ratio = sigma[i] / expected_sigma[i]
        _require(SIGMA_RATIO[0] <= ratio <= SIGMA_RATIO[1],
                 f"fit {keys[i]} sigma {sigma[i]:.3g} is {ratio:.2f}x the Fisher sigma")


def check_gvm(inv, values):
    out = _read_json(inv.out / "gvm.json")
    lam = float(_finite(out.get("pump_wavelength_nm"), "pump_wavelength_nm"))
    theta = float(_finite(out.get("phasematching_angle_deg"), "phasematching_angle_deg"))
    _require(0.0 < theta < 90.0, f"phasematching angle {theta}")
    _require(abs(float(_finite(out.get("residual"), "residual"))) <= 1e-6, "GVM residual")
    ref = REFERENCE["gvm_pump_nm"][inv.check["crystal"]]
    values.append((f"gvm.{inv.label}", lam, ref))
    _require(abs(lam - ref) <= GVM_ABS_TOL_NM,
             f"GVM pump {lam:.6f} nm, reference {ref:.6f} nm")


def check_gvm_miss(inv, values):
    _require(not (inv.out / "gvm.json").exists(), "a miss wrote gvm.json")
    err = "\n".join(_read_lines(inv.out / "stderr.txt"))
    _require("no GVM point" in err, "a miss did not report 'no GVM point'")


CHECKS = {"jsi": check_jsi, "schmidt": check_schmidt, "sweep": check_sweep,
          "scan": check_scan, "hom": check_hom, "fit": check_fit, "gvm": check_gvm,
          "gvm_miss": check_gvm_miss}


def check(inv, rc):
    """(problem or None, [(label, value, reference)]) for one invocation."""
    values = []
    if rc != inv.expect_rc:
        return f"exit code {rc}, expected {inv.expect_rc}", values
    try:
        CHECKS[inv.check["kind"]](inv, values)
    except CheckError as exc:
        return str(exc), values
    except Exception as exc:  # a malformed output must count as a failure
        return f"unreadable output: {type(exc).__name__}: {exc}", values
    return None, values
