"""Command-line surface: config parsing, experiment commands, CSV/JSON output.

Exit codes: 0 success, 2 configuration error, 3 physics-domain error
(no phasematching, filter removes support), 4 numerical failure.
"""

from __future__ import annotations

import argparse
import configparser
import json
import sys
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import __version__
from .analysis import (CountRecord, filter_sweep, fit_gaussian_dip,
                       simulate_counts, simulate_jsi_scan)
from .crystals import (_DB_KEYS, CrystalDatabase, CrystalSpec, _record_to_forms,
                       builtin_database)
from .dispersion import gvm_pump_wavelength
from .errors import (ConfigError, NumericalError, PairspecError,
                     PhysicsDomainError)
from .interference import SourceSpec, coherence_time, two_source_experiment
from .jsa import (FilterSpec, PumpSpec, apply_filters, export_jsi_csv,
                  export_metadata, jsi_pearson)
from .schmidt import export_schmidt_csv, schmidt_decompose

EXIT_CONFIG = 2
EXIT_PHYSICS = 3
EXIT_NUMERICAL = 4

_SOURCE_KEYS = {
    "crystal", "crystal_file", "length_mm", "cut_angle_deg",
    "pump_center_nm", "pump_fwhm_nm", "eta", "flat_phase",
}
_GRID_KEYS = {"n_points", "span_sigmas"}
_FILTER_KEYS = {"shape", "center_nm", "fwhm_nm"}
_CRYSTAL_KEYS = set(_DB_KEYS) - {"name"}


@dataclass
class RunConfig:
    """One source configuration parsed from an INI-style file."""

    source: SourceSpec
    path: str
    raw: dict

    def metadata(self):
        return {"config_path": self.path, "config": self.raw,
                "tool_version": __version__}


def _check_keys(parser, section, allowed, path):
    unknown = set(parser[section]) - allowed
    if unknown:
        raise ConfigError(
            f"{path}: section [{section}] has unknown keys: {', '.join(sorted(unknown))}"
        )


def _get_float(section, key, path, default=None):
    if key not in section:
        if default is not None:
            return default
        raise ConfigError(f"{path}: missing key {key!r}")
    try:
        return float(section[key])
    except ValueError as exc:
        raise ConfigError(f"{path}: key {key!r}: {exc}") from exc


def load_config(path, grid_points=None, flat_phase=None):
    """Parse a run configuration; strict about sections and keys."""
    parser = configparser.ConfigParser(inline_comment_prefixes=("#",))
    read = parser.read(path)
    if not read:
        raise ConfigError(f"cannot read config file {path}")
    known_sections = {"source", "grid", "filter.e", "filter.o", "crystal"}
    unknown = set(parser.sections()) - known_sections
    if unknown:
        raise ConfigError(f"{path}: unknown sections: {', '.join(sorted(unknown))}")
    if "source" not in parser:
        raise ConfigError(f"{path}: missing [source] section")
    _check_keys(parser, "source", _SOURCE_KEYS, path)
    src = parser["source"]

    inline = "crystal" in parser.sections()
    named = "crystal" in src
    if inline and named:
        raise ConfigError(f"{path}: both a named crystal and an inline [crystal] "
                          f"section were given")
    if not inline and not named:
        raise ConfigError(f"{path}: no crystal given (name or [crystal] section)")
    length_mm = _get_float(src, "length_mm", path)
    cut_angle = _get_float(src, "cut_angle_deg", path) if "cut_angle_deg" in src else None
    if inline:
        _check_keys(parser, "crystal", _CRYSTAL_KEYS, path)
        record = {"name": "inline", **parser["crystal"]}
        missing = _CRYSTAL_KEYS - set(record)
        if missing:
            raise ConfigError(
                f"{path}: [crystal] missing keys: {', '.join(sorted(missing))}")
        try:
            sellmeier_o, sellmeier_e = _record_to_forms(record)
        except ConfigError as exc:
            raise ConfigError(f"{path}: [crystal] {exc}") from exc
        crystal = CrystalSpec(
            name="inline",
            sellmeier_o=sellmeier_o,
            sellmeier_e=sellmeier_e,
            length_mm=length_mm,
            cut_angle_deg=cut_angle,
            source_citation=record["source_citation"],
        )
    else:
        db = (CrystalDatabase.from_file(src["crystal_file"])
              if "crystal_file" in src else builtin_database())
        crystal = db.crystal(src["crystal"], length_mm, cut_angle)

    pump = PumpSpec(
        center_nm=_get_float(src, "pump_center_nm", path),
        fwhm_nm=_get_float(src, "pump_fwhm_nm", path),
        eta=_get_float(src, "eta", path, default=1.0),
    )
    n_points, span_sigmas = 512, 4.0
    if "grid" in parser:
        _check_keys(parser, "grid", _GRID_KEYS, path)
        n_points = int(_get_float(parser["grid"], "n_points", path, default=512))
        span_sigmas = _get_float(parser["grid"], "span_sigmas", path, default=4.0)
    if grid_points is not None:
        n_points = grid_points
    use_flat = src.getboolean("flat_phase", fallback=False)
    if flat_phase is not None:
        use_flat = flat_phase

    filters = []
    for arm in ("e", "o"):
        section = f"filter.{arm}"
        if section in parser:
            _check_keys(parser, section, _FILTER_KEYS, path)
            sec = parser[section]
            shape = sec.get("shape", "gaussian")
            if shape == "none":
                filters.append(FilterSpec.none(arm))
            else:
                filters.append(FilterSpec(
                    shape=shape, arm=arm,
                    center_nm=_get_float(sec, "center_nm", path),
                    fwhm_nm=_get_float(sec, "fwhm_nm", path),
                ))
    raw = {s: dict(parser[s]) for s in parser.sections()}
    source = SourceSpec(
        crystal=crystal, pump=pump, theta_deg=cut_angle,
        n_points=n_points, span_sigmas=span_sigmas, flat_phase=use_flat,
    )
    return RunConfig(source=source, path=str(path), raw=raw), filters


def _out_dir(args):
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_json(path, payload):
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def cmd_gvm(args):
    db = CrystalDatabase.from_file(args.crystal_file) if args.crystal_file \
        else builtin_database()
    crystal = db.crystal(args.crystal, args.length_mm)
    solution = gvm_pump_wavelength(crystal, args.daughter_nm)
    payload = {
        "crystal": args.crystal,
        "daughter_wavelength_nm": args.daughter_nm,
        "pump_wavelength_nm": solution.pump_wavelength_nm,
        "phasematching_angle_deg": solution.phasematching_angle_deg,
        "group_index_pump_e": solution.group_index_pump_e,
        "group_index_daughter_o": solution.group_index_daughter_o,
        "residual": solution.residual,
        "tolerance_nm": solution.tolerance_nm,
        "tool_version": __version__,
    }
    out = _out_dir(args)
    _write_json(out / "gvm.json", payload)
    print(f"GVM pump wavelength: {solution.pump_wavelength_nm:.3f} nm "
          f"(theta = {solution.phasematching_angle_deg:.3f} deg, "
          f"residual = {solution.residual:.3e})")
    return 0


def cmd_jsa(args):
    config, filters = load_config(args.config, args.grid_points, args.flat_phase)
    # Solve the phasematching angle once for both the JSA and its metadata.
    source = replace(config.source, theta_deg=config.source.resolve_theta())
    jsa = source.build_jsa()
    if filters:
        jsa, _ = apply_filters(jsa, filters)
    pearson = jsi_pearson(jsa)
    out = _out_dir(args)
    export_jsi_csv(jsa, out / "jsi.csv")
    export_metadata(
        out / "jsi_meta.json", source.crystal, source.pump, jsa,
        theta_deg=source.theta_deg, filters=filters,
        extra={"pearson_correlation": pearson, **config.metadata()},
    )
    print(f"JSI written to {out / 'jsi.csv'} "
          f"(Pearson correlation {pearson:+.3f})")
    return 0


def cmd_schmidt(args):
    config, filters = load_config(args.config, args.grid_points, args.flat_phase)
    jsa = config.source.build_jsa()
    if filters:
        jsa, _ = apply_filters(jsa, filters)
    result = schmidt_decompose(jsa)
    out = _out_dir(args)
    export_schmidt_csv(result, out / "schmidt.csv", max_modes=64)
    _write_json(out / "schmidt_meta.json", {
        "purity": result.purity,
        "schmidt_number": result.schmidt_number,
        **config.metadata(),
    })
    print(f"Schmidt purity {result.purity:.4f}, "
          f"Schmidt number {result.schmidt_number:.3f}")
    return 0


def cmd_sweep(args):
    config, _ = load_config(args.config, args.grid_points, args.flat_phase)
    bandwidths = [float(x) for x in args.bandwidths.split(",")]
    result = filter_sweep(
        config.source, bandwidths, filter_shape=args.shape,
        symmetric=not args.asymmetric, herald_arm=args.herald_arm,
    )
    out = _out_dir(args)
    result.to_csv(out / "sweep.csv")
    _write_json(out / "sweep_meta.json", {**result.config, **config.metadata()})
    print(f"Sweep written to {out / 'sweep.csv'} ({len(bandwidths)} bandwidths)")
    return 0


def _parse_delays(spec):
    try:
        start, stop, count = spec.split(":")
        return np.linspace(float(start), float(stop), int(count))
    except ValueError as exc:
        raise ConfigError(
            f"delay range must be start:stop:count in fs, got {spec!r}"
        ) from exc


def _hom_source(path, args):
    """A config's source with its herald-arm filter; the interfered photon
    must reach the beamsplitter unfiltered."""
    config, filters = load_config(path, args.grid_points, args.flat_phase)
    herald_filter = None
    for filt in filters:
        if filt.shape == "none":
            continue
        if filt.arm != args.herald_arm:
            raise ConfigError(
                f"{path}: [filter.{filt.arm}] filters the interfered {filt.arm!r} "
                f"photon; hom --herald-arm {args.herald_arm} accepts only a "
                f"[filter.{args.herald_arm}] herald filter"
            )
        herald_filter = filt
    return replace(config.source, herald_filter=herald_filter)


def cmd_hom(args):
    source_a = _hom_source(args.config_a, args)
    source_b = _hom_source(args.config_b, args)
    delays = _parse_delays(args.delays)
    scan = two_source_experiment(
        source_a, source_b, herald_arm=args.herald_arm, delays_fs=delays,
    )
    out = _out_dir(args)
    scan.to_csv(out / "hom.csv", metadata_lines=[
        f"source_a,{args.config_a}",
        f"source_b,{args.config_b}",
        f"herald_arm,{args.herald_arm}",
        f"tool_version,{__version__}",
    ])
    if args.pairs_per_point:
        record = simulate_counts(scan, args.pairs_per_point, args.seed)
        record.to_csv(out / "hom_counts.csv")
    print(f"HOM scan: V = {scan.visibility:.4f}, dip FWHM = {scan.dip_fwhm_fs:.1f} fs, "
          f"coherence time = {coherence_time(scan.dip_fwhm_fs):.1f} fs")
    return 0


def cmd_fit(args):
    record = CountRecord.from_csv(args.counts)
    result = fit_gaussian_dip(record)
    out = _out_dir(args)
    result.to_json(out / "fit.json")
    print(f"Fit: B = {result.baseline:.1f}, V = {result.visibility:.4f} "
          f"+/- {result.uncertainties[1]:.4f}, FWHM = {result.fwhm_fs:.1f} fs "
          f"(converged: {result.converged})")
    return 0


def cmd_scan(args):
    config, filters = load_config(args.config, args.grid_points, args.flat_phase)
    jsa = config.source.build_jsa()
    if filters:
        jsa, _ = apply_filters(jsa, filters)
    budget = None if args.budget == 0 else args.budget
    result = simulate_jsi_scan(
        jsa, resolution_fwhm_nm=args.resolution_nm, step_nm=args.step_nm,
        pairs_budget=budget, seed=args.seed,
    )
    out = _out_dir(args)
    result.to_csv(out / "scan.csv")
    _write_json(out / "scan_meta.json", {
        "resolution_fwhm_nm": args.resolution_nm,
        "step_nm": args.step_nm,
        "pairs_budget": budget,
        "seed": args.seed,
        **config.metadata(),
    })
    print(f"Measured JSI written to {out / 'scan.csv'} "
          f"({result.lambda_e_nm.size} x {result.lambda_o_nm.size} points)")
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="pairspec",
        description="Spectrally engineered photon-pair source simulator",
    )
    parser.add_argument("--version", action="version", version=__version__)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", default=".", help="output directory")
    common.add_argument("--seed", type=int, default=0, help="random seed")
    common.add_argument("--grid-points", type=int, default=None,
                        help="override the grid point count per axis")
    common.add_argument("--flat-phase", action="store_true", default=None,
                        help="drop the phasematching phase factor")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gvm", parents=[common],
                       help="solve the group-velocity-matched pump wavelength")
    p.add_argument("--crystal", required=True)
    p.add_argument("--daughter-nm", type=float, required=True)
    p.add_argument("--length-mm", type=float, default=5.0)
    p.add_argument("--crystal-file", default=None)
    p.set_defaults(func=cmd_gvm)

    p = sub.add_parser("jsa", parents=[common], help="compute and export the JSI")
    p.add_argument("--config", required=True)
    p.set_defaults(func=cmd_jsa)

    p = sub.add_parser("schmidt", parents=[common],
                       help="Schmidt spectrum and purity of a source")
    p.add_argument("--config", required=True)
    p.set_defaults(func=cmd_schmidt)

    p = sub.add_parser("sweep", parents=[common],
                       help="purity/efficiency vs filter bandwidth")
    p.add_argument("--config", required=True)
    p.add_argument("--bandwidths", required=True,
                   help="comma-separated FWHM list in nm")
    p.add_argument("--shape", default="gaussian",
                   choices=["gaussian", "rectangular"])
    p.add_argument("--herald-arm", default="o", choices=["e", "o"])
    p.add_argument("--asymmetric", action="store_true",
                   help="filter only the herald arm")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("hom", parents=[common],
                       help="two-source Hong-Ou-Mandel scan")
    p.add_argument("--config-a", required=True)
    p.add_argument("--config-b", required=True)
    p.add_argument("--herald-arm", default="o", choices=["e", "o"])
    p.add_argument("--delays", default="-2000:2000:201",
                   help="start:stop:count in fs")
    p.add_argument("--pairs-per-point", type=float, default=0.0,
                   help="also emit Poisson counts with this mean pair budget")
    p.set_defaults(func=cmd_hom)

    p = sub.add_parser("fit", parents=[common],
                       help="weighted Gaussian fit of a counts CSV")
    p.add_argument("--counts", required=True)
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("scan", parents=[common],
                       help="simulated monochromator scan of the JSI")
    p.add_argument("--config", required=True)
    p.add_argument("--resolution-nm", type=float, required=True)
    p.add_argument("--step-nm", type=float, required=True)
    p.add_argument("--budget", type=float, default=0.0,
                   help="total expected pairs; 0 means noiseless")
    p.set_defaults(func=cmd_scan)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except PhysicsDomainError as exc:
        print(f"physics error: {exc}", file=sys.stderr)
        return EXIT_PHYSICS
    except (NumericalError, np.linalg.LinAlgError) as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
