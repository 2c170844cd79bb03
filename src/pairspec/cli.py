"""Command-line surface: config parsing, experiment commands, CSV/JSON output.

Exit codes: 0 success, 2 configuration error, 3 physics-domain error
(no phasematching, filter removes support), 4 numerical failure.
"""

from __future__ import annotations

import argparse
import configparser
import json
import math
import sys
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import __version__
from .analysis import (CountRecord, filter_sweep, fit_gaussian_dip,
                       simulate_counts, simulate_jsi_scan)
from .crystals import CrystalDatabase, builtin_database, crystal_from_record
from .dispersion import gvm_pump_wavelength
from .errors import (ConfigError, NumericalError, PairspecError,
                     PhysicsDomainError)
from .interference import SourceSpec, coherence_time, two_source_experiment
from .jsa import FilterSpec, PumpSpec, export_jsi_csv, export_metadata, jsi_pearson
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
        value = float(section[key])
    except ValueError as exc:
        raise ConfigError(f"{path}: key {key!r}: {exc}") from exc
    if not math.isfinite(value):
        raise ConfigError(f"{path}: key {key!r} must be finite, got {value}")
    return value


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
        try:
            crystal = crystal_from_record("inline", dict(parser["crystal"]),
                                          length_mm, cut_angle)
        except ConfigError as exc:
            raise ConfigError(f"{path}: [crystal] {exc}") from exc
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
        crystal=crystal, pump=pump, n_points=n_points,
        span_sigmas=span_sigmas, flat_phase=use_flat, filters=tuple(filters),
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
    config, _ = load_config(args.config, args.grid_points, args.flat_phase)
    # Solve the phasematching angle once for both the JSA and its metadata.
    source = config.source
    source = replace(source, crystal=replace(source.crystal,
                                             cut_angle_deg=source.resolve_theta()))
    jsa = source.build_jsa()
    pearson = jsi_pearson(jsa)
    out = _out_dir(args)
    export_jsi_csv(jsa, out / "jsi.csv")
    export_metadata(
        out / "jsi_meta.json", source.crystal, source.pump, jsa,
        filters=source.filters,
        extra={"pearson_correlation": pearson, **config.metadata()},
    )
    print(f"JSI written to {out / 'jsi.csv'} "
          f"(Pearson correlation {pearson:+.3f})")
    return 0


def cmd_schmidt(args):
    config, _ = load_config(args.config, args.grid_points, args.flat_phase)
    result = schmidt_decompose(config.source.build_jsa())
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
    # The sweep sets its own filters; a config's filters do not apply.
    result = filter_sweep(
        replace(config.source, filters=()), bandwidths, filter_shape=args.shape,
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
        start, stop = float(start), float(stop)
        if math.isfinite(start) and math.isfinite(stop):
            return np.linspace(start, stop, int(count))
    except ValueError as exc:
        raise ConfigError(
            f"delay range must be start:stop:count in fs, got {spec!r}"
        ) from exc
    raise ConfigError(f"delay range ends must be finite, got {spec!r}")


def _hom_source(path, args):
    """A config's source, which may filter only its herald arm: the
    interfered photon must reach the beamsplitter unfiltered."""
    config, filters = load_config(path, args.grid_points, args.flat_phase)
    for filt in filters:
        if filt.shape != "none" and filt.arm != args.herald_arm:
            raise ConfigError(
                f"{path}: [filter.{filt.arm}] filters the interfered {filt.arm!r} "
                f"photon; hom --herald-arm {args.herald_arm} accepts only a "
                f"[filter.{args.herald_arm}] herald filter"
            )
    return config.source


def cmd_hom(args):
    source_a = _hom_source(args.config_a, args)
    source_b = _hom_source(args.config_b, args)
    delays = _parse_delays(args.delays)
    scan = two_source_experiment(
        source_a, source_b, herald_arm=args.herald_arm, delays_fs=delays,
    )
    # Simulated before anything is written, so a bad pair budget leaves no files.
    record = (simulate_counts(scan, args.pairs_per_point, args.seed)
              if args.pairs_per_point else None)
    out = _out_dir(args)
    scan.to_csv(out / "hom.csv", metadata_lines=[
        f"source_a,{args.config_a}",
        f"source_b,{args.config_b}",
        f"herald_arm,{args.herald_arm}",
        f"tool_version,{__version__}",
    ])
    if record is not None:
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
    config, _ = load_config(args.config, args.grid_points, args.flat_phase)
    budget = None if args.budget == 0 else args.budget
    result = simulate_jsi_scan(
        config.source.build_jsa(), resolution_fwhm_nm=args.resolution_nm,
        step_nm=args.step_nm, pairs_budget=budget, seed=args.seed,
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
    # Each subcommand takes only the flags it acts on: --out everywhere, the
    # grid flags where a JSA is built, and --seed where counts are drawn.
    output = argparse.ArgumentParser(add_help=False)
    output.add_argument("--out", default=".", help="output directory")
    gridded = argparse.ArgumentParser(add_help=False, parents=[output])
    gridded.add_argument("--grid-points", type=int, default=None,
                         help="override the grid point count per axis")
    gridded.add_argument("--flat-phase", action="store_true", default=None,
                         help="drop the phasematching phase factor")
    seeded = argparse.ArgumentParser(add_help=False, parents=[gridded])
    seeded.add_argument("--seed", type=int, default=0, help="random seed")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gvm", parents=[output],
                       help="solve the group-velocity-matched pump wavelength")
    p.add_argument("--crystal", required=True)
    p.add_argument("--daughter-nm", type=float, required=True)
    p.add_argument("--length-mm", type=float, default=5.0)
    p.add_argument("--crystal-file", default=None)
    p.set_defaults(func=cmd_gvm)

    p = sub.add_parser("jsa", parents=[gridded], help="compute and export the JSI")
    p.add_argument("--config", required=True)
    p.set_defaults(func=cmd_jsa)

    p = sub.add_parser("schmidt", parents=[gridded],
                       help="Schmidt spectrum and purity of a source")
    p.add_argument("--config", required=True)
    p.set_defaults(func=cmd_schmidt)

    p = sub.add_parser("sweep", parents=[gridded],
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

    p = sub.add_parser("hom", parents=[seeded],
                       help="two-source Hong-Ou-Mandel scan")
    p.add_argument("--config-a", required=True)
    p.add_argument("--config-b", required=True)
    p.add_argument("--herald-arm", default="o", choices=["e", "o"])
    p.add_argument("--delays", default="-2000:2000:201",
                   help="start:stop:count in fs")
    p.add_argument("--pairs-per-point", type=float, default=0.0,
                   help="also emit Poisson counts with this mean pair budget")
    p.set_defaults(func=cmd_hom)

    p = sub.add_parser("fit", parents=[output],
                       help="weighted Gaussian fit of a counts CSV")
    p.add_argument("--counts", required=True)
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("scan", parents=[seeded],
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
