"""Command-line surface: config parsing, experiment commands, CSV/JSON output.

Exit codes: 0 success, 2 configuration error, 3 physics-domain error
(no phasematching, filter removes support), 4 numerical failure (also an
array too large to allocate, such as an n x n grid at a huge n).
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .analysis import (CountRecord, filter_sweep, fit_gaussian_dip,
                       simulate_counts, simulate_jsi_scan)
from .crystals import (_DB_KEYS, CrystalDatabase, builtin_database, crystal_from_record,
                       read_ini)
from .dispersion import gvm_pump_wavelength
from .errors import ConfigError, NumericalError, PhysicsDomainError
from .interference import SourceSpec, coherence_time, two_source_experiment
from .jsa import (FILTER_SHAPES, MIN_GRID_POINTS, FilterSpec, PumpSpec, export_jsi_csv,
                  export_metadata, jsi_pearson)
from .schmidt import RESIDUAL_TOL, export_schmidt_csv, schmidt_decompose
from .tables import write_json

EXIT_CONFIG = 2
EXIT_PHYSICS = 3
EXIT_NUMERICAL = 4

# The sections a config may hold, each with the keys it may hold.
_SECTION_KEYS = {
    "source": {"crystal", "crystal_file", "length_mm", "cut_angle_deg",
               "pump_center_nm", "pump_fwhm_nm", "flat_phase"},
    "grid": {"n_points", "span_sigmas"},
    "filter.e": {"shape", "center_nm", "fwhm_nm"},
    "filter.o": {"shape", "center_nm", "fwhm_nm"},
    "crystal": set(_DB_KEYS),
}


@dataclass
class RunConfig:
    """One source configuration parsed from an INI-style file."""

    source: SourceSpec
    path: str
    raw: dict

    def metadata(self):
        return {"config_path": self.path, "config": self.raw,
                "tool_version": __version__}


def _get_float(section, key):
    if key not in section:
        raise ConfigError(f"missing key {key!r}")
    try:
        value = float(section[key])
    except ValueError as exc:
        raise ConfigError(f"key {key!r}: {exc}") from exc
    if not math.isfinite(value):
        raise ConfigError(f"key {key!r} must be finite, got {value}")
    return value


def load_config(path, grid_points=None):
    """Parse a run configuration; strict about sections and keys. Every
    error names the file, or the --grid-points flag that overrides its grid."""
    if grid_points is not None and grid_points < MIN_GRID_POINTS:
        raise ConfigError(f"--grid-points must be at least {MIN_GRID_POINTS}, got {grid_points}")
    parser = read_ini(path)
    try:
        source = _source_from(parser, grid_points)
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    raw = {s: dict(parser[s]) for s in parser.sections()}
    return RunConfig(source=source, path=str(path), raw=raw), list(source.filters)


def _source_from(parser, grid_points):
    unknown = set(parser.sections()) - set(_SECTION_KEYS)
    if unknown:
        raise ConfigError(f"unknown sections: {', '.join(sorted(unknown))}")
    for section in parser.sections():
        unknown = set(parser[section]) - _SECTION_KEYS[section]
        if unknown:
            raise ConfigError(
                f"section [{section}] has unknown keys: {', '.join(sorted(unknown))}")
    if "source" not in parser:
        raise ConfigError("missing [source] section")
    src = parser["source"]

    inline = "crystal" in parser.sections()
    named = "crystal" in src
    if inline and named:
        raise ConfigError("both a named crystal and an inline [crystal] section were given")
    if not inline and not named:
        raise ConfigError("no crystal given (name or [crystal] section)")
    length_mm = _get_float(src, "length_mm")
    cut_angle = _get_float(src, "cut_angle_deg") if "cut_angle_deg" in src else None
    if inline:
        crystal = crystal_from_record("inline", dict(parser["crystal"]),
                                      length_mm, cut_angle)
    else:
        db = (CrystalDatabase.from_file(src["crystal_file"])
              if "crystal_file" in src else builtin_database())
        crystal = db.crystal(src["crystal"], length_mm, cut_angle)

    pump = PumpSpec(
        center_nm=_get_float(src, "pump_center_nm"),
        fwhm_nm=_get_float(src, "pump_fwhm_nm"),
    )
    # Only the grid keys given reach SourceSpec, whose defaults fill the rest.
    grid = {}
    if "grid" in parser:
        grid = {key: _get_float(parser["grid"], key) for key in parser["grid"]}
    if "n_points" in grid:
        value = grid["n_points"]
        grid["n_points"] = int(value)
        if grid["n_points"] != value:
            raise ConfigError(f"key 'n_points' must be a whole number, got {value:g}")
    if grid_points is not None:
        grid["n_points"] = grid_points
    try:
        flat_phase = src.getboolean("flat_phase", fallback=False)
    except ValueError as exc:
        raise ConfigError(f"key 'flat_phase': {exc}") from exc

    filters = []
    for arm in ("e", "o"):
        section = f"filter.{arm}"
        if section in parser:
            sec = parser[section]
            shape = sec.get("shape", "gaussian")
            # shape = none spells out that the arm has no filter.
            if shape != "none":
                filters.append(FilterSpec(
                    shape=shape, arm=arm,
                    center_nm=_get_float(sec, "center_nm"),
                    fwhm_nm=_get_float(sec, "fwhm_nm"),
                ))
    return SourceSpec(crystal=crystal, pump=pump, flat_phase=flat_phase,
                      filters=tuple(filters), **grid)


def _out_dir(args):
    out = Path(args.out)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"--out {out}: cannot create the output directory: "
                          f"{exc.strerror}") from exc
    return out


def cmd_gvm(args):
    db = CrystalDatabase.from_file(args.crystal_file) if args.crystal_file \
        else builtin_database()
    # The GVM point follows from dispersion alone; length sets only bandwidth.
    crystal = db.crystal(args.crystal, length_mm=1.0)
    solution = gvm_pump_wavelength(crystal, args.daughter_nm)
    out = _out_dir(args)
    write_json(out / "gvm.json", {**asdict(solution), "crystal": args.crystal,
                                  "daughter_wavelength_nm": args.daughter_nm,
                                  "tool_version": __version__})
    print(f"GVM pump wavelength: {solution.pump_wavelength_nm:.3f} nm "
          f"(theta = {solution.phasematching_angle_deg:.3f} deg, "
          f"residual = {solution.residual:.3e})")
    return 0


def cmd_jsa(args):
    config, _ = load_config(args.config, args.grid_points)
    jsa = config.source.build_jsa()
    pearson = jsi_pearson(jsa)
    out = _out_dir(args)
    export_jsi_csv(jsa, out / "jsi.csv")
    export_metadata(out / "jsi_meta.json", config.source, jsa,
                    extra={"pearson_correlation": pearson, **config.metadata()})
    print(f"JSI written to {out / 'jsi.csv'} "
          f"(Pearson correlation {pearson:+.3f})")
    return 0


def cmd_schmidt(args):
    config, _ = load_config(args.config, args.grid_points)
    result = schmidt_decompose(config.source.build_jsa())
    out = _out_dir(args)
    export_schmidt_csv(result, out / "schmidt.csv")
    write_json(out / "schmidt_meta.json", {
        "purity": result.purity,
        "schmidt_number": result.schmidt_number,
        "basis_rank": result.rank,
        "basis_residual": result.residual,
        "basis_tolerance": RESIDUAL_TOL,
        **config.metadata(),
    })
    print(f"Schmidt purity {result.purity:.4f}, "
          f"Schmidt number {result.schmidt_number:.3f}")
    return 0


def cmd_sweep(args):
    config, _ = load_config(args.config, args.grid_points)
    try:
        bandwidths = [float(x) for x in args.bandwidths.split(",")]
    except ValueError as exc:
        raise ConfigError(f"--bandwidths must be a comma-separated list of nm, "
                          f"got {args.bandwidths!r}") from exc
    result = filter_sweep(
        config.source, bandwidths, filter_shape=args.shape,
        symmetric=not args.asymmetric, herald_arm=args.herald_arm,
    )
    out = _out_dir(args)
    result.to_csv(out / "sweep.csv")
    # Each gap is a NaN row of sweep.csv; its reason is kept here.
    write_json(out / "sweep_meta.json",
               {**result.config, "gaps": result.gaps, **config.metadata()})
    print(f"Sweep written to {out / 'sweep.csv'} ({len(bandwidths)} bandwidths, "
          f"{len(result.gaps)} gaps)")
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
    config, filters = load_config(path, args.grid_points)
    for filt in filters:
        if filt.arm != args.herald_arm:
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
    result = fit_gaussian_dip(CountRecord.from_csv(args.counts))
    out = _out_dir(args)
    result.to_json(out / "fit.json")
    print(f"Fit: B = {result.baseline:.1f}, V = {result.visibility:.4f} "
          f"+/- {result.uncertainties[1]:.4f}, FWHM = {result.fwhm_fs:.1f} fs "
          f"(converged: {result.converged})")
    return 0


def cmd_scan(args):
    config, _ = load_config(args.config, args.grid_points)
    budget = None if args.budget == 0 else args.budget
    result = simulate_jsi_scan(
        config.source.build_jsa(), resolution_fwhm_nm=args.resolution_nm,
        step_nm=args.step_nm, pairs_budget=budget, seed=args.seed,
    )
    out = _out_dir(args)
    result.to_csv(out / "scan.csv")
    write_json(out / "scan_meta.json", {
        "resolution_fwhm_nm": args.resolution_nm,
        "step_nm": args.step_nm,
        "pairs_budget": budget,
        "seed": args.seed,
        **config.metadata(),
    })
    print(f"Measured JSI written to {out / 'scan.csv'} "
          f"({result.lambda_nm.size} x {result.lambda_nm.size} points)")
    return 0


# (handler, help, arguments) of each subcommand, from which both parsers are
# built; --grid-points goes where a JSA is built, --seed where counts are drawn.
_REQUIRED, _REQUIRED_FLOAT = dict(required=True), dict(type=float, required=True)
_OUT = ("--out", dict(default=".", help="output directory"))
_GRID = ("--grid-points", dict(type=int, help="override the grid point count per axis"))
_SEED = ("--seed", dict(type=int, default=0, help="random seed"))
_CONFIG = ("--config", _REQUIRED)
_HERALD = ("--herald-arm", dict(default="o", choices=["e", "o"]))
COMMANDS = {
    "gvm": (cmd_gvm, "solve the group-velocity-matched pump wavelength", [
        _OUT, ("--crystal", _REQUIRED), ("--daughter-nm", _REQUIRED_FLOAT),
        ("--crystal-file", {})]),
    "jsa": (cmd_jsa, "compute and export the JSI", [_OUT, _GRID, _CONFIG]),
    "schmidt": (cmd_schmidt, "Schmidt spectrum and purity of a source", [_OUT, _GRID, _CONFIG]),
    "sweep": (cmd_sweep, "purity/efficiency vs filter bandwidth", [
        _OUT, _GRID, _CONFIG,
        ("--bandwidths", dict(required=True, help="comma-separated FWHM list in nm")),
        ("--shape", dict(default="gaussian", choices=FILTER_SHAPES)), _HERALD,
        ("--asymmetric", dict(action="store_true", help="filter only the herald arm"))]),
    "hom": (cmd_hom, "two-source Hong-Ou-Mandel scan", [
        _OUT, _GRID, _SEED, ("--config-a", _REQUIRED), ("--config-b", _REQUIRED), _HERALD,
        ("--delays", dict(default="-2000:2000:201", help="start:stop:count in fs")),
        ("--pairs-per-point", dict(type=float, default=0.0,
                                   help="also emit Poisson counts with this mean pair budget"))]),
    "fit": (cmd_fit, "weighted Gaussian fit of a counts CSV", [_OUT, ("--counts", _REQUIRED)]),
    "scan": (cmd_scan, "simulated monochromator scan of the JSI", [
        _OUT, _GRID, _SEED, _CONFIG,
        ("--resolution-nm", _REQUIRED_FLOAT), ("--step-nm", _REQUIRED_FLOAT),
        ("--budget", dict(type=float, default=0.0,
                          help="total expected pairs; 0 means noiseless"))]),
}


class _CommandParser(argparse.ArgumentParser):
    """One command's parser, which raises a usage error for the full parser."""

    def error(self, message):
        raise argparse.ArgumentError(None, message)


def build_parser(command=None):
    """The full parser, or one command's parser: the full parser's
    subparser of that name, built alone."""
    if command is None:
        parser = argparse.ArgumentParser(
            prog="pairspec", description="Spectrally engineered photon-pair source simulator")
        parser.add_argument("--version", action="version", version=__version__)
        sub = parser.add_subparsers(dest="command", required=True)
        parsers = {name: sub.add_parser(name, help=entry[1]) for name, entry in COMMANDS.items()}
    else:
        parser = _CommandParser(prog=f"pairspec {command}")
        parsers = {command: parser}
    for name, command_parser in parsers.items():
        func, _, arguments = COMMANDS[name]
        for flag, kwargs in arguments:
            command_parser.add_argument(flag, **kwargs)
        command_parser.set_defaults(func=func, command=name)
    return parser


def parse_args(argv):
    """argv parsed by the parser of its first word, as every valid run names
    its command first; help, --version and usage errors go to the full parser."""
    if argv and argv[0] in COMMANDS:
        try:
            return build_parser(argv[0]).parse_args(argv[1:])
        except argparse.ArgumentError:
            pass
    return build_parser().parse_args(argv)


def main(argv=None):
    args = parse_args(sys.argv[1:] if argv is None else argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except PhysicsDomainError as exc:
        print(f"physics error: {exc}", file=sys.stderr)
        return EXIT_PHYSICS
    except (NumericalError, np.linalg.LinAlgError, MemoryError) as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
