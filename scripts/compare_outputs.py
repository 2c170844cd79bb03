#!/usr/bin/env python3
"""Compare the CLI outputs of two git revisions within stated tolerances.

    python scripts/compare_outputs.py BASE [NEW]

Runs a fixed matrix of `python -m pairspec.cli` invocations (MATRIX) at
each revision, NEW defaulting to HEAD. Each revision runs in a temporary
`git worktree`, with its own `src` first on PYTHONPATH and paths given
relative to the worktree, so both write the same file names and paths.
Every numeric cell of every CSV and JSON output is compared under the
first rule of TOLERANCES that matches it; text, booleans and JSON integers
must match exactly. It prints, per file, the largest absolute and relative
move and whether the two files hold the same bytes, then the number of
byte-identical files. It exits 1 if any value moves beyond its tolerance,
any text differs, or a file exists at one revision only. It needs git and
the standard library, and no network.
"""

from __future__ import annotations

import argparse
import fnmatch
import json
import math
import os
import subprocess
import sys
import tempfile
from dataclasses import dataclass, field
from pathlib import Path

# Each case runs at both revisions from the worktree root and writes into
# out/<case>. "fit" cases fit the counts a hom case of the same revision wrote.
# kdp8.cfg is configs/kdp.cfg with an 8 nm pump, for the unequal pair,
# kdp_filtered.cfg is configs/kdp.cfg with 4 nm Gaussian filters at 830 nm on
# both arms (FILTERS), for a filtered source, kdp_rect.cfg the same with 2 nm
# rectangular filters (RECT_FILTERS), whose JSI has exact zeros beside
# e-notation cells in one block, kdp_phase.cfg is configs/kdp.cfg with
# flat_phase = false, for complex heralded states, and bbo_span12.cfg is
# configs/bbo.cfg with span_sigmas = 12, whose JSI has cells below 1e-99, so
# that some of its blocks are written by Python's `%` cell by cell.
FILTERS, RECT_FILTERS = ("".join(f"\n[filter.{arm}]\nshape = {shape}\ncenter_nm = 830\n"
                                 f"fwhm_nm = {fwhm}\n" for arm in ("e", "o"))
                         for shape, fwhm in (("gaussian", 4), ("rectangular", 2)))
MATRIX = {}
for _cfg in ("kdp", "bbo"):
    _path = f"configs/{_cfg}.cfg"
    MATRIX[f"jsa_{_cfg}"] = ["jsa", "--config", _path]
    MATRIX[f"schmidt_{_cfg}"] = ["schmidt", "--config", _path]
    MATRIX[f"sweep_{_cfg}"] = ["sweep", "--config", _path, "--bandwidths", "inf,1,2,4,8,16"]
    MATRIX[f"scan_{_cfg}"] = ["scan", "--config", _path, "--resolution-nm", "0.5",
                              "--step-nm", "0.5", "--budget", "1e6", "--seed", "7"]
    # The noiseless scan writes its expected counts in %.9g, the second-largest float table.
    MATRIX[f"scan_noiseless_{_cfg}"] = ["scan", "--config", _path, "--resolution-nm", "0.2",
                                        "--step-nm", "0.1"]
    for _arm in ("e", "o"):
        MATRIX[f"hom_{_cfg}_{_arm}"] = ["hom", "--config-a", _path, "--config-b", _path,
                                        "--herald-arm", _arm, "--pairs-per-point", "1000",
                                        "--seed", "7"]
        MATRIX[f"fit_{_cfg}_{_arm}"] = ["fit", "--counts", f"out/hom_{_cfg}_{_arm}/hom_counts.csv"]
for _arm in ("e", "o"):
    MATRIX[f"hom_kdp4_kdp8_{_arm}"] = ["hom", "--config-a", "configs/kdp.cfg",
                                       "--config-b", "out/kdp8.cfg", "--herald-arm", _arm,
                                       "--delays=-2500:2500:201"]
    # Equal sources only: their dip centre is 0 by symmetry, while an unequal
    # kept-phase pair's centre is the bounded search's argument, good to 1e-5 fs.
    MATRIX[f"hom_kdp_phase_{_arm}"] = ["hom", "--config-a", "out/kdp_phase.cfg",
                                       "--config-b", "out/kdp_phase.cfg", "--herald-arm", _arm,
                                       "--pairs-per-point", "1000", "--seed", "7"]
    MATRIX[f"fit_kdp_phase_{_arm}"] = ["fit", "--counts",
                                       f"out/hom_kdp_phase_{_arm}/hom_counts.csv"]
MATRIX["jsa_kdp_filtered"] = ["jsa", "--config", "out/kdp_filtered.cfg"]
MATRIX["jsa_kdp_rect"] = ["jsa", "--config", "out/kdp_rect.cfg"]
MATRIX["jsa_bbo_span12"] = ["jsa", "--config", "out/bbo_span12.cfg"]
MATRIX["scan_noiseless_kdp_filtered"] = ["scan", "--config", "out/kdp_filtered.cfg",
                                         "--resolution-nm", "0.2", "--step-nm", "0.1"]
# Counts past 9999 beside smaller ones: both layouts of %d cells in one file.
MATRIX["scan_kdp_large_counts"] = ["scan", "--config", "configs/kdp.cfg", "--resolution-nm", "0.2",
                                   "--step-nm", "0.1", "--budget", "1e9", "--seed", "7"]
MATRIX["gvm_kdp"] = ["gvm", "--crystal", "KDP", "--daughter-nm", "830"]

# (file name, quantity, kind, bound, reason); the first rule whose patterns
# match a value's file name and quantity applies. A quantity is a CSV
# column's header, "cell" in a table without one, a comment line's first
# cell, or a JSON value's key. Kinds: "exact"; "abs", |new - old| <= bound;
# "rel", |new - old| <= bound * max(|old|, |new|); "scale", |new - old| <=
# bound * the largest |old| of that quantity in the file.
TOLERANCES = [
    ("hom_counts.csv", "counts", "exact", 0,
     "seeded Poisson draws: one seed and one rate give one count"),
    ("scan.csv", "cell", "exact", 0,
     "seeded Poisson counts of the scanned JSI"),
    ("schmidt.csv", "k", "exact", 0, "the mode index"),
    ("jsi.csv", "cell", "scale", 1e-15,
     "JSI cells span some 40 decades; a cell far below the peak carries the "
     "norm's rounding at the peak's scale, so it is judged against the largest cell"),
    ("schmidt.csv", "*", "scale", 1e-15,
     "a Schmidt coefficient below ~1e-6 is set by the SVD's rounding at the "
     "scale of c_1, so it is judged against c_1"),
    ("*", "basis_residual", "abs", 1e-15,
     "the basis residual is itself rounding noise (~1e-12): only an absolute "
     "move near eps is meaningful"),
    ("gvm.json", "residual", "abs", 1e-15,
     "the group-index mismatch at the solved point is rounding noise"),
    ("*", "*", "rel", 1e-12,
     "V, FWHM, rates, purity, eta, theta, axes and fit parameters: a change of "
     "summation order moves a result by a few ulp, a change of physics by far more"),
]


@dataclass
class FileReport:
    """The moves between two versions of one output file."""

    values: int = 0
    max_abs: float = 0.0
    max_rel: float = 0.0
    worst: str = ""  # where the largest relative move is
    failures: list = field(default_factory=list)

    @property
    def ok(self):
        return not self.failures


def rule_for(name, quantity):
    """The first TOLERANCES entry that matches a file name and quantity."""
    base = Path(name).name
    for rule in TOLERANCES:
        if fnmatch.fnmatchcase(base, rule[0]) and fnmatch.fnmatchcase(quantity, rule[1]):
            return rule
    raise AssertionError("TOLERANCES ends with a catch-all rule")


def _number(text):
    try:
        return float(text)
    except ValueError:
        return text


def _json_leaves(payload, where, key):
    """(where, quantity, value) of each leaf of a parsed JSON value; the
    quantity is the nearest enclosing object key."""
    if isinstance(payload, dict):
        for k, v in payload.items():
            yield from _json_leaves(v, f"{where}.{k}", k)
    elif isinstance(payload, list):
        for i, v in enumerate(payload):
            yield from _json_leaves(v, f"{where}[{i}]", key)
    else:
        yield where, key, payload


def parse_output(name, text):
    """(where, quantity, value) of every value of one output file. CSV files
    are `# key,v1,...` (or `# {json}`) comment lines, an optional header and
    rows of numbers, as tables.write_csv writes them; numeric cells become floats."""
    if name.endswith(".json"):
        return list(_json_leaves(json.loads(text), "", ""))
    values, header = [], None
    for line_no, line in enumerate(text.splitlines(), 1):
        where = f"line {line_no}"
        if line.startswith("# {"):
            values += _json_leaves(json.loads(line[2:]), f"{where} ", "")
            continue
        if line.startswith("# "):
            key, *cells = line[2:].split(",")
            values += [(f"{where} col {i + 2}", key, _number(c)) for i, c in enumerate(cells)]
            continue
        cells = [_number(c) for c in line.split(",")]
        if header is None and any(isinstance(c, str) for c in cells):
            header = cells
            values.append((where, "header", line))
            continue
        for i, cell in enumerate(cells):
            quantity = header[i] if header and i < len(header) else "cell"
            values.append((f"{where} col {i + 1}", quantity, cell))
    return values


def compare_file(name, old_text, new_text):
    """A FileReport of new_text against old_text, both the contents of the
    output file `name` (its name picks the format and the tolerances)."""
    report = FileReport()
    old, new = parse_output(name, old_text), parse_output(name, new_text)
    if [v[:2] for v in old] != [v[:2] for v in new]:
        first = next((i for i, (a, b) in enumerate(zip(old, new)) if a[:2] != b[:2]),
                     min(len(old), len(new)))
        report.failures.append(f"layout differs at value {first} "
                               f"({len(old)} values before, {len(new)} after)")
        return report
    scale = {}
    for _, quantity, value in old:
        if isinstance(value, float) and math.isfinite(value):
            scale[quantity] = max(scale.get(quantity, 0.0), abs(value))
    for (where, quantity, a), (_, _, b) in zip(old, new):
        report.values += 1
        numeric = isinstance(a, float) and isinstance(b, float)
        if a == b or (numeric and math.isnan(a) and math.isnan(b)):
            continue
        if not (numeric and math.isfinite(a) and math.isfinite(b)):
            report.failures.append(f"{where} ({quantity}): {a!r} -> {b!r}")
            continue
        move, size = abs(b - a), max(abs(a), abs(b))
        report.max_abs = max(report.max_abs, move)
        if move / size > report.max_rel:
            report.max_rel, report.worst = move / size, f"{where} ({quantity})"
        _, _, kind, bound, _ = rule_for(name, quantity)
        allowed = {"exact": 0.0, "abs": bound, "rel": bound * size,
                   "scale": bound * scale.get(quantity, 0.0)}[kind]
        if not move <= allowed:
            report.failures.append(f"{where} ({quantity}): {a!r} -> {b!r}, "
                                   f"moved {move:.3g} > {kind} bound {allowed:.3g}")
    return report


def _git(repo, *args):
    return subprocess.run(["git", "-C", str(repo), *args], check=True,
                          capture_output=True, text=True).stdout.strip()


def run_matrix(repo, rev, work):
    """Run MATRIX at `rev` in a temporary worktree; {case/file: text}."""
    tree = work / rev[:12]
    _git(repo, "worktree", "add", "--detach", str(tree), rev)
    try:
        env = {**os.environ, "PYTHONPATH": str(tree / "src")}
        probe = subprocess.run([sys.executable, "-c", "import pairspec; print(pairspec.__file__)"],
                               cwd=tree, env=env, check=True, capture_output=True, text=True)
        if not Path(probe.stdout.strip()).resolve().is_relative_to(tree.resolve()):
            raise SystemExit(f"{rev[:12]}: pairspec imports from {probe.stdout.strip()}, "
                             f"not from the worktree")
        configs = {name: (tree / "configs" / f"{name}.cfg").read_text() for name in ("kdp", "bbo")}
        for name, line in (("kdp", "pump_fwhm_nm = 4\n"), ("kdp", "flat_phase = true\n"),
                           ("bbo", "span_sigmas = 4\n")):
            if line not in configs[name]:
                raise SystemExit(f"{rev[:12]}: configs/{name}.cfg has no {line.strip()!r} line")
        kdp, bbo = configs["kdp"], configs["bbo"]
        (tree / "out").mkdir()
        (tree / "out" / "kdp8.cfg").write_text(kdp.replace("pump_fwhm_nm = 4\n",
                                                           "pump_fwhm_nm = 8\n"))
        (tree / "out" / "kdp_filtered.cfg").write_text(kdp + FILTERS)
        (tree / "out" / "kdp_rect.cfg").write_text(kdp + RECT_FILTERS)
        (tree / "out" / "kdp_phase.cfg").write_text(kdp.replace("flat_phase = true\n",
                                                                "flat_phase = false\n"))
        (tree / "out" / "bbo_span12.cfg").write_text(bbo.replace("span_sigmas = 4\n",
                                                                 "span_sigmas = 12\n"))
        outputs = {}
        for case, argv in MATRIX.items():
            done = subprocess.run([sys.executable, "-m", "pairspec.cli", *argv,
                                   "--out", f"out/{case}"],
                                  cwd=tree, env=env, capture_output=True, text=True)
            if done.returncode != 0:
                raise SystemExit(f"{rev[:12]}: {case} exited {done.returncode}:\n{done.stderr}")
            for path in sorted((tree / "out" / case).iterdir()):
                outputs[f"{case}/{path.name}"] = path.read_text()
        return outputs
    finally:
        _git(repo, "worktree", "remove", "--force", str(tree))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", help="the revision to compare against, e.g. HEAD^")
    parser.add_argument("new", nargs="?", default="HEAD", help="the revision to check")
    args = parser.parse_args(argv)
    repo = Path(_git(Path(__file__).resolve().parent, "rev-parse", "--show-toplevel"))
    revs = [_git(repo, "rev-parse", "--verify", f"{rev}^{{commit}}")
            for rev in (args.base, args.new)]
    print(f"compare_outputs: {args.base} = {revs[0][:12]} against {args.new} = {revs[1][:12]}")
    with tempfile.TemporaryDirectory(prefix="compare_outputs_") as work:
        old, new = (run_matrix(repo, rev, Path(work)) for rev in revs)
    failed = sorted(set(old) ^ set(new))
    for name in failed:
        print(f"FAIL {name}: written at {'base' if name in old else 'new'} only")
    print(f"{'file':<34} {'values':>7} {'max |move|':>11} {'max rel':>9} "
          f"{'same bytes':>10}  verdict")
    same = 0
    for name in sorted(set(old) & set(new)):
        report = compare_file(name, old[name], new[name])
        same += old[name] == new[name]
        print(f"{name:<34} {report.values:>7} {report.max_abs:>11.3g} {report.max_rel:>9.3g} "
              f"{'yes' if old[name] == new[name] else 'no':>10}  "
              f"{'ok' if report.ok else 'FAIL'}  {report.worst}")
        for failure in report.failures[:5]:
            print(f"    {failure}")
        if not report.ok:
            failed.append(name)
    print(f"compare_outputs: {'FAIL' if failed else 'PASS'} "
          f"({len(set(old) | set(new))} files, {len(failed)} failed, {same} byte-identical)")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
