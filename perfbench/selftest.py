"""Self-test of the benchmark itself (not of pairspec).

    python3 perfbench/selftest.py

1. Runs one pass of each workload, corrupts one output of each kind the
   checks guard (a perturbed purity, a dropped CSV row, a shifted GVM
   wavelength, a fit moved off the truth, a wrong exit code) and asserts
   that each corruption is counted as a failed invocation.
2. Runs two traced passes of each workload from freshly generated inputs
   and asserts that every count metric is identical between them.
3. Asserts that the metric names a run emits are exactly those declared in
   BENCHMARK.json.

Exits 0 and prints "selftest: ok" when all hold; takes about a minute.
"""

from __future__ import annotations

import json
import shutil
import sys

import run  # pins BLAS threads before numpy is imported
import layergrid
import spans
import workloads

SEED = 7


def require(cond, message):
    if not cond:
        raise SystemExit(f"selftest: FAILED: {message}")


def fresh(workload):
    work = run.WORK / "selftest" / workload
    shutil.rmtree(work, ignore_errors=True)
    return workloads.WORKLOADS[workload](SEED, work)


def rewrite(path, edit):
    path.write_text(edit(path.read_text()))


def drop_row(text, row=-1):
    lines = text.splitlines(keepends=True)
    del lines[row]
    return "".join(lines)


def edit_json(key, change):
    def edit(text):
        payload = json.loads(text)
        payload[key] = change(payload[key])
        return json.dumps(payload)
    return edit


# label of the invocation -> (file it wrote, corruption)
CORRUPTIONS = {
    "characterize": {
        "kdp.jsa": ("jsi.csv", lambda t: drop_row(t, 10)),
        "bbo.schmidt": ("schmidt_meta.json", edit_json("purity", lambda p: p * 1.001)),
        "kdp.sweep": ("sweep.csv", drop_row),
        "bbo.scan_budget": ("scan.csv", drop_row),
    },
    "interfere": {
        "kdp_o.hom": ("hom_counts.csv", drop_row),
        "kdp4_kdp8_o.fit": ("fit.json", edit_json("visibility", lambda v: v + 0.05)),
    },
    "solve": {
        "gvm.KDP.800": ("gvm.json", edit_json("pump_wavelength_nm", lambda v: v + 0.01)),
        "fit.22": ("fit.json", edit_json("fwhm_fs", lambda v: v * (1 + 1e-5))),
        "fit.03": ("fit.json", edit_json("center_fs", lambda v: v + 100.0)),
    },
}


def check_corruptions(workload):
    invs = fresh(workload)
    passes = run.run_passes(invs, 0.0, False, 1)
    require(not run.failures(invs, passes), run.failures(invs, passes))
    by_label = {inv.label: inv for inv in invs}
    for label, (name, edit) in CORRUPTIONS[workload].items():
        rewrite(by_label[label].out / name, edit)
    results = passes[0]["results"]
    if workload == "solve":
        # A miss that exits 0 is a failure even though its files are right.
        results[invs.index(by_label["gvm.BBO.800"])]["rc"] = 0
    passes[0]["verdicts"] = run.check_pass(invs, results)
    bad = run.failures(invs, passes)
    expected = len(CORRUPTIONS[workload]) + (workload == "solve")
    require(len(bad) == expected, f"{workload}: {len(bad)} failures, expected {expected}: {bad}")
    print(f"selftest: {workload}: {expected} corrupted outputs counted as failed")


def count_metrics(passes):
    total = spans.empty()
    for res in passes[0]["results"]:
        spans.merge(total, res["trace"])
    return {k: v for k, (v, unit) in spans.layer_metrics(total).items()
            if unit in ("count", "B", "flop")}


def check_counts_repeat(workload):
    first = count_metrics(run.run_passes(fresh(workload), 0.0, True, 1))
    second = count_metrics(run.run_passes(fresh(workload), 0.0, True, 1))
    differ = {k: (first[k], second[k]) for k in first if first[k] != second[k]}
    require(not differ, f"{workload}: count metrics differ between traced runs: {differ}")
    print(f"selftest: {workload}: {len(first)} count metrics identical in two traced runs")


def check_declared_names():
    declared = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    layer = set(spans.layer_metrics(spans.empty())) | {"trace_overhead_frac", "failed_frac"}
    layer |= {f"{c}_ms" for c in run.COMMANDS}
    layer |= {f"{prefix}.{stage}_ms.n{n}" for prefix in ("grid", "grid_1t")
              for stage in layergrid.STAGES for n in layergrid.SIZES}
    require({m["name"] for m in declared["per_layer"]} == layer, "per_layer names differ")
    require({m["name"] for m in declared["end_to_end"]} == {
        "setup_s", "session_s", "peak_rss_mb", "result_err"}, "end_to_end names differ")
    require([w["name"] for w in declared["workloads"]] == list(workloads.WORKLOADS),
            "workload names differ")
    print("selftest: BENCHMARK.json declares exactly the metrics a run emits")


def main():
    run.load_program()
    check_declared_names()
    for workload in workloads.WORKLOADS:
        check_corruptions(workload)
        check_counts_repeat(workload)
    shutil.rmtree(run.WORK / "selftest", ignore_errors=True)
    print("selftest: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
