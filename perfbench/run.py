"""pairspec benchmark: drive the CLI the way a source designer does, and time it.

    python3 perfbench/run.py --workload characterize --seed 1 --seconds 20 --trace 0

One closed-loop client: the next CLI invocation starts as soon as the
previous one ends. Every invocation calls ``pairspec.cli.main(argv)`` in a
child forked from a parent that has imported ``pairspec.cli`` and done
nothing else, so no program state carries over between invocations, as
between real CLI runs. Importing ``pairspec.cli`` in a fresh interpreter is
the set-up cost, measured separately.

A pass runs the workload's whole command list; passes repeat until
``--seconds`` of pass time is spent. After each pass a forked checker
verifies every invocation's exit code and outputs (checks.py). Each
invocation's time is scaled to a reference machine speed by a calibration
kernel of the same kind of work, timed in the child right after it
(calib.py), because the host's speed drifts by up to 1.7x for minutes.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` spends half the
time on untraced passes and half on traced ones (spans.py), then runs the
layer grid (layergrid.py) at the pinned BLAS thread count and at one
thread, and reports the per-layer metrics. The last line of standard output
is one JSON object; the lines before it print every metric with its unit and
the run record, which is also written to .perfbench_work/.
"""

from __future__ import annotations

import os
import sys

# Pin BLAS threads before anything imports numpy.
NPROC = len(os.sched_getaffinity(0))
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(NPROC)

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import calib  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SETUP_SAMPLES = 5
MIN_PASSES = 3
COMMANDS = ("gvm", "jsa", "schmidt", "sweep", "hom", "fit", "scan")
CHILD_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def measure_setup():
    """Seconds to import pairspec.cli in a fresh interpreter, at reference
    speed (the calibration kernel runs right after, in that interpreter)."""
    code = ("import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
            "import pairspec.cli; t = time.perf_counter() - t; sys.path.insert(0, sys.argv[2]); "
            "import calib; print(t * calib.python_speed())")
    proc = subprocess.run([sys.executable, "-c", code, str(SRC), str(HERE)], cwd=ROOT,
                          capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        fail(f"importing pairspec.cli failed:\n{proc.stderr}")
    return float(proc.stdout.split()[-1])


def in_child(work):
    """Run work() in a forked child: (its JSON result or None, exit status)."""
    sys.stdout.flush()
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        os.close(read_fd)
        code = 1
        try:
            result = work()
            with os.fdopen(write_fd, "w") as fh:
                json.dump(result, fh)
            code = 0
        except BaseException:
            traceback.print_exc()
        finally:
            os._exit(code)
    os.close(write_fd)
    with os.fdopen(read_fd) as fh:
        data = fh.read()
    _, status = os.waitpid(pid, 0)
    return (json.loads(data) if status == 0 and data else None), status


def _run_child(inv, traced):
    for name, fd in (("stdout.txt", 1), ("stderr.txt", 2)):
        target = os.open(inv.out / name, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
        os.dup2(target, fd)
        os.close(target)
    tracer = spans.Tracer() if traced else None
    if tracer:
        tracer.install()
    main = sys.modules["pairspec.cli"].main
    start = time.perf_counter()
    try:
        rc = main(inv.argv + ["--out", str(inv.out)])
    except SystemExit as exc:
        rc = exc.code if isinstance(exc.code, int) else 1
    except Exception:
        traceback.print_exc()
        rc = -1
    wall = time.perf_counter() - start
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    sys.stdout.flush()
    sys.stderr.flush()
    # After main() and the memory reading, so the program pays its own
    # first-call costs and the kernel adds nothing to its peak.
    speed = calib.python_speed() if inv.command in PYTHON_BOUND else calib.grid_speed()
    payload = {"rc": rc, "wall_s": wall, "rss_kb": rss_kb, "speed": speed}
    if tracer:
        payload["trace"] = tracer.summary()
        payload["trace"]["bytes_written"] = sum(
            p.stat().st_size for p in inv.out.iterdir()
            if p.name not in ("stdout.txt", "stderr.txt"))
    return payload


def run_invocation(inv, traced):
    """Run one CLI invocation in a forked child; return what it reported."""
    result, status = in_child(lambda: _run_child(inv, traced))
    return result or {"rc": None, "wall_s": None, "rss_kb": 0, "speed": 1.0, "crashed": status}


def check_pass(invs, results):
    """Run checks.py on one pass's outputs in a forked child.

    The checker's imports and parsed outputs stay out of the parent, so
    they cannot inflate the resident memory later invocations inherit.
    """
    def work():
        import checks
        return [checks.check(inv, res["rc"]) for inv, res in zip(invs, results)]

    verdicts, _ = in_child(work)
    if verdicts is None:
        fail("the output checker crashed")
    return verdicts


# Scalar solver loops, scaled by calib.python_speed(); every other command
# is BLAS-bound grid work, scaled by calib.grid_speed().
PYTHON_BOUND = ("gvm", "fit")


def run_passes(invs, budget_s, traced, min_passes, setup=None):
    """Repeat the command list until budget_s of pass time is spent.

    With a ``setup`` list, one fresh-interpreter import is timed after each
    pass, so set-up samples spread over the run like the passes do.
    """
    passes, spent = [], 0.0
    while len(passes) < min_passes or spent < budget_s:
        for inv in invs:
            shutil.rmtree(inv.out, ignore_errors=True)
            inv.out.mkdir(parents=True)
        results = []
        for inv in invs:
            start = time.perf_counter()
            res = run_invocation(inv, traced)
            res["raw_s"] = time.perf_counter() - start
            results.append(res)
        spent += sum(r["raw_s"] for r in results)
        session = sum((r["wall_s"] or r["raw_s"]) * r["speed"] for r in results)
        passes.append({"session_s": session, "results": results,
                       "verdicts": check_pass(invs, results)})
        if setup is not None:
            setup.append(measure_setup())
    return passes


def percentile_summary(samples):
    """Median, and the highest percentile with at least ten samples beyond it."""
    ordered = sorted(samples)
    n = len(ordered)
    out = {"median": statistics.median(ordered), "n": n}
    if n > 10:
        p = math.floor(100 * (n - 10) / n)
        out[f"p{p}"] = ordered[max(math.ceil(p / 100 * n) - 1, 0)]
    return out


def failures(invs, passes):
    bad = []
    for k, p in enumerate(passes):
        for inv, res, (problem, _) in zip(invs, p["results"], p["verdicts"]):
            if res.get("crashed") is not None:
                problem = f"child exited with status {res['crashed']}"
            if problem:
                bad.append(f"pass {k + 1} {inv.label}: {problem}")
    return bad


def command_times(invs, passes):
    times = {c: [] for c in COMMANDS}
    for p in passes:
        for inv, res in zip(invs, p["results"]):
            if res.get("wall_s") is not None:
                times[inv.command].append(res["wall_s"] * res["speed"] * 1e3)
    return times


def blas_record():
    info = {"pinned_threads": NPROC}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["library"] = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        info["library"] = "unknown"
    return info


def git_commit():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    path = ROOT / ".git" / ref[5:]
    if path.is_file():
        return path.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return "unknown"


def run_record(args, extra):
    import scipy
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": NPROC, "blas": blas_record(),
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__, "git_commit": git_commit(),
        "load_model": "one closed-loop client, fork per CLI invocation, no think time",
        **extra,
    }


def layer_grid():
    out = {}
    for threads, prefix in ((NPROC, "grid"), (1, "grid_1t")):
        proc = subprocess.run(
            [sys.executable, str(HERE / "layergrid.py"), "--threads", str(threads),
             "--prefix", prefix], cwd=ROOT, capture_output=True, text=True,
            timeout=CHILD_TIMEOUT_S)
        if proc.returncode != 0:
            fail(f"layer grid failed:\n{proc.stderr}")
        out.update(json.loads(proc.stdout.splitlines()[-1]))
    return out


def end_to_end(passes, setup):
    values = [v for p in passes for _, vals in p["verdicts"] for v in vals]
    result_err = max((abs(v - r) / abs(r) for _, v, r in values), default=0.0)
    rss = max(res["rss_kb"] for p in passes for res in p["results"])
    sessions = [p["session_s"] for p in passes]
    metrics = {
        "setup_s": (statistics.median(setup), "s", len(setup)),
        "session_s": (statistics.median(sessions), "s", len(sessions)),
        "peak_rss_mb": (rss / 1024.0, "MB", sum(len(p["results"]) for p in passes)),
        "result_err": (result_err, "ratio", len(values)),
    }
    return metrics


def per_layer(invs, untraced, traced, workload):
    per_pass = []
    total = spans.empty()
    for p in traced:
        s = spans.empty()
        for res in p["results"]:
            if res.get("trace"):
                spans.merge(s, res["trace"])
        spans.merge(total, s)
        per_pass.append(spans.layer_metrics(s))
    missing = [name for name in workloads.MUST_HIT[workload]
               if total["fn"].get(name, {}).get("calls", 0) == 0]
    if missing:
        fail(f"traced run recorded no calls to: {', '.join(missing)}")
    metrics = {}
    for name, (_, unit) in per_pass[0].items():
        metrics[name] = (statistics.median(m[name][0] for m in per_pass), unit, len(per_pass))
    base = statistics.median(p["session_s"] for p in untraced)
    with_spans = statistics.median(p["session_s"] for p in traced)
    metrics["trace_overhead_frac"] = (with_spans / base - 1.0, "ratio", len(traced))
    for command, samples in command_times(invs, untraced).items():
        metrics[f"{command}_ms"] = (statistics.median(samples) if samples else 0.0, "ms",
                                    len(samples))
    return metrics


def load_program():
    """Import pairspec.cli from this checkout: the warm parent every
    invocation forks from."""
    sys.path.insert(0, str(SRC))
    import pairspec.cli  # noqa: F401
    if not Path(sys.modules["pairspec"].__file__).resolve().is_relative_to(SRC):
        fail(f"imported pairspec from {sys.modules['pairspec'].__file__}, not {SRC}")


def main():
    parser = argparse.ArgumentParser(description="pairspec benchmark")
    parser.add_argument("--workload", required=True, choices=("characterize", "interfere",
                                                              "solve"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "pairspec" / "cli.py").is_file():
        fail(f"no pairspec sources under {SRC}; run from a checkout of the repository")
    setup = [] if args.trace else [measure_setup() for _ in range(SETUP_SAMPLES - MIN_PASSES)]
    load_program()

    work = WORK / args.workload
    shutil.rmtree(work, ignore_errors=True)
    invs = workloads.WORKLOADS[args.workload](args.seed, work)

    if args.trace:
        untraced = run_passes(invs, args.seconds / 2, False, 1)
        traced = run_passes(invs, args.seconds / 2, True, 1)
        passes = untraced + traced
        metrics = per_layer(invs, untraced, traced, args.workload)
        grid = layer_grid()
        metrics.update({name: (ms, "ms", n) for name, (ms, n) in grid.items()})
    else:
        passes = run_passes(invs, args.seconds, False, MIN_PASSES, setup)
        metrics = end_to_end(passes, setup)
    bad = failures(invs, passes)
    attempted = len(invs) * len(passes)
    if args.trace:
        metrics["failed_frac"] = (len(bad) / attempted, "ratio", attempted)

    times = command_times(invs, passes if not args.trace else untraced)
    record = run_record(args, {
        "passes": len(passes), "invocations_per_pass": len(invs),
        "setup_samples_s": setup,
        "session_samples_s": [p["session_s"] for p in passes],
        "raw_session_samples_s": [sum(r["raw_s"] for r in p["results"]) for p in passes],
        "speed_samples": [[r["speed"] for r in p["results"]] for p in passes],
        "command_ms": {c: percentile_summary(t) for c, t in times.items() if t},
        "sample_counts": {name: n for name, (_, _, n) in metrics.items()},
        "failures": bad,
    })
    WORK.mkdir(exist_ok=True)
    record_path = WORK / f"record_{args.workload}_seed{args.seed}_trace{args.trace}.json"
    record_path.write_text(json.dumps({**record, "metrics": {
        k: {"value": v, "unit": u} for k, (v, u, _) in metrics.items()}}, indent=1) + "\n")

    for key in ("nproc", "blas", "python", "numpy", "scipy", "git_commit", "workload",
                "seed", "passes", "invocations_per_pass"):
        print(f"# {key}: {record[key]}")
    for command, summary in record["command_ms"].items():
        detail = ", ".join(f"{k} {v:.2f}" if k != "n" else f"n {v}" for k, v in summary.items())
        print(f"# {command}_ms per invocation: {detail}")
    for name, (value, unit, n) in metrics.items():
        print(f"{name:42s} {value:>16.6g} {unit:6s} n={n}")
    for line in bad:
        print(f"FAILED {line}")
    print(f"# run record: {record_path.relative_to(ROOT)}")
    print(json.dumps({"correct": not bad, "attempted": attempted, "failed": len(bad),
                      "metrics": {k: {"value": v, "unit": u}
                                  for k, (v, u, _) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
