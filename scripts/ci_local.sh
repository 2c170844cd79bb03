#!/usr/bin/env bash
# Offline mirror of the CI workflow (.github/workflows/tests.yml): runs every
# step that needs no network, from the root of a checkout, and prints each
# step's verdict and wall time.
#
#     bash scripts/ci_local.sh
#
# Steps: tier-1 tests; the clean-checkout check (git status before and after
# the tests); the nine acceptance verdicts; scripts/compare_outputs.py
# against HEAD^; the README quick start through `python -m pairspec.cli`;
# the package contents, built by `build_py --build-lib` into a temporary
# directory (as `pip install .` would ship them) and run from outside the
# checkout; the three traced perfbench smoke runs and perfbench/selftest.py.
# The CI's installs are left out, since they need the network; the current
# interpreter's numpy and scipy are used. Every step runs even after one
# fails; the script exits 1 if any failed.
set -uo pipefail

ROOT=$(git -C "$(dirname "$0")" rev-parse --show-toplevel) || exit 2
cd "$ROOT" || exit 2
TMP=$(mktemp -d "${TMPDIR:-/tmp}/ci_local.XXXXXX") || exit 2
trap 'rm -rf "$TMP"' EXIT
FAILED=()

step() {
    local name=$1 start=$SECONDS
    shift
    echo "=== $name"
    if "$@"; then
        echo "=== $name: PASS ($((SECONDS - start)) s)"
    else
        echo "=== $name: FAIL ($((SECONDS - start)) s)"
        FAILED+=("$name")
    fi
}

tier1() {
    git status --porcelain > "$TMP/status_before.txt"
    PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH} python -m pytest -q --continue-on-collection-errors
}

clean_checkout() {
    # A test that writes into the repository (a CLI run without --out
    # writes to ".") shows here; ignored build and cache files do not count.
    git status --porcelain > "$TMP/status_after.txt"
    diff "$TMP/status_before.txt" "$TMP/status_after.txt"
}

acceptance() {
    PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH} python -m pytest tests/test_acceptance.py -q -s \
        > "$TMP/acceptance.txt"
    local status=$?
    grep -o 'ACCEPTANCE [0-9]*: .*' "$TMP/acceptance.txt" | tee "$TMP/verdicts.txt"
    local passed
    passed=$(grep -c '^ACCEPTANCE [1-9]: PASS' "$TMP/verdicts.txt")
    echo "$passed of 9 acceptance verdicts PASS"
    test "$status" -eq 0 && test "$passed" -eq 9
}

compare_outputs() {
    python scripts/compare_outputs.py HEAD^
}

quick_start() {
    # The sh block under "## Quick start" in README.md, with `pairspec` run
    # as `python -m pairspec.cli` from this checkout's src, in a directory
    # holding a copy of configs/ so the checkout stays as it is.
    awk '/^## /{q = ($0 == "## Quick start")} q && /^```sh$/{b = 1; next} b && /^```$/{exit} b' \
        README.md > "$TMP/quickstart_block.sh"
    test -s "$TMP/quickstart_block.sh" || return 1
    { echo 'pairspec() { python -m pairspec.cli "$@"; }'; cat "$TMP/quickstart_block.sh"; } \
        > "$TMP/quickstart.sh"
    mkdir "$TMP/quickstart" && cp -r configs "$TMP/quickstart/"
    (cd "$TMP/quickstart" && PYTHONPATH="$ROOT/src" bash -euo pipefail "$TMP/quickstart.sh")
}

installed_package() {
    # The package as setuptools builds it from pyproject.toml; the built-in
    # crystal table must ship in it and parse. The hom run pairs two unequal
    # sources (4 and 8 nm pumps), so it streams the second heralded state
    # into the overlap.
    python -c "from setuptools import setup; setup()" --quiet \
        egg_info --egg-base "$TMP" build_py --build-lib "$TMP/lib" || return 1
    mkdir "$TMP/user"
    cp configs/kdp.cfg "$TMP/user/kdp.cfg"
    sed 's/^pump_fwhm_nm = 4$/pump_fwhm_nm = 8/' configs/kdp.cfg > "$TMP/user/kdp8.cfg"
    grep -qx 'pump_fwhm_nm = 8' "$TMP/user/kdp8.cfg" || return 1
    (
        set -e
        cd "$TMP/user"
        export PYTHONPATH="$TMP/lib"
        python -c 'import pairspec, sys; sys.exit(not pairspec.__file__.startswith(sys.argv[1]))' \
            "$TMP/lib/"
        python -m pairspec.cli --help
        python -m pairspec.cli --version
        python -m pairspec.cli fit --help
        python -m pairspec.cli gvm --crystal KDP --daughter-nm 830 --out out
        python -m pairspec.cli schmidt --config kdp.cfg --out out
        python -m pairspec.cli hom --config-a kdp.cfg --config-b kdp8.cfg --grid-points 256 --out out
    )
}

perfbench_smoke() {
    # One short traced run per workload. run.py exits 2 when a traced pass
    # misses a function the workload must reach; a failed output check
    # shows as "correct": false on the last line.
    local workload
    for workload in characterize interfere solve; do
        python3 perfbench/run.py --workload "$workload" --seed 1 --seconds 1 --trace 1 \
            > "$TMP/run_$workload.txt" || { cat "$TMP/run_$workload.txt"; return 1; }
        tail -n 1 "$TMP/run_$workload.txt" | python3 -c \
            "import json, sys; r = json.load(sys.stdin); print('$workload', 'correct:', r['correct'], 'failed:', r['failed']); sys.exit(0 if r['correct'] else 1)" \
            || return 1
    done
}

perfbench_selftest() {
    python3 perfbench/selftest.py
}

START=$SECONDS
step "tier-1 tests" tier1
step "tests leave the checkout clean" clean_checkout
step "acceptance verdicts" acceptance
step "outputs match HEAD^ within tolerances" compare_outputs
step "README quick start" quick_start
step "installed package" installed_package
step "perfbench traced smoke runs" perfbench_smoke
step "perfbench self-test" perfbench_selftest
echo "ci_local: $((SECONDS - START)) s wall on $(nproc) CPUs"
if [ ${#FAILED[@]} -gt 0 ]; then
    printf 'ci_local: FAIL: %s\n' "${FAILED[@]}"
    exit 1
fi
echo "ci_local: PASS"
