#!/usr/bin/env bash
# Full replication kit: install, run the three suites CI runs, regenerate
# the paper's figures/tables, and write EXPERIMENTS.md.
#
# Usage: bash scripts/replicate.sh [scale]   (scale: small|medium|full)
set -euo pipefail
SCALE="${1:-medium}"
cd "$(dirname "$0")/.."

echo "== install =="
pip install -e . --no-build-isolation || python setup.py develop

echo "== tier-1: unit / property / integration tests =="
python -m pytest 2>&1 | tee test_output.txt

echo "== benchmark smoke (every workload, declared metric and traced seam) =="
python -m pytest bench -q 2>&1 | tee -a test_output.txt

echo "== paper-shape assertions (one per figure/table, timing disabled) =="
python -m pytest benchmarks --benchmark-disable -q 2>&1 | tee bench_output.txt

echo "== regenerating every figure/table at scale=${SCALE} =="
python scripts/generate_experiments_report.py --scale "${SCALE}" --out EXPERIMENTS.md

echo "done: see EXPERIMENTS.md, test_output.txt, bench_output.txt"
