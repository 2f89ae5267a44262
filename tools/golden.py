"""Golden comparison of the CLI outputs of two ecalab checkouts.

Write the outputs of one checkout, then compare two such directories:

    python tools/golden.py run OUT [--repo PATH]
    python tools/golden.py compare OUT_A OUT_B [--rtol 1e-10]

``run`` executes the CLI of the checkout at PATH (default: the checkout
holding this script) on both example scenarios: ``simulate`` (static and
with ``migration=true``), ``spectrum`` (static and with ``migration=true``),
``estimate`` and ``theory``.  The bistatic example also runs ``estimate``
with ``migration=true``, whose Newton refinement interpolates the reference
per sample, ``theory`` with ``migration=true``, whose Jacobian takes the
waveform's migrating time derivative, and ``estimate`` and ``theory`` with
``batching.count=8`` in sparse and in consecutive mode, which covers the batch
rule.  Each command writes into its own directory under ``OUT/<scenario>/``.
The migrating surfaces use coarser grids than the scenario files, so that a
checkout with a slow migrating grid still finishes in seconds; their
0.75-sample delay steps give four fractional offsets.

``compare`` reads every CSV under OUT_A and its namesake under OUT_B and
prints, per file, the largest relative deviation ``|a - b| / max(|a|, |b|)``
over the numeric cells, with its row and column; a column pair ``<name>_re``,
``<name>_im`` counts as one complex cell.  Text cells must match exactly and
NaN cells must be NaN on both sides.  A file whose deviation
exceeds ``--rtol``, or that is missing or shaped differently, is marked
``FAIL`` and makes the exit status 1.
"""

from __future__ import annotations

import argparse
import csv
import math
import os
import subprocess
import sys

CHECKOUT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MIGRATING_GRID = [
    "migration=true",
    "grids.tau_step_cells=0.75",
    "grids.omega_step_cells=2.0",
    "grids.omega_halfspan_cells=12.0",
]
# (output directory, subcommand, overrides)
COMMANDS = [
    ("simulate", "simulate", []),
    ("simulate_migrating", "simulate", ["migration=true"]),
    ("spectrum", "spectrum", []),
    ("spectrum_migrating", "spectrum", MIGRATING_GRID),
    ("estimate", "estimate", ["estimator.trials=6"]),
    ("theory", "theory", []),
]
BATCHED = [
    (f"{command}_{mode}8", command, ["batching.count=8", f"batching.mode={mode}"] + extra)
    for mode in ("sparse", "consecutive")
    for command, extra in [("estimate", ["estimator.trials=4"]), ("theory", [])]
]
MIGRATING = [
    ("estimate_migrating", "estimate", ["migration=true", "estimator.trials=4"]),
    ("theory_migrating", "theory", ["migration=true"]),
]
# scenario name: (config file, commands)
SCENARIOS = {
    "bistatic": ("scenarios/bistatic_example.yaml", COMMANDS + MIGRATING + BATCHED),
    "multistatic": ("scenarios/multistatic_example.yaml", COMMANDS),
}


def run(out: str, repo: str) -> None:
    env = dict(os.environ, PYTHONPATH=os.path.join(repo, "src"))
    for name, (config, commands) in SCENARIOS.items():
        for folder, command, overrides in commands:
            target = os.path.join(out, name, folder)
            argv = [sys.executable, "-m", "ecalab.cli", command,
                    "--config", os.path.join(repo, config), "--out", target]
            for item in overrides:
                argv += ["--set", item]
            subprocess.run(argv, env=env, check=True, stdout=subprocess.DEVNULL)
            print(f"wrote {os.path.relpath(target, out)}")


def _read(path: str) -> list:
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def _number(cell: str):
    try:
        return float(cell)
    except ValueError:
        return None


def _deviation(a: str, b: str) -> float:
    """Relative deviation of two cells: 0 when equal, inf when incomparable."""
    if a == b:
        return 0.0
    x, y = _number(a), _number(b)
    if x is None or y is None or math.isnan(x) or math.isnan(y):
        return math.inf
    return abs(x - y) / max(abs(x), abs(y))


def _complex_deviation(a: tuple, b: tuple) -> float:
    """Relative deviation of two complex cells given as (re, im) strings."""
    if a == b:
        return 0.0
    x, y = (complex(_number(re), _number(im)) for re, im in (a, b))
    if any(math.isnan(abs(z)) for z in (x, y)):
        return math.inf
    return abs(x - y) / max(abs(x), abs(y))


def compare_file(path_a: str, path_b: str) -> tuple:
    """(largest deviation, row, column name) of two CSV files.  A column pair
    ``<name>_re``, ``<name>_im`` is compared as one complex value."""
    rows_a, rows_b = _read(path_a), _read(path_b)
    header = rows_a[0]
    if len(rows_a) != len(rows_b) or header != rows_b[0]:
        return math.inf, None, "shape or header"
    pairs = {
        header.index(name): header.index(name[:-3] + "_im")
        for name in header
        if name.endswith("_re") and name[:-3] + "_im" in header
    }
    singles = [j for j in range(len(header)) if j not in pairs and j not in pairs.values()]
    worst = (0.0, None, None)
    for i, (row_a, row_b) in enumerate(zip(rows_a[1:], rows_b[1:]), start=1):
        if len(row_a) != len(row_b):
            return math.inf, i, "row length"
        devs = [(_deviation(row_a[j], row_b[j]), header[j]) for j in singles]
        devs += [
            (_complex_deviation((row_a[j], row_a[m]), (row_b[j], row_b[m])), header[j][:-3])
            for j, m in pairs.items()
        ]
        for dev, name in devs:
            if dev > worst[0]:
                worst = (dev, i, name)
    return worst


def compare(dir_a: str, dir_b: str, rtol: float) -> int:
    failed = 0
    files = sorted(
        os.path.relpath(os.path.join(root, f), dir_a)
        for root, _, names in os.walk(dir_a)
        for f in names
        if f.endswith(".csv")
    )
    for rel in files:
        path_b = os.path.join(dir_b, rel)
        if not os.path.exists(path_b):
            print(f"FAIL  {rel}: missing in {dir_b}")
            failed += 1
            continue
        dev, row, col = compare_file(os.path.join(dir_a, rel), path_b)
        bad = dev > rtol
        failed += bad
        where = f" (row {row}, {col})" if dev else ""
        print(f"{'FAIL' if bad else 'ok  '}  {rel}: {dev:.3g}{where}")
    print(f"{len(files) - failed} of {len(files)} files within rtol {rtol:g}")
    return 1 if failed else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="action", required=True)
    p_run = sub.add_parser("run", help="write the CLI outputs of one checkout")
    p_run.add_argument("out")
    p_run.add_argument("--repo", default=CHECKOUT, help="checkout to run (default: this one)")
    p_cmp = sub.add_parser("compare", help="compare two output directories")
    p_cmp.add_argument("dir_a")
    p_cmp.add_argument("dir_b")
    p_cmp.add_argument("--rtol", type=float, default=1e-10)
    args = parser.parse_args(argv)
    if args.action == "run":
        run(args.out, os.path.abspath(args.repo))
        return 0
    return compare(args.dir_a, args.dir_b, args.rtol)


if __name__ == "__main__":
    raise SystemExit(main())
