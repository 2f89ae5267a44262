"""Run one benchmark workload and print its metrics as one JSON line.

    python3 bench/run.py --workload bistatic --seed 1 --seconds 20 --trace 0

Run from the root of a checkout: the program is imported from ``src/``.
With ``--trace 0`` the last line holds the end-to-end metrics; with
``--trace 1`` the public functions are wrapped (``tracing``) and the last
line holds the per-layer metrics, while the spans go to ``bench/out/``.
See README.md in this directory.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
import time


def since_process_start() -> float:
    """Seconds since this process was created (Linux: /proc/self/stat)."""
    with open("/proc/self/stat") as fh:
        fields = fh.read().rsplit(")", 1)[1].split()
    ticks = int(fields[19])  # field 22, starttime, counted after "pid (comm)"
    return time.clock_gettime(time.CLOCK_BOOTTIME) - ticks / os.sysconf("SC_CLK_TCK")


ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("bistatic", "multistatic", "batched", "surface")

END_TO_END = [
    # name, unit, better, bound (share of the parent's median)
    ("setup_s", "s", "lower", 0.25),
    ("estimate_ms", "ms", "lower", 0.2),
    ("trials_per_s", "1/s", "higher", 0.2),
    ("theory_ms", "ms", "lower", 0.2),
    ("static_cell_us", "us", "lower", 0.2),
    ("migrating_cell_us", "us", "lower", 0.2),
    ("peak_rss_mb", "MB", "lower", 0.1),
]


def _incl(name, scale):
    return lambda s: s.inclusive_per_call(name) * scale


def _self(name, scale):
    return lambda s: s.self_per_call(name) * scale


def _per_estimate(name):
    return lambda s: s.calls_per_scope(name, "estimator.localize")


def _refine(key):
    return lambda s: s.tracer.extra[key] / max(s.count("estimator.refine"), 1)


def _rows_per_s(s):
    seconds = s.inclusive[s.ids["output.emit_csv"]]
    return s.tracer.extra["csv_rows"] / seconds if seconds else 0.0


PER_LAYER = [
    # name, unit, better, value from the span summary.  Times are inclusive
    # per call, except where ``_self`` marks self time per call (time not
    # spent in a traced callee): noise synthesis, the four steering-kernel
    # functions and the trial loop.
    ("config.parse_config.ms", "ms", "lower", _incl("config.parse_config", 1e3)),
    ("scene.scenario_waveform.ms", "ms", "lower", _incl("scene.scenario_waveform", 1e3)),
    ("scene.clean_node_signals.ms", "ms", "lower", _incl("scene.clean_node_signals", 1e3)),
    ("scene.synthesize_node.us", "us", "lower", _self("scene.synthesize_node", 1e6)),
    ("eca.rc_steering.us", "us", "lower", _self("eca.rc_steering", 1e6)),
    ("eca.interpolate_reference.us", "us", "lower", _self("eca.interpolate_reference", 1e6)),
    ("eca.project_out.us", "us", "lower", _self("eca.project_out", 1e6)),
    ("eca.spectrum_value.us", "us", "lower", _self("eca.spectrum_value", 1e6)),
    ("eca.rc_steering.calls_per_estimate", "count", "lower", _per_estimate("eca.rc_steering")),
    ("eca.frame_spectrum.us", "us", "lower", _incl("eca.frame_spectrum", 1e6)),
    ("eca.interference_basis.us", "us", "lower", _incl("eca.interference_basis", 1e6)),
    ("eca.interference_basis.calls_per_estimate", "count", "lower",
     _per_estimate("eca.interference_basis")),
    ("eca.batch_split.us", "us", "lower", _incl("eca.batch_split", 1e6)),
    ("eca.spectrum_grid.static_cell_us", "us", "lower", lambda s: s.grid_cell_time(False) * 1e6),
    ("eca.spectrum_grid.migrating_cell_us", "us", "lower", lambda s: s.grid_cell_time(True) * 1e6),
    ("estimator.localize.ms", "ms", "lower", _incl("estimator.localize", 1e3)),
    ("estimator.prepare_node_data.ms", "ms", "lower", _incl("estimator.prepare_node_data", 1e3)),
    ("estimator.refine.evaluations_per_estimate", "count", "lower", _refine("evaluations")),
    ("estimator.refine.iterations_per_estimate", "count", "lower", _refine("iterations")),
    ("estimator.node_objective.us", "us", "lower", _incl("estimator.node_objective", 1e6)),
    ("estimator.node_objective.calls_per_estimate", "count", "lower",
     _per_estimate("estimator.node_objective")),
    ("estimator.node_objective.useful_ratio", "ratio", "higher",
     lambda s: s.useful_ratio("estimator.node_objective")),
    ("estimator.global_objective.us", "us", "lower", _incl("estimator.global_objective", 1e6)),
    ("geometry.theta_to_delay_doppler.us", "us", "lower",
     _incl("geometry.theta_to_delay_doppler", 1e6)),
    ("geometry.theta_to_delay_doppler.calls_per_estimate", "count", "lower",
     _per_estimate("geometry.theta_to_delay_doppler")),
    ("analysis.asymptotic_covariance.ms", "ms", "lower",
     _incl("analysis.asymptotic_covariance", 1e3)),
    ("analysis.hessian_and_crb.ms", "ms", "lower", _incl("analysis.hessian_and_crb", 1e3)),
    ("analysis.excess_q.ms", "ms", "lower", _incl("analysis.excess_q", 1e3)),
    ("waveform.steering.calls_per_theory", "count", "lower",
     lambda s: s.calls_per_scope("waveform.steering", "analysis.asymptotic_covariance")),
    ("montecarlo.run_trials.self_s", "s", "lower", _self("montecarlo.run_trials", 1.0)),
    ("montecarlo.aggregate.ms", "ms", "lower", _incl("montecarlo.aggregate", 1e3)),
    ("output.emit_csv.ms", "ms", "lower", _incl("output.emit_csv", 1e3)),
    ("output.emit_csv.rows_per_s", "1/s", "higher", _rows_per_s),
    ("cli.main.s", "s", "lower", _incl("cli.main", 1.0)),
]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(src, "ecalab")):
        sys.exit(f"no ecalab sources under {src}")
    sys.path.insert(0, src)
    import tracing
    import workloads

    out_dir = os.path.join(ROOT, "bench", "out", args.workload)
    tracer = tracing.Tracer() if args.trace else None
    untraced = tracer.paused if tracer else contextlib.nullcontext
    run = workloads.Run(args.workload, args.seed, ROOT, out_dir, untraced)
    setup_s = since_process_start()

    deadline = time.perf_counter() + args.seconds
    rounds = 0
    while rounds == 0 or time.perf_counter() < deadline:
        run.round(rounds)
        rounds += 1
    if tracer is not None:
        tracer.active = False
    end_to_end = run.metrics(setup_s)
    run.finish()

    if tracer is None:
        metrics = {name: end_to_end[name] for name, *_ in END_TO_END}
    else:
        summary = tracing.SpanSummary(tracer)
        metrics = {name: (float(fn(summary)), unit) for name, unit, _, fn in PER_LAYER}
        tracer.dump(os.path.join(ROOT, "bench", "out", f"spans-{args.workload}-{args.seed}.npz"))
        tracer.close()
        print("traced end-to-end: " + json.dumps({k: v[0] for k, v in end_to_end.items()}),
              file=sys.stderr)
    for failure in run.failures:
        print(f"CHECK FAILED {failure}", file=sys.stderr)
    print(f"{args.workload}: {rounds} rounds, {run.attempted} operations", file=sys.stderr)
    result = {
        "correct": not run.failures,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
