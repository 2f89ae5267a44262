"""Command-line interface.

Subcommands: simulate, spectrum, estimate, theory, sweep, track, validate.
Every artifact is a CSV (plus optional SVG) whose bytes are a deterministic
function of the configuration and the seed.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from . import analysis, eca, montecarlo, output, scene
from .config import ConfigError, _as_float, _as_int, _get, estimator_options, parse_config
from .geometry import TargetParams
from .scene import REF_GUARD

RECORD_COLUMNS = ["n", "ref_re", "ref_im", "surv_re", "surv_im"]


def _add_common(parser, needs_config=True):
    if needs_config:
        parser.add_argument("--config", required=True, help="scenario file (YAML)")
    parser.add_argument("--out", default=".", help="output directory")
    parser.add_argument("--seed", type=int, default=None, help="override the base seed")
    parser.add_argument(
        "--set",
        dest="overrides",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="override a config key (repeatable)",
    )
    parser.add_argument("--svg", action="store_true", help="also emit SVG plots")
    parser.add_argument(
        "--verbose", action="store_true", help="print scene diagnostics while running"
    )


def _load(args):
    seed = [] if args.seed is None else [f"seed={int(args.seed)}"]
    scenario, cfg = parse_config(args.config, args.overrides + seed)
    os.makedirs(args.out, exist_ok=True)
    if args.verbose:
        for k, row in enumerate(scene.snr_report(scenario)):
            cells = "  ".join(f"{key}={val:+.1f}" for key, val in row.items())
            print(f"node {k}: {cells}")
        margins = analysis.efficiency_margin(scenario)
        print("efficiency margin (dB):", np.round(margins, 2))
    return scenario, cfg


def _node_param_units(mode: str) -> list:
    if mode == "delay_doppler":
        return [("tau", "s2"), ("omega", "rad2_s2")]
    return [("x", "m2"), ("y", "m2"), ("vx", "m2_s2"), ("vy", "m2_s2")]


def cmd_simulate(args) -> int:
    scenario, _ = _load(args)
    wf, records = scene.simulate(scenario, trial=0, base_seed=scenario.seed)
    if args.export_waveform:
        output.emit_csv(
            ["index", "re", "im"],
            (
                (i, wf.time_series[i].real, wf.time_series[i].imag)
                for i in range(wf.master_length)
            ),
            os.path.join(args.out, "waveform.csv"),
        )
    for k, rec in enumerate(records):
        rows = []
        start = -scenario.max_delay_samples
        for i, n in enumerate(range(start, scenario.n_samples + REF_GUARD)):
            if 0 <= n < scenario.n_samples:
                s_re, s_im = rec.surveillance[n].real, rec.surveillance[n].imag
            else:
                s_re = s_im = np.nan
            rows.append((n, rec.reference[i].real, rec.reference[i].imag, s_re, s_im))
        output.emit_csv(
            RECORD_COLUMNS,
            rows,
            os.path.join(args.out, f"node_{k}.csv"),
        )
    truth_rows = [
        (k, rec.truth[0], rec.truth[1], rec.truth[2].real, rec.truth[2].imag)
        for k, rec in enumerate(records)
    ]
    output.emit_csv(
        ["node", "delay_s", "doppler_rad_s", "target_re", "target_im"],
        truth_rows,
        os.path.join(args.out, "truth.csv"),
    )
    print(f"wrote {len(records)} node record(s) to {args.out}")
    return 0


def read_node_record(path, scenario: scene.Scenario, node_index: int) -> scene.NodeRecord:
    """Reconstruct a NodeRecord from a simulate CSV.

    Raises :class:`ConfigError`, naming the file and the line, unless the
    file has the record header, one row per reference sample
    (``-max_delay_samples .. n_samples-1+REF_GUARD`` in the ``n`` column),
    finite reference values and finite surveillance values in the window.
    """
    M, N = scenario.max_delay_samples, scenario.n_samples
    n = np.arange(-M, N + REF_GUARD)
    with open(path) as fh:
        header = fh.readline().rstrip("\n").split(",")
        if header != RECORD_COLUMNS:
            raise ConfigError(f"{path}: unexpected record columns {header}")
        try:
            data = np.loadtxt(fh, delimiter=",", ndmin=2)
        except ValueError as err:
            raise ConfigError(f"{path}: {err}") from None
    if data.shape != (n.size, len(RECORD_COLUMNS)):
        raise ConfigError(f"{path}: expected {n.size} rows of 5 values, found {data.shape}")
    window = (n >= 0) & (n < N)
    for fault, bad in [
        ("sample index out of sequence", data[:, 0] != n),
        ("reference value is not finite", ~np.isfinite(data[:, 1:3]).all(axis=1)),
        ("surveillance value is not finite", window & ~np.isfinite(data[:, 3:5]).all(axis=1)),
    ]:
        if bad.any():
            i = int(np.flatnonzero(bad)[0])
            raise ConfigError(f"{path}: line {i + 2} (n = {n[i]}): {fault}")
    tau, omega = scene.node_truth(scenario, node_index)
    return scene.NodeRecord(
        reference=np.ascontiguousarray(data[:, 1:3]).view(complex).ravel(),
        surveillance=np.ascontiguousarray(data[window, 3:5]).view(complex).ravel(),
        n_indices=np.arange(N),
        sample_interval=scenario.sample_interval,
        max_delay_samples=M,
        truth=(tau, omega, scenario.amplitudes[node_index].target),
        node_index=node_index,
    )


def _grids(scenario, cfg, record):
    tau_step = _as_float(_get(cfg, "grids.tau_step_cells", default=0.25), "grids.tau_step_cells")
    omega_step = _as_float(
        _get(cfg, "grids.omega_step_cells", default=0.25), "grids.omega_step_cells"
    )
    halfspan = _as_float(
        _get(cfg, "grids.omega_halfspan_cells", default=16.0), "grids.omega_halfspan_cells"
    )
    return (
        eca.default_tau_grid(record, tau_step),
        eca.default_omega_grid(record, halfspan, omega_step),
    )


def cmd_spectrum(args) -> int:
    scenario, cfg = _load(args)
    if args.records:
        records = [
            read_node_record(
                os.path.join(args.records, f"node_{k}.csv"), scenario, k
            )
            for k in range(scenario.n_nodes)
        ]
    else:
        _, records = scene.simulate(scenario, trial=0, base_seed=scenario.seed)
    for k, rec in enumerate(records):
        basis = eca.interference_basis(rec, scenario.clutter_taps)
        tau_grid, omega_grid = _grids(scenario, cfg, rec)
        surface = eca.spectrum_grid(
            rec,
            basis,
            tau_grid,
            omega_grid,
            scenario.migration,
            scenario.nodes[k].carrier_angular_frequency,
        )
        cells = [*np.meshgrid(tau_grid, omega_grid, indexing="ij"), surface.values]
        table = np.column_stack([c.ravel() for c in cells])
        path = os.path.join(args.out, f"surface_node{k}.csv")
        output.emit_csv(["tau_s", "omega_rad_s", "value"], table, path)
        if args.svg:
            output.emit_svg_heatmap(
                tau_grid,
                omega_grid,
                surface.values,
                os.path.join(args.out, f"surface_node{k}.svg"),
            )
    print(f"wrote {scenario.n_nodes} surface(s) to {args.out}")
    return 0


def cmd_estimate(args) -> int:
    scenario, cfg = _load(args)
    trials = _as_int(_get(cfg, "estimator.trials", default=1), "estimator.trials")
    init_mode = str(_get(cfg, "estimator.init", default="oracle_truth"))
    mode = _get(cfg, "estimator.mode")
    reports = montecarlo.run_trials(
        scenario,
        trials,
        init_mode=init_mode,
        base_seed=scenario.seed,
        mode=mode,
        **estimator_options(cfg),
    )
    rows = []
    for t, rep in enumerate(reports):
        pair = rep.per_node[0]
        theta = rep.theta.as_vector() if rep.theta is not None else [np.nan] * 4
        rows.append(
            (t, pair[0], pair[1], theta[0], theta[1], theta[2], theta[3],
             rep.objective, int(rep.converged), rep.iterations)
        )
    output.emit_csv(
        ["trial", "tau_hat_s", "omega_hat_rad_s", "x_m", "y_m", "vx_m_s", "vy_m_s",
         "objective", "converged", "iterations"],
        rows,
        os.path.join(args.out, "estimates.csv"),
    )
    converged = sum(rep.converged for rep in reports)
    print(f"{converged} of {len(reports)} trials converged")
    print(f"wrote {len(rows)} estimate(s) to {args.out}")
    return 0


def cmd_theory(args) -> int:
    scenario, cfg = _load(args)
    mode = _get(cfg, "estimator.mode") or analysis.default_mode(scenario)
    report = analysis.asymptotic_covariance(scenario, mode=mode)
    names = report.param_names
    rows = []
    for label, mat in [
        ("h", report.h),
        ("crb", report.crb),
        ("q", report.q),
        ("asymptotic_cov", report.asymptotic_cov),
    ]:
        for i in range(mat.shape[0]):
            for j in range(mat.shape[1]):
                rows.append((label, names[i], names[j], mat[i, j]))
    for k, margin in enumerate(report.efficiency_margin_db):
        rows.append(("efficiency_margin_db", f"node{k}", "", margin))
    output.emit_csv(
        ["quantity", "row", "col", "value"], rows, os.path.join(args.out, "theory.csv")
    )
    print(f"mode: {report.mode}   batched: {report.batched}")
    for label, mat in [("CRB diagonal", np.diag(report.crb)),
                       ("asymptotic diagonal", np.diag(report.asymptotic_cov))]:
        cells = "  ".join(f"{n}={v:.6e}" for n, v in zip(names, mat))
        print(f"{label}: {cells}")
    margins = "  ".join(f"node{k}={v:+.2f} dB" for k, v in enumerate(report.efficiency_margin_db))
    print(f"efficiency margin: {margins}")
    return 0


def cmd_sweep(args) -> int:
    scenario, cfg = _load(args)
    axis = _get(cfg, "sweep.axis")
    if axis is None:
        raise ConfigError("sweep needs a 'sweep.axis' entry")
    values = _get(cfg, "sweep.values", required=True)
    trials = _as_int(_get(cfg, "sweep.trials", default=100), "sweep.trials")
    mode = _get(cfg, "estimator.mode") or analysis.default_mode(scenario)
    spec = montecarlo.SweepSpec(
        scenario=scenario,
        axis=str(axis),
        values=tuple(values),
        trials=trials,
        init_mode=str(_get(cfg, "estimator.init", default="oracle_truth")),
        mode=mode,
        base_seed=scenario.seed,
        estimator_options=estimator_options(cfg),
    )
    rows = montecarlo.sweep(spec)
    units = _node_param_units(mode)
    header = [f"{axis}"] + ["trials_used", "divergences", "mse_rel_stderr"]
    for name, unit in units:
        header += [
            f"mse_{name}_{unit}",
            f"mse_db_{name}",
            f"rmse_{name}",
            f"crb_{name}_{unit}",
            f"asymptotic_{name}_{unit}",
        ]
    table = []
    for row in rows:
        # sampling standard error of each MSE estimate, relative
        stderr = np.sqrt(2.0 / row.trials_used)
        cells = [row.axis_value, row.trials_used, row.divergences, stderr]
        for i in range(len(units)):
            mse = row.mse[i]
            cells += [
                mse,
                10 * np.log10(mse) if mse > 0 else -np.inf,
                row.rmse[i],
                row.crb_diag[i],
                row.asymptotic_diag[i],
            ]
        table.append(tuple(cells))
    output.emit_csv(header, table, os.path.join(args.out, "sweep.csv"))
    if args.svg:
        xs = [row.axis_value for row in rows]
        series = []
        for i, (name, _) in enumerate(units):
            series.append(
                {"label": f"mse {name}", "x": xs, "y": [row.mse[i] for row in rows],
                 "style": "points"}
            )
            series.append(
                {"label": f"crb {name}", "x": xs, "y": [row.crb_diag[i] for row in rows]}
            )
            series.append(
                {"label": f"theory {name}", "x": xs,
                 "y": [row.asymptotic_diag[i] for row in rows]}
            )
        output.emit_svg_curves(
            series,
            os.path.join(args.out, "sweep.svg"),
            x_label=str(axis),
            y_label="MSE",
            log_y=True,
            title="empirical vs predicted MSE",
        )
    print(f"wrote {len(rows)} sweep row(s) to {args.out}")
    return 0


def cmd_track(args) -> int:
    scenario, cfg = _load(args)
    intervals_cfg = _get(cfg, "track.intervals", required=True)
    trials = _as_int(
        _get(cfg, "track.trials_per_interval", default=5), "track.trials_per_interval"
    )
    targets = []
    for i, entry in enumerate(intervals_cfg):
        extra = set(entry) - {"x", "y", "vx", "vy"}
        if extra:
            raise ConfigError(f"'track.intervals[{i}]': unknown keys {sorted(extra)}")
        targets.append(
            TargetParams(
                _as_float(entry.get("x"), f"track.intervals[{i}].x"),
                _as_float(entry.get("y"), f"track.intervals[{i}].y"),
                _as_float(entry.get("vx", 0.0), f"track.intervals[{i}].vx"),
                _as_float(entry.get("vy", 0.0), f"track.intervals[{i}].vy"),
            )
        )
    results = montecarlo.track(
        scenario, targets, trials, base_seed=scenario.seed, **estimator_options(cfg)
    )
    rows = []
    for res in results:
        for t in range(res.estimates.shape[0]):
            x, y, vx, vy = res.estimates[t]
            rows.append((res.index, t, x, y, vx, vy, int(res.converged[t])))
    output.emit_csv(
        ["interval", "trial", "x_m", "y_m", "vx_m_s", "vy_m_s", "converged"],
        rows,
        os.path.join(args.out, "track.csv"),
    )
    ell_rows = []
    for res in results:
        for block, ell in [("position", res.position_ellipse), ("velocity", res.velocity_ellipse)]:
            center = res.truth[:2] if block == "position" else res.truth[2:]
            ell_rows.append(
                (
                    res.index,
                    block,
                    center[0],
                    center[1],
                    ell.semi_axes[0],
                    ell.semi_axes[1],
                    ell.orientation,
                )
            )
    output.emit_csv(
        ["interval", "block", "center_a", "center_b", "semi_major", "semi_minor",
         "orientation_rad"],
        ell_rows,
        os.path.join(args.out, "ellipses.csv"),
    )
    print(f"wrote {len(results)} interval(s) to {args.out}")
    return 0


def cmd_validate(args) -> int:
    from . import validate

    ok = validate.run_all(stream=sys.stdout)
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="ecalab",
        description="Passive-radar estimation laboratory",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    specs = [
        ("simulate", cmd_simulate, "synthesize node records as CSV", True),
        ("spectrum", cmd_spectrum, "sampled ambiguity surfaces", True),
        ("estimate", cmd_estimate, "run the estimator over noise trials", True),
        ("theory", cmd_theory, "closed-form performance prediction", True),
        ("sweep", cmd_sweep, "Monte Carlo sweep vs theory", True),
        ("track", cmd_track, "per-interval estimation with ellipses", True),
        ("validate", cmd_validate, "run the built-in invariant suite", False),
    ]
    for name, handler, help_text, needs_config in specs:
        p = sub.add_parser(name, help=help_text)
        _add_common(p, needs_config)
        if name == "spectrum":
            p.add_argument(
                "--records",
                default=None,
                help="directory of simulate output to analyze (default: synthesize)",
            )
        if name == "simulate":
            p.add_argument(
                "--export-waveform",
                action="store_true",
                help="also write the master waveform time series as CSV",
            )
        p.set_defaults(handler=handler)

    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except ConfigError as err:
        print(f"configuration error: {err}", file=sys.stderr)
        return 2
    except FileNotFoundError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
