"""The benchmark's four workloads and the end-to-end metrics they measure.

Every workload is a closed loop in one process: one caller waits for each
result before it starts the next.  A run repeats whole rounds of the same
operations until its time is up; one round of a workload is

* ``estimates`` calls of ``estimator.localize`` on records synthesized
  outside the timing (``estimate_ms``),
* one ``montecarlo.run_trials`` call over ``trials`` noise draws plus the
  ``montecarlo.aggregate`` of its reports (``trials_per_s``, the median
  over calls),
* one ``analysis.asymptotic_covariance`` call (``theory_ms``),
* one static and one migrating ``ecalab spectrum`` command, run in-process
  through ``cli.main`` (``static_cell_us``, ``migrating_cell_us``).

The workloads differ in the scene and in where the time goes; see the
README in this directory.  The program is driven only through its public
functions, and every output is checked (``checks``) outside the timing.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import resource
import sys
import time
import traceback
from dataclasses import dataclass

import numpy as np

from ecalab import analysis, cli, config, estimator, montecarlo, scene

import checks

BISTATIC = "scenarios/bistatic_example.yaml"
MULTISTATIC = "scenarios/multistatic_example.yaml"
BATCHED = "bench/scenes/batched.yaml"


@dataclass(frozen=True)
class Spectrum:
    """One ``ecalab spectrum`` command of a round."""

    kind: str  # "static" or "migrating"
    config: str
    overrides: tuple
    peak_check: bool = False  # only where the grid resolves the main lobe
    records: bool = False  # read the captures set-up wrote with ``ecalab simulate``


@dataclass(frozen=True)
class Plan:
    config: str
    estimates: int  # localize calls per round
    trials: int  # run_trials size per round
    spectra: tuple
    mse_slack_db: float = None  # delay/Doppler workloads: model tolerance of the MSE check
    standardized_limit: float = None  # target-state workload: squared Mahalanobis bound


def _grids(tau, omega, halfspan):
    return (
        f"grids.tau_step_cells={tau}",
        f"grids.omega_step_cells={omega}",
        f"grids.omega_halfspan_cells={halfspan}",
    )


PLANS = {
    # the shipped bistatic example: steering kernel on one long contiguous batch
    "bistatic": Plan(
        BISTATIC,
        estimates=8,
        trials=8,
        spectra=(
            Spectrum("static", BISTATIC, _grids(1, 1, 48)),
            Spectrum("migrating", BISTATIC, ("migration=true",) + _grids(4, 4, 8)),
        ),
        mse_slack_db=1.0,  # criterion 3's MSE-versus-bound tolerance
    ),
    # three nodes, fused 4-D simplex; node 1 sits on the target's baseline
    "multistatic": Plan(
        MULTISTATIC,
        estimates=4,
        trials=5,
        spectra=(
            Spectrum("static", MULTISTATIC, _grids(0.5, 0.5, 16)),
            Spectrum("migrating", MULTISTATIC, ("migration=true",) + _grids(4, 4, 8)),
        ),
        # chi-square(4) at 1e-9, widened by criterion 8's 2 dB tolerance
        standardized_limit=71.0,
    ),
    # criterion 7's scene: N = 8192 in 8 strided batches of 1024
    "batched": Plan(
        BATCHED,
        estimates=2,
        trials=2,
        spectra=(
            Spectrum("static", BATCHED, _grids(2, 2, 16), records=True),
            Spectrum("migrating", BATCHED, ("migration=true",) + _grids(4, 1, 0), records=True),
        ),
        mse_slack_db=1.5,  # criterion 7's strided-MSE tolerance
    ),
    # the bistatic example's full static surface plus a migrating surface;
    # the few estimates only keep every metric measured
    "surface": Plan(
        BISTATIC,
        estimates=2,
        trials=2,
        spectra=(
            Spectrum("static", BISTATIC, (), peak_check=True),
            Spectrum(
                "migrating", BISTATIC, ("migration=true",) + _grids(4, 1, 10), peak_check=True
            ),
        ),
        mse_slack_db=1.0,
    ),
}

def derive_seed(*tags) -> int:
    """Stable 31-bit seed from the benchmark seed and a tag path."""
    text = "/".join(str(t) for t in tags)
    return int.from_bytes(hashlib.blake2b(text.encode(), digest_size=4).digest(), "little") >> 1


class Run:
    """One run of a workload: set-up in the constructor, then rounds."""

    def __init__(self, name, seed, root, out_dir, untraced=contextlib.nullcontext):
        self.name = name
        self.untraced = untraced  # checks run outside any tracing
        self.seed = seed
        self.root = root
        self.out_dir = out_dir
        self.plan = plan = PLANS[name]
        self.scn, cfg = config.parse_config(self._path(plan.config))
        self.opts = config.estimator_options(cfg)
        self.init = str(cfg.get("estimator", {}).get("init", "oracle_truth"))
        self.mode = analysis.default_mode(self.scn)
        self.wf = scene.scenario_waveform(self.scn)
        self.clean = [
            scene.clean_node_signals(self.scn, self.wf, k) for k in range(self.scn.n_nodes)
        ]
        self.batches = checks.batch_indices(
            self.scn.n_samples, self.scn.m_batches, self.scn.batch_mode
        )
        self.grids = {spec.kind: self._expected_grid(spec) for spec in plan.spectra}
        # captures for the spectrum commands that analyze recorded data
        self.records_seed = derive_seed(seed, name, "records")
        self.records_dir = os.path.join(out_dir, "records")
        if any(spec.records for spec in plan.spectra):
            self._cli(["simulate", "--config", self._path(plan.config), "--out",
                       self.records_dir, "--set", f"seed={self.records_seed}"])
        self.estimate_s = []
        self.theory_s = []
        self.cell_us = {spec.kind: [] for spec in plan.spectra}
        self.trials_per_s = []
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.theory = None
        self.failures = []

    def _path(self, rel):
        return os.path.join(self.root, rel)

    def _expected_grid(self, spec):
        """(n_nodes, tau grid, omega grid) of a spectrum command, from its config."""
        scn, cfg = config.parse_config(self._path(spec.config), list(spec.overrides))
        g = cfg.get("grids", {})
        dt = scn.sample_interval
        cell = 2 * np.pi / (scn.n_samples * dt)
        half = g.get("omega_halfspan_cells", 16.0)
        tau = checks.grid(g.get("tau_step_cells", 0.25), 0.0, scn.max_delay_samples - 16) * dt
        omega = checks.grid(g.get("omega_step_cells", 0.25), -half, half) * cell
        return scn.n_nodes, tau, omega

    def _check(self, fn, *args):
        try:
            fn(*args)
        except checks.CheckFailure as err:
            self.failures.append(f"{self.name}: {err}")

    def _attempt(self, n_ops, fn):
        """Run one operation; an exception counts its ``n_ops`` as failed."""
        self.attempted += n_ops
        try:
            return fn()
        except Exception:  # boundary: report, count, keep the run going
            traceback.print_exc(file=sys.stderr)
            self.failed += n_ops
            return None

    # -- one round ---------------------------------------------------------

    def round(self, r: int):
        plan = self.plan
        base = derive_seed(self.seed, self.name, "estimates", r)
        for i in range(plan.estimates):
            records = self._records(i, base)
            report = self._attempt(1, lambda: self._timed_localize(records))
            if report is not None:
                with self.untraced():
                    self._check_estimate(report, records)
        self._attempt(plan.trials, lambda: self._trials(derive_seed(self.seed, self.name, "trials", r)))
        self._theory()
        for spec in plan.spectra:
            self._spectrum(spec, derive_seed(self.seed, self.name, spec.kind, r))

    def _records(self, trial, base):
        return [
            scene.synthesize_node(self.scn, self.wf, k, trial, base, self.clean[k])
            for k in range(self.scn.n_nodes)
        ]

    def _timed_localize(self, records):
        t0 = time.perf_counter()
        report = estimator.localize(self.scn, records, init=self.init, mode=self.mode, **self.opts)
        self.estimate_s.append(time.perf_counter() - t0)
        return report

    def _trials(self, base):
        truth = self._truth()
        n = self.plan.trials
        t0 = time.perf_counter()
        reports = montecarlo.run_trials(
            self.scn, n, init_mode=self.init, base_seed=base, mode=self.mode, **self.opts
        )
        agg = montecarlo.aggregate(reports, truth)
        self.trials_per_s.append(n / (time.perf_counter() - t0))
        with self.untraced():
            for trial, report in enumerate(reports):
                self._check_estimate(report, self._records(trial, base))
            mse = np.mean((np.array([rep.params for rep in reports]) - truth) ** 2, axis=0)
            for j in range(mse.size):
                self._check(checks.check_close, agg["mse"][j], mse[j], "aggregate MSE", 1e-9)

    def _theory(self):
        t0 = time.perf_counter()
        report = analysis.asymptotic_covariance(self.scn, mode=self.mode)
        self.theory_s.append(time.perf_counter() - t0)
        if self.theory is None:
            self.theory = report
        self._check(checks.check_psd, report.asymptotic_cov, report.crb)

    @staticmethod
    def _cli(args):
        """Run an ``ecalab`` command in-process; returns its wall time."""
        with contextlib.redirect_stdout(io.StringIO()):
            t0 = time.perf_counter()
            code = cli.main(args)
            elapsed = time.perf_counter() - t0
        if code != 0:
            raise RuntimeError(f"ecalab {' '.join(args)} exited with {code}")
        return elapsed

    def _spectrum(self, spec, scene_seed):
        if spec.records:
            scene_seed = self.records_seed
        out = os.path.join(self.out_dir, spec.kind)
        args = ["spectrum", "--config", self._path(spec.config), "--out", out]
        if spec.records:
            args += ["--records", self.records_dir]
        for item in spec.overrides + (f"seed={scene_seed}",):
            args += ["--set", item]
        n_nodes, tau, omega = self.grids[spec.kind]

        def command():
            elapsed = self._cli(args)
            self.cell_us[spec.kind].append(elapsed / (n_nodes * tau.size * omega.size) * 1e6)
            return elapsed

        if self._attempt(n_nodes, command) is not None:
            with self.untraced():
                self._check_surfaces(spec, scene_seed, out)

    # -- checks ------------------------------------------------------------

    def _truth(self):
        if self.mode == "theta":
            return self.scn.target.as_vector()
        return np.array(scene.node_truth(self.scn, 0))

    def _carrier(self, scn, k):
        return scn.nodes[k].carrier_angular_frequency if scn.migration else None

    def _objective(self, records, pairs):
        """Weighted least-squares objective at per-node (delay, Doppler) pairs."""
        return sum(
            w * checks.node_value(rec, self.batches, tau, omega, self.scn.clutter_taps,
                                  self._carrier(self.scn, k))
            for k, (w, rec, (tau, omega)) in enumerate(zip(self.scn.weights, records, pairs))
            if w != 0.0
        )

    def _check_estimate(self, report, records):
        what = f"estimate from {report.init_mode} start"
        self._check(checks.check_converged, report.converged, what)
        if self.mode == "theta":
            start = self._objective(records, [rec.truth[:2] for rec in records])
        else:
            at_estimate = self._objective(records, [report.params])
            self._check(checks.check_close, report.objective, at_estimate, what + " (objective)")
            start = self._objective(records, [report.init_params])
        self._check(checks.check_not_below, report.objective, start, what)
        self.errors.append(report.params - self._truth())

    def _check_surfaces(self, spec, scene_seed, out):
        seed_item = [f"seed={scene_seed}"]
        cfg_path = self._path(spec.config)
        scn, _ = config.parse_config(cfg_path, list(spec.overrides) + seed_item)
        # the captures: recorded without the spectrum's overrides, or simulated
        # by the command itself
        simulated = config.parse_config(cfg_path, seed_item)[0] if spec.records else scn
        _, records = scene.simulate(simulated, trial=0, base_seed=scene_seed)
        _, tau, omega = self.grids[spec.kind]
        rng = np.random.default_rng(scene_seed)
        for k, rec in enumerate(records):
            self._check(
                checks.check_surface,
                os.path.join(out, f"surface_node{k}.csv"),
                tau,
                omega,
                rec,
                scn.clutter_taps,
                self._carrier(scn, k),
                rng,
                rec.truth[:2] if spec.peak_check else None,
            )

    def finish(self):
        """Checks over the whole run: MSE or standardized errors, curvature."""
        if self.theory is None or not self.errors:
            return
        errors = np.array(self.errors)
        cov = self.theory.asymptotic_cov
        if self.plan.mse_slack_db is not None:
            self._check(checks.check_mse, errors, np.diag(cov), self.plan.mse_slack_db,
                        self.theory.param_names)
        if self.plan.standardized_limit is not None:
            self._check(checks.check_standardized, errors, cov, self.plan.standardized_limit)
            objective = analysis.noise_free_objective(self.scn, self.wf, self.mode)
            fd = checks.fd_hessian(objective, self._truth(), [0.02, 0.02, 2.0, 2.0])
            self._check(checks.check_hessian, self.theory.h, fd)

    def metrics(self, setup_s: float) -> dict:
        return {
            "setup_s": (setup_s, "s"),
            "estimate_ms": (float(np.median(self.estimate_s)) * 1e3, "ms"),
            "trials_per_s": (float(np.median(self.trials_per_s)), "1/s"),
            "theory_ms": (float(np.median(self.theory_s)) * 1e3, "ms"),
            "static_cell_us": (float(np.median(self.cell_us["static"])), "us"),
            "migrating_cell_us": (float(np.median(self.cell_us["migrating"])), "us"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
