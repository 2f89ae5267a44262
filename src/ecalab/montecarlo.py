"""Monte Carlo experiment harness: trials, MSE aggregation, sweeps, tracking.

The waveform and all deterministic scene components are fixed per scenario
seed; only the channel noise is redrawn across trials, through seeds derived
from (base seed, node, trial).  Everything is deterministic end to end given
the base seed, and aggregation folds trials in fixed order, so repeated runs
produce bit-identical outputs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import analysis, estimator, scene
from .scene import Scenario
from .seeds import derive_seed


@dataclass(frozen=True)
class SweepSpec:
    """One swept experiment: a template scene, an axis, and trial counts."""

    scenario: Scenario
    axis: str  # sc_snr_db | rc_snr_db | m_batches | transmit_power_db
    values: tuple
    trials: int
    init_mode: str = "oracle_truth"
    mode: str = None
    base_seed: int = 0
    estimator_options: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        vals = tuple(float(v) for v in self.values)
        if not all(np.isfinite(vals)):
            raise ValueError("axis values must be finite")
        object.__setattr__(self, "values", vals)


@dataclass(frozen=True)
class SweepRow:
    """Aggregated results at one axis value."""

    axis_value: float
    param_names: tuple
    mse: np.ndarray
    rmse: np.ndarray
    bias: np.ndarray
    crb_diag: np.ndarray
    asymptotic_diag: np.ndarray
    trials_used: int
    divergences: int


def run_trials(
    scenario: Scenario,
    n_trials: int,
    init_mode: str = "oracle_truth",
    base_seed: int = None,
    mode: str = None,
    **estimator_options,
) -> list:
    """Estimate over ``n_trials`` independent noise draws of a fixed scene.

    Per-trial optimizer failures are recorded on the report, not raised.
    """
    if base_seed is None:
        base_seed = scenario.seed
    wf = scene.scenario_waveform(scenario)
    clean = [
        scene.clean_node_signals(scenario, wf, k) for k in range(scenario.n_nodes)
    ]
    reports = []
    for trial in range(n_trials):
        records = [
            scene.synthesize_node(scenario, wf, k, trial, base_seed, clean[k])
            for k in range(scenario.n_nodes)
        ]
        reports.append(
            estimator.localize(
                scenario, records, init=init_mode, mode=mode, **estimator_options
            )
        )
    return reports


def truth_vector(scenario: Scenario, mode: str = None) -> np.ndarray:
    """The generating parameter vector in the estimation mode's coordinates."""
    if mode is None:
        mode = analysis.default_mode(scenario)
    if mode == "delay_doppler":
        tau, omega = scene.node_truth(scenario, 0)
        return np.array([tau, omega])
    return scenario.target.as_vector()


def aggregate(reports: list, truth) -> dict:
    """Per-parameter bias/MSE/RMSE over converged trials, and ``mse_all``,
    the MSE over every trial, diverged ones included.

    Raises when every trial diverged; otherwise reports the divergence
    count alongside the moments.
    """
    truth = np.asarray(truth, dtype=float)
    good = [r for r in reports if r.converged]
    if not good:
        raise ValueError("all trials diverged; nothing to aggregate")
    errors = np.array([r.params - truth for r in good])
    mse = np.mean(np.abs(errors) ** 2, axis=0)
    return {
        "bias": errors.mean(axis=0),
        "mse": mse,
        "mse_all": np.mean([np.abs(r.params - truth) ** 2 for r in reports], axis=0),
        "rmse": np.sqrt(mse),
        "trials_used": len(good),
        "divergences": len(reports) - len(good),
    }


def _scale_amplitude(value: complex, new_magnitude: float) -> complex:
    mag = abs(value)
    if mag == 0.0:
        return complex(new_magnitude)
    return value * (new_magnitude / mag)


def apply_axis(scenario: Scenario, axis: str, value: float) -> Scenario:
    """Rebuild a scenario with one swept quantity changed.

    ``sc_snr_db`` rescales the target amplitudes at fixed surveillance
    noise; ``rc_snr_db`` rescales the reference noise at fixed amplitudes;
    ``transmit_power_db`` scales every amplitude jointly (dB relative to the
    template); ``m_batches`` changes the batch count.
    """
    if axis == "sc_snr_db":
        mag = np.sqrt(scenario.sc_noise_var * 10 ** (value / 10))
        amps = tuple(
            scene.NodeAmplitudes(
                rc=a.rc,
                dpi=a.dpi,
                target=_scale_amplitude(a.target, mag),
                clutter=a.clutter,
            )
            for a in scenario.amplitudes
        )
        return scenario.replace(amplitudes=amps)
    if axis == "rc_snr_db":
        mags = {abs(a.rc) for a in scenario.amplitudes}
        if max(mags) - min(mags) > 1e-12 * max(mags):
            raise ValueError("rc_snr_db sweep needs equal reference magnitudes")
        a2 = abs(scenario.amplitudes[0].rc) ** 2
        return scenario.replace(rc_noise_var=a2 * 10 ** (-value / 10))
    if axis == "m_batches":
        return scenario.replace(m_batches=int(value))
    if axis == "transmit_power_db":
        g = 10 ** (value / 20)
        amps = tuple(
            scene.NodeAmplitudes(
                rc=g * a.rc, dpi=g * a.dpi, target=g * a.target, clutter=g * a.clutter
            )
            for a in scenario.amplitudes
        )
        return scenario.replace(amplitudes=amps)
    raise ValueError(f"unknown sweep axis {axis!r}")


def sweep(spec: SweepSpec) -> list:
    """Run the swept experiment; per-point failures surface as exceptions
    from that point's trials, other points are unaffected."""
    rows = []
    mode = spec.mode or analysis.default_mode(spec.scenario)
    for value in spec.values:
        scn = apply_axis(spec.scenario, spec.axis, value)
        theory = analysis.asymptotic_covariance(scn, mode=mode)
        reports = run_trials(
            scn,
            spec.trials,
            init_mode=spec.init_mode,
            base_seed=spec.base_seed,
            mode=mode,
            **spec.estimator_options,
        )
        agg = aggregate(reports, truth_vector(scn, mode))
        rows.append(
            SweepRow(
                axis_value=value,
                param_names=theory.param_names,
                mse=agg["mse"],
                rmse=agg["rmse"],
                bias=np.abs(agg["bias"]),
                crb_diag=np.diag(theory.crb).copy(),
                asymptotic_diag=np.diag(theory.asymptotic_cov).copy(),
                trials_used=agg["trials_used"],
                divergences=agg["divergences"],
            )
        )
    return rows


@dataclass(frozen=True)
class TrackInterval:
    """Estimates and confidence ellipses for one sensing interval."""

    index: int
    truth: np.ndarray
    estimates: np.ndarray  # (trials, 4)
    converged: np.ndarray
    position_ellipse: analysis.Ellipse
    velocity_ellipse: analysis.Ellipse


def track(
    scenario: Scenario,
    interval_targets: list,
    trials_per_interval: int,
    base_seed: int = 0,
    level: float = 0.95,
    **estimator_options,
) -> list:
    """Independent estimation per sensing interval plus theory ellipses.

    Each interval re-targets the template scene, runs its own noise trials
    from base seed ``derive_seed(base_seed, "track", i)``, and attaches
    confidence ellipses from the predicted covariance blocks.
    """
    out = []
    for i, target in enumerate(interval_targets):
        scn = scenario.replace(target=target, truth_delay_doppler=None, seed=scenario.seed)
        theory = analysis.asymptotic_covariance(scn, mode="theta")
        reports = run_trials(
            scn,
            trials_per_interval,
            init_mode="oracle_truth",
            base_seed=derive_seed(base_seed, "track", i),
            mode="theta",
            **estimator_options,
        )
        out.append(
            TrackInterval(
                index=i,
                truth=target.as_vector(),
                estimates=np.array([r.params for r in reports]),
                converged=np.array([r.converged for r in reports]),
                position_ellipse=analysis.confidence_ellipse(
                    theory.asymptotic_cov[:2, :2], level
                ),
                velocity_ellipse=analysis.confidence_ellipse(
                    theory.asymptotic_cov[2:, 2:], level
                ),
            )
        )
    return out
