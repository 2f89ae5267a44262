"""Closed-form statistical performance predictions for the estimator.

Built around three objects evaluated at the true parameters with the true
waveform (the module predicts, it does not estimate):

* the curvature matrix ``H`` of the noise-free objective, stored positive
  definite, giving the surveillance-noise bound ``CRB = sc_noise_var * H^-1``;
* the excess gradient covariance ``Q`` contributed by reference-channel
  noise, assembled from a banded matrix that routes each reference noise
  sample into the cleaned data through the direct-path, clutter and
  steering-mismatch coefficients;
* their combination ``H^-1 (sc_noise_var*H + Q) H^-1 = CRB + H^-1 Q H^-1``,
  the first-order covariance of the estimates.

A per-node efficiency margin (dB) compares the surveillance
interference-to-noise ratio, inflated by the interference dimension, with
the reference-channel SNR; sufficiently negative margins make the excess
term negligible and the estimator efficient.

For frame-based scenes the per-batch terms are summed, matching the
incoherent batch combination; the bound then assumes independent batches
(``TheoryReport.batched`` flags this).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import waveform as wfm
from .eca import DEGENERATE_STEERING_TOL, DegenerateSteeringError, projected_power
from .geometry import TargetParams, delay_doppler_jacobian, theta_to_delay_doppler
from .scene import (
    Scenario,
    batch_slices,
    clean_node_signals,
    lagged_columns,
    node_truth,
    scenario_waveform,
)


class UnidentifiableScenarioError(ValueError):
    """Curvature matrix is singular: the scene does not determine the parameters."""


@dataclass(frozen=True)
class TheoryReport:
    """Performance prediction for one scenario."""

    mode: str  # "delay_doppler" or "theta"
    h: np.ndarray
    crb: np.ndarray
    q: np.ndarray
    asymptotic_cov: np.ndarray
    efficiency_margin_db: np.ndarray  # per node
    batched: bool  # True: bound assumes unsynchronized independent batches
    param_names: tuple


@dataclass(frozen=True)
class BandedZJ:
    """Banded map from reference noise samples to cleaned-data perturbations.

    Row q (surveillance sample index ``n_indices[q]``) couples to the noise
    sample at lattice index ``n_indices[q] - l`` with coefficient
    ``zeta[q, l]``: the zero-offset coefficient is the direct-path leakage
    plus the Doppler-phased steering mismatch, offsets 1..L carry the
    clutter taps.
    """

    zeta: np.ndarray  # (Q, L+1)
    n_indices: np.ndarray  # (Q,)

    @property
    def n_taps(self) -> int:
        return self.zeta.shape[1] - 1

    def noise_index_range(self) -> tuple:
        """(lowest, highest) lattice index of noise samples touched."""
        return int(self.n_indices.min()) - self.n_taps, int(self.n_indices.max())

    def apply(self, noise: np.ndarray, noise_start: int) -> np.ndarray:
        """Multiply by a noise vector whose first entry is lattice index ``noise_start``."""
        lo, hi = self.noise_index_range()
        if noise_start > lo or noise_start + noise.size - 1 < hi:
            raise ValueError("noise vector does not cover the banded support")
        out = np.zeros(self.n_indices.size, dtype=complex)
        for l in range(self.zeta.shape[1]):
            out += self.zeta[:, l] * noise[self.n_indices - l - noise_start]
        return out

    def apply_adjoint(self, vectors: np.ndarray) -> np.ndarray:
        """(ZJ)^H applied to (Q, p) columns, returned on the local noise span."""
        vectors = np.atleast_2d(vectors.T).T
        lo, hi = self.noise_index_range()
        out = np.zeros((hi - lo + 1, vectors.shape[1]), dtype=complex)
        for l in range(self.zeta.shape[1]):
            idx = self.n_indices - l - lo
            np.add.at(out, idx, self.zeta[:, l].conj()[:, None] * vectors)
        return out

    def to_dense(self) -> np.ndarray:
        """Dense (Q, span) matrix on the local noise index range (tests only)."""
        lo, hi = self.noise_index_range()
        dense = np.zeros((self.n_indices.size, hi - lo + 1), dtype=complex)
        for l in range(self.zeta.shape[1]):
            dense[np.arange(self.n_indices.size), self.n_indices - l - lo] = self.zeta[:, l]
        return dense


def build_banded_zj(
    dpi: complex,
    clutter: np.ndarray,
    target: complex,
    omega: float,
    n_indices: np.ndarray,
    sample_interval: float,
) -> BandedZJ:
    """Banded reference-noise coupling for one node (or batch)."""
    n_indices = np.asarray(n_indices, dtype=np.int64)
    clutter = np.asarray(clutter, dtype=complex).reshape(-1)
    zeta = np.empty((n_indices.size, clutter.size + 1), dtype=complex)
    zeta[:, 0] = dpi + target * np.exp(1j * omega * n_indices * sample_interval)
    if clutter.size:
        zeta[:, 1:] = clutter[None, :]
    return BandedZJ(zeta=zeta, n_indices=n_indices)


def _orthonormal(columns: np.ndarray) -> np.ndarray:
    q, _ = np.linalg.qr(columns, mode="reduced")
    return q


def ptilde_apply(interference: np.ndarray, steering: np.ndarray, vectors: np.ndarray) -> np.ndarray:
    """Project onto the cleaned-data subspace orthogonal to the cleaned steering.

    ``interference`` holds the true interference columns, ``steering`` the
    true steering vector; the result removes both the interference span and
    the cleaned-steering direction.  Idempotent and Hermitian in action.
    """
    u = _orthonormal(interference)
    b = steering - u @ (u.conj().T @ steering)
    b2 = float(np.real(b.conj() @ b))
    if b2 < DEGENERATE_STEERING_TOL * float(np.real(steering.conj() @ steering)):
        raise DegenerateSteeringError("steering lies in the interference span")
    out = vectors - u @ (u.conj().T @ vectors)
    if out.ndim == 1:
        return out - b * ((b.conj() @ out) / b2)
    return out - np.outer(b, b.conj() @ out) / b2


def default_mode(scenario: Scenario) -> str:
    return "delay_doppler" if scenario.n_nodes == 1 else "theta"


@dataclass(frozen=True)
class _BatchContext:
    u: np.ndarray  # orthonormal interference span
    b: np.ndarray  # cleaned steering
    b2: float
    d_clean: np.ndarray  # P-tilde applied to the steering Jacobian
    zj: BandedZJ
    times: np.ndarray
    y_clean: np.ndarray = None  # noise-free surveillance, interference removed


def _node_contexts(
    scenario: Scenario,
    wf: wfm.MasterWaveform,
    k: int,
    mode: str,
    with_clean_signal: bool = False,
) -> list:
    """Per-batch theory context of node ``k`` (None where its echo is canceled).

    The steering and its Jacobian are evaluated once over the node's whole
    window; each batch takes its own samples.
    """
    amp = scenario.amplitudes[k]
    tau, omega = node_truth(scenario, k)
    geom = None
    if mode == "theta":
        if scenario.truth_delay_doppler is not None:
            raise ValueError("theta mode needs geometry-derived delay/Doppler truth")
        geom = delay_doppler_jacobian(scenario.target, [scenario.nodes[k]])[0]
    clean_surv = None
    if with_clean_signal:
        _, clean_surv = clean_node_signals(scenario, wf, k)
    n = np.arange(scenario.n_samples)
    req = wfm.SteeringRequest(
        delay=tau,
        doppler=omega,
        times=scenario.surveillance_times(),
        migrating=scenario.migration,
        carrier=scenario.nodes[k].carrier_angular_frequency,
    )
    steer = wfm.steering(wf, req)
    jacobian = wfm.steering_jacobian(wf, req, geom)
    out = []
    for sel in batch_slices(scenario.n_samples, scenario.m_batches, scenario.batch_mode):
        a, d_mat = steer[sel], jacobian[sel]
        u = _orthonormal(lagged_columns(wf.time_series, n[sel], scenario.clutter_taps))
        b = a - u @ (u.conj().T @ a)
        b2 = float(np.real(b.conj() @ b))
        if b2 < DEGENERATE_STEERING_TOL * float(np.real(a.conj() @ a)):
            # true steering inside the interference span: the node's echo is
            # canceled along with the interference and carries no target
            # information (the estimator adds zero there)
            out.append(None)
            continue
        pd = d_mat - u @ (u.conj().T @ d_mat)
        d_clean = pd - np.outer(b, (b.conj() @ pd)) / b2
        zj = build_banded_zj(
            amp.dpi, amp.clutter, amp.target, omega, n[sel], scenario.sample_interval
        )
        y_clean = None
        if with_clean_signal:
            y = clean_surv[sel]
            y_clean = y - u @ (u.conj().T @ y)
        out.append(
            _BatchContext(
                u=u, b=b, b2=b2, d_clean=d_clean, zj=zj, times=req.times[sel], y_clean=y_clean
            )
        )
    return out


def _theory_sums(scenario: Scenario, wf: wfm.MasterWaveform, mode: str) -> tuple:
    """Curvature ``H`` and reference-noise excess ``Q``, summed over nodes
    and batches from one build of each node's contexts.

    ``H = 2 sum_k |d_k|^2 Re(D_k^H Pt D_k)``;
    ``Q = 2 rc_noise_var sum_k |d_k|^2/|a_k|^2 Re(G_k^H ZJ ZJ^H G_k)`` with
    ``G_k`` the cleaned steering Jacobian, evaluated through the banded
    form, never materializing the dense coupling.
    """
    _check_mode(scenario, mode)
    dim = 2 if mode == "delay_doppler" else 4
    h = np.zeros((dim, dim))
    q = np.zeros((dim, dim))
    rc_var = scenario.rc_noise_var
    any_target = False
    for k, amp in enumerate(scenario.amplitudes):
        d2 = abs(amp.target) ** 2
        if d2 == 0.0:
            continue
        any_target = True
        a2 = abs(amp.rc) ** 2
        if rc_var != 0.0 and a2 == 0.0:
            raise ValueError(f"node {k}: zero reference amplitude with reference noise")
        for ctx in _node_contexts(scenario, wf, k, mode):
            if ctx is None:
                continue
            g = ctx.d_clean
            h += 2.0 * d2 * np.real(g.conj().T @ g)
            if rc_var != 0.0:
                w = ctx.zj.apply_adjoint(g)
                q += 2.0 * rc_var * (d2 / a2) * np.real(w.conj().T @ w)
    if not any_target:
        raise ValueError("no node has a nonzero target amplitude")
    return (h + h.T) / 2, (q + q.T) / 2


def _defaults(scenario: Scenario, wf: wfm.MasterWaveform, mode: str) -> tuple:
    """The scene's waveform and default mode where they are not given."""
    if wf is None:
        wf = scenario_waveform(scenario)
    return wf, default_mode(scenario) if mode is None else mode


def hessian_and_crb(
    scenario: Scenario, wf: wfm.MasterWaveform = None, mode: str = None
) -> tuple:
    """Positive-definite curvature matrix and the surveillance-noise bound
    ``CRB = sc_noise_var * H^-1``.  Raises
    :class:`UnidentifiableScenarioError` when H is singular."""
    h, _ = _theory_sums(scenario, *_defaults(scenario, wf, mode))
    crb = scenario.sc_noise_var * _scaled_inverse(h)
    return h, (crb + crb.T) / 2


def _scaled_inverse(h: np.ndarray) -> np.ndarray:
    """Inverse via the unit-normalized form (parameters carry wildly
    different physical units, so raw conditioning is not meaningful)."""
    diag = np.diag(h)
    if np.any(diag <= 0):
        raise UnidentifiableScenarioError(
            f"curvature matrix has non-positive diagonal {diag}"
        )
    s = np.sqrt(diag)
    corr = h / np.outer(s, s)
    eigvals = np.linalg.eigvalsh(corr)
    if eigvals.min() < 1e-10:
        raise UnidentifiableScenarioError(
            f"curvature matrix is singular (normalized eigenvalues {eigvals})"
        )
    return np.linalg.inv(corr) / np.outer(s, s)


def excess_q(scenario: Scenario, wf: wfm.MasterWaveform = None, mode: str = None) -> np.ndarray:
    """Gradient-covariance excess ``Q`` from reference-channel noise (PSD)."""
    return _theory_sums(scenario, *_defaults(scenario, wf, mode))[1]


def efficiency_margin(scenario: Scenario) -> np.ndarray:
    """Per-node margin (dB) of the sufficient condition for efficiency.

    ``10 log10[(L+1)(|b|^2+|d|^2+||c||^2)/sc_var] - 10 log10[|a|^2/rc_var]``;
    strongly negative margins mean reference noise is negligible.  Zero
    variances produce infinite sentinels.
    """
    out = np.empty(scenario.n_nodes)
    L = scenario.clutter_taps
    for k, amp in enumerate(scenario.amplitudes):
        interference = (
            abs(amp.dpi) ** 2
            + abs(amp.target) ** 2
            + float(np.linalg.norm(amp.clutter) ** 2)
        )
        if scenario.sc_noise_var == 0.0 and scenario.rc_noise_var == 0.0:
            out[k] = np.nan
        elif scenario.sc_noise_var == 0.0:
            out[k] = np.inf
        elif scenario.rc_noise_var == 0.0:
            out[k] = -np.inf
        else:
            lhs = (L + 1) * interference / scenario.sc_noise_var
            rhs = abs(amp.rc) ** 2 / scenario.rc_noise_var
            out[k] = 10 * np.log10(lhs) - 10 * np.log10(rhs)
    return out


def asymptotic_covariance(
    scenario: Scenario, wf: wfm.MasterWaveform = None, mode: str = None
) -> TheoryReport:
    """Full first-order prediction: H, CRB, Q, CRB + H^-1 Q H^-1, margins."""
    wf, mode = _defaults(scenario, wf, mode)
    h, q = _theory_sums(scenario, wf, mode)
    h_inv = _scaled_inverse(h)
    crb = scenario.sc_noise_var * h_inv
    crb = (crb + crb.T) / 2
    acov = crb + h_inv @ q @ h_inv
    names = ("tau", "omega") if mode == "delay_doppler" else ("x", "y", "vx", "vy")
    return TheoryReport(
        mode=mode,
        h=h,
        crb=crb,
        q=q,
        asymptotic_cov=(acov + acov.T) / 2,
        efficiency_margin_db=efficiency_margin(scenario),
        batched=scenario.m_batches > 1,
        param_names=names,
    )


def _check_mode(scenario: Scenario, mode: str):
    if mode not in ("delay_doppler", "theta"):
        raise ValueError(f"unknown mode {mode!r}")
    if mode == "delay_doppler" and scenario.n_nodes != 1:
        raise ValueError("delay_doppler mode applies to single-node scenes")


def noise_free_objective(
    scenario: Scenario, wf: wfm.MasterWaveform = None, mode: str = None
):
    """Exact-model objective used by curvature and consistency oracles.

    Evaluates the spectrum with the true waveform and noise-free signals (no
    recorded-reference interpolation), summed over nodes and batches with
    the scenario weights.  Returns a callable of (tau, omega) in
    delay_doppler mode or the 4-vector target state in theta mode.
    """
    wf, mode = _defaults(scenario, wf, mode)
    _check_mode(scenario, mode)
    contexts = [
        _node_contexts(scenario, wf, k, mode, with_clean_signal=True)
        for k in range(scenario.n_nodes)
    ]

    def node_value(k: int, tau: float, omega: float) -> float:
        carrier = scenario.nodes[k].carrier_angular_frequency
        total = 0.0
        for ctx in contexts[k]:
            if ctx is None:
                continue
            req = wfm.SteeringRequest(
                delay=tau,
                doppler=omega,
                times=ctx.times,
                migrating=scenario.migration,
                carrier=carrier,
            )
            try:
                total += projected_power(wfm.steering(wf, req), ctx.u, ctx.y_clean)
            except DegenerateSteeringError:
                continue
        return total

    if mode == "delay_doppler":

        def objective(params):
            return scenario.weights[0] * node_value(0, params[0], params[1])

        return objective

    def objective(theta_vec):
        pairs = theta_to_delay_doppler(
            TargetParams.from_vector(theta_vec), scenario.nodes
        )
        return sum(
            w * node_value(k, pairs[k, 0], pairs[k, 1])
            for k, w in enumerate(scenario.weights)
        )

    return objective


def unambiguity_scan(
    wf: wfm.MasterWaveform,
    times: np.ndarray,
    tau0: float,
    omega0: float,
    tau_grid: np.ndarray,
    omega_grid: np.ndarray,
    exclusion: tuple = None,
) -> float:
    """Largest off-peak normalized steering correlation over the scan grid.

    Values strictly below one certify that no scanned hypothesis reproduces
    the true steering direction.  ``exclusion = (delay_radius,
    doppler_radius)`` removes the neighborhood of the true pair; ``None``
    scans every grid point.
    """
    times = np.asarray(times, dtype=float)
    tau_grid = np.asarray(tau_grid, dtype=float)
    omega_grid = np.asarray(omega_grid, dtype=float)
    a0 = wfm.steering(wf, wfm.SteeringRequest(delay=tau0, doppler=omega0, times=times))
    n0 = np.linalg.norm(a0)
    phases = np.exp(1j * np.outer(times, omega_grid))
    best = 0.0
    if exclusion is not None:
        excl_tau, excl_omega = exclusion
        omega_near = np.abs(omega_grid - omega0) <= excl_omega
    for tau in tau_grid:
        s = wfm._eval_times(wf, times - tau, derivative=False)
        corr = np.abs((a0.conj() * s) @ phases) / (n0 * np.linalg.norm(s))
        if exclusion is not None and abs(tau - tau0) <= excl_tau:
            corr = corr[~omega_near]
        if corr.size:
            best = max(best, float(corr.max()))
    return best


@dataclass(frozen=True)
class Ellipse:
    """Center-relative confidence ellipse: semi-axes (descending) and the
    major-axis orientation in radians."""

    semi_axes: np.ndarray
    orientation: float
    eigenvectors: np.ndarray


def confidence_ellipse(cov: np.ndarray, level: float = 0.95) -> Ellipse:
    """Confidence ellipse of a 2x2 covariance block at the given level.

    The squared radius is the chi-square quantile with two degrees of
    freedom, ``-2 log(1 - level)`` in closed form.  Raises ``ValueError``
    unless ``0 < level < 1``.
    """
    if not 0.0 < level < 1.0:
        raise ValueError(f"confidence level must lie in (0, 1), got {level!r}")
    cov = np.asarray(cov, dtype=float)
    if cov.shape != (2, 2):
        raise ValueError("covariance block must be 2x2")
    sym = (cov + cov.T) / 2
    eigvals, eigvecs = np.linalg.eigh(sym)
    if eigvals.min() < -1e-12 * max(eigvals.max(), 1.0):
        raise ValueError(f"covariance not positive semi-definite: {eigvals}")
    eigvals = np.clip(eigvals, 0.0, None)
    order = np.argsort(eigvals)[::-1]
    eigvals = eigvals[order]
    eigvecs = eigvecs[:, order]
    radius2 = -2.0 * np.log1p(-level)
    axes = np.sqrt(radius2 * eigvals)
    orientation = float(np.arctan2(eigvecs[1, 0], eigvecs[0, 0]))
    return Ellipse(semi_axes=axes, orientation=orientation, eigenvectors=eigvecs)
