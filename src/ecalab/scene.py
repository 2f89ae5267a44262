"""Scene description and per-node channel synthesis.

A :class:`Scenario` is the immutable description of one radar scene: node
geometry, target state, waveform parameters, per-node complex amplitudes,
noise variances and batching options.  :func:`synthesize_node` turns it into
one node's :class:`NodeRecord` holding the reference-channel capture (direct
path plus receiver noise) and the surveillance-channel capture (direct-path
leakage, FIR clutter, Doppler-shifted target echo, receiver noise).

The reference capture starts ``max_delay_samples`` before the surveillance
window and is extended by a small trailing guard so that fractional-delay
interpolation near zero delay never reads past the recorded samples.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from . import waveform as wfm
from .geometry import NodeGeometry, TargetParams, theta_to_delay_doppler
from .seeds import derive_seed, rng_for

# Trailing reference-channel samples beyond the nominal window; sized to
# cover the interpolation kernel half-width with slack.
REF_GUARD = 32


@dataclass(frozen=True)
class NodeAmplitudes:
    """Complex channel amplitudes of one node.

    ``rc``: direct path into the reference channel; ``dpi``: direct-path
    leakage into the surveillance channel; ``target``: target echo;
    ``clutter``: FIR tap vector (delays 1..L samples).
    """

    rc: complex
    dpi: complex
    target: complex
    clutter: np.ndarray

    def __post_init__(self):
        object.__setattr__(
            self, "clutter", np.asarray(self.clutter, dtype=complex).reshape(-1)
        )


@dataclass(frozen=True)
class AmplitudeModel:
    """Link-budget parameters for deriving amplitudes from geometry.

    Powers in watts, gains in dB, RCS in m^2.  ``reference_power_w``
    normalizes received powers to the unit-variance waveform convention.
    """

    transmit_power_w: float
    tx_gain_db: float
    rx_gain_db: float
    wavelength_m: float
    rcs_m2: float
    dpi_sidelobe_db: float
    clutter_to_noise_db: float
    reference_power_w: float = 1.0

    def __post_init__(self):
        if self.transmit_power_w < 0 or self.reference_power_w <= 0:
            raise ValueError("powers must be non-negative (reference > 0)")
        if self.rcs_m2 < 0 or self.wavelength_m <= 0:
            raise ValueError("rcs must be >= 0 and wavelength > 0")


@dataclass(frozen=True)
class Scenario:
    """Full description of a simulated scene (immutable)."""

    nodes: tuple  # NodeGeometry per node
    target: TargetParams
    bandwidth: float
    sample_rate: float
    master_length: int
    n_samples: int
    max_delay_samples: int
    clutter_taps: int
    amplitudes: tuple  # NodeAmplitudes per node
    sc_noise_var: float
    rc_noise_var: float
    m_batches: int = 1
    batch_mode: str = "consecutive"
    migration: bool = False
    weights: tuple = None
    seed: int = 0
    # Direct per-node (delay, doppler) truth; bypasses the geometry mapping
    # for single-node delay/Doppler studies.
    truth_delay_doppler: tuple = None

    def __post_init__(self):
        object.__setattr__(self, "nodes", tuple(self.nodes))
        object.__setattr__(self, "amplitudes", tuple(self.amplitudes))
        if self.weights is None:
            object.__setattr__(self, "weights", (1.0,) * len(self.nodes))
        else:
            object.__setattr__(self, "weights", tuple(float(w) for w in self.weights))
        if self.truth_delay_doppler is not None:
            object.__setattr__(
                self,
                "truth_delay_doppler",
                tuple((float(t), float(w)) for t, w in self.truth_delay_doppler),
            )
        self.validate()

    def validate(self):
        K = len(self.nodes)
        if K == 0:
            raise ValueError("scenario needs at least one node")
        if len(self.amplitudes) != K:
            raise ValueError("amplitudes: need one entry per node")
        if len(self.weights) != K:
            raise ValueError("weights: need one entry per node")
        if self.truth_delay_doppler is not None and len(self.truth_delay_doppler) != K:
            raise ValueError("truth_delay_doppler: need one entry per node")
        if not 0 < self.bandwidth <= self.sample_rate:
            raise ValueError("need 0 < bandwidth <= sample_rate")
        if self.clutter_taps < 0:
            raise ValueError("clutter_taps must be >= 0")
        if self.clutter_taps > self.max_delay_samples:
            raise ValueError(
                f"clutter_taps ({self.clutter_taps}) must not exceed "
                f"max_delay_samples ({self.max_delay_samples})"
            )
        for k, amp in enumerate(self.amplitudes):
            if amp.clutter.size != self.clutter_taps:
                raise ValueError(
                    f"node {k}: clutter vector length {amp.clutter.size} != "
                    f"clutter_taps {self.clutter_taps}"
                )
        if self.sc_noise_var < 0 or self.rc_noise_var < 0:
            raise ValueError("noise variances must be >= 0")
        batch_slices(self.n_samples, self.m_batches, self.batch_mode)
        guard_needed = 2 * (self.n_samples + 2 * self.max_delay_samples + REF_GUARD)
        if self.master_length < guard_needed:
            raise ValueError(
                f"master_length ({self.master_length}) too small for the "
                f"analysis window; need >= {guard_needed}"
            )
        # unambiguous-Doppler bound: full Nyquist range, shrunk by the batch
        # count under sparse (strided) splitting
        divisor = self.m_batches if self.batch_mode == "sparse" else 1
        bound = np.pi * self.sample_rate / divisor
        for k in range(K):
            _, omega = node_truth(self, k)
            if abs(omega) >= bound:
                label = (
                    f"sparse-batching limit pi*Fs/m_batches"
                    if divisor > 1
                    else "non-ambiguous Doppler limit pi*Fs"
                )
                raise ValueError(
                    f"node {k}: |doppler| = {abs(omega):.3e} rad/s exceeds the "
                    f"{label} = {bound:.3e}"
                )

    @property
    def sample_interval(self) -> float:
        return 1.0 / self.sample_rate

    @property
    def n_nodes(self) -> int:
        return len(self.nodes)

    def surveillance_times(self) -> np.ndarray:
        return np.arange(self.n_samples) * self.sample_interval

    def replace(self, **changes) -> "Scenario":
        return dataclasses.replace(self, **changes)


@dataclass(frozen=True)
class NodeRecord:
    """One node's simulated captures plus the truth used to generate them.

    ``reference`` covers sample indices ``-max_delay_samples ..
    n_samples-1+REF_GUARD``; ``surveillance`` covers the ascending ``n_indices``
    (the full ``0..N-1`` window, or a batch subset after splitting).  The
    reference array is shared, not copied, across batch views.
    """

    reference: np.ndarray
    surveillance: np.ndarray
    n_indices: np.ndarray
    sample_interval: float
    max_delay_samples: int
    truth: tuple  # (delay_s, doppler_rad_s, target_amplitude)
    node_index: int = 0

    def __post_init__(self):
        if len(self.surveillance) != len(self.n_indices):
            raise ValueError("surveillance and n_indices must align")

    @property
    def times(self) -> np.ndarray:
        return self.n_indices * self.sample_interval


def batch_slices(n_samples: int, m_batches: int, mode: str) -> list:
    """Sample positions of each batch of an ``n_samples`` window, as slices.

    Consecutive mode cuts the window into contiguous blocks; sparse mode
    takes every ``m_batches``-th sample (preserving the observation span at
    the cost of the unambiguous Doppler range).  Raises :class:`ValueError`
    for an unknown mode or a count that does not divide the window.
    """
    if m_batches < 1:
        raise ValueError("m_batches must be >= 1")
    if n_samples % m_batches != 0:
        raise ValueError(
            f"n_samples ({n_samples}) must be divisible by m_batches ({m_batches})"
        )
    if mode not in ("consecutive", "sparse"):
        raise ValueError(f"batch_mode must be 'consecutive' or 'sparse', got {mode!r}")
    q = n_samples // m_batches
    if mode == "consecutive":
        return [slice(m * q, (m + 1) * q) for m in range(m_batches)]
    return [slice(m, None, m_batches) for m in range(m_batches)]


def lagged_columns(series: np.ndarray, rows: np.ndarray, taps: int) -> np.ndarray:
    """Columns ``series[rows - l]`` for lags ``l = 0..taps``, shape (rows, taps+1).

    A negative index counts from the end of ``series``, which is the wrap of
    a periodic series such as the master waveform.
    """
    return series[rows[:, None] - np.arange(taps + 1)]


def node_truth(scenario: Scenario, k: int) -> tuple:
    """True (delay, doppler) pair of node ``k``."""
    if scenario.truth_delay_doppler is not None:
        return scenario.truth_delay_doppler[k]
    pair = theta_to_delay_doppler(scenario.target, [scenario.nodes[k]])[0]
    return float(pair[0]), float(pair[1])


def scenario_waveform(scenario: Scenario) -> wfm.MasterWaveform:
    """The scene's master waveform (seed derived from the scenario seed)."""
    return wfm.generate(
        derive_seed(scenario.seed, "waveform"),
        scenario.bandwidth,
        scenario.sample_rate,
        scenario.master_length,
    )


def clutter_matrix(wf: wfm.MasterWaveform, scenario: Scenario, k: int) -> np.ndarray:
    """True-waveform Toeplitz clutter matrix, shape (N, L); column l-1 is the
    waveform delayed by l samples."""
    n = np.arange(scenario.n_samples)
    return lagged_columns(wf.time_series, n, scenario.clutter_taps)[:, 1:]


def clean_node_signals(scenario: Scenario, wf: wfm.MasterWaveform, k: int):
    """Noise-free reference and surveillance vectors of node ``k``."""
    amp = scenario.amplitudes[k]
    N = scenario.n_samples
    tau, omega = node_truth(scenario, k)

    clean_ref = amp.rc * wf.time_series[np.arange(-scenario.max_delay_samples, N + REF_GUARD)]

    clean_surv = amp.dpi * wf.time_series[:N]
    if scenario.clutter_taps:
        clean_surv = clean_surv + clutter_matrix(wf, scenario, k) @ amp.clutter
    req = wfm.SteeringRequest(
        delay=tau,
        doppler=omega,
        times=scenario.surveillance_times(),
        migrating=scenario.migration,
        carrier=scenario.nodes[k].carrier_angular_frequency,
    )
    clean_surv = clean_surv + amp.target * wfm.steering(wf, req)
    return clean_ref, clean_surv


def _complex_noise(rng: np.random.Generator, n: int, variance: float) -> np.ndarray:
    if variance == 0.0:
        return np.zeros(n, dtype=complex)
    s = np.sqrt(variance / 2.0)
    return s * (rng.standard_normal(n) + 1j * rng.standard_normal(n))


def synthesize_node(
    scenario: Scenario,
    wf: wfm.MasterWaveform,
    k: int,
    trial: int = 0,
    base_seed: int = None,
    clean: tuple = None,
) -> NodeRecord:
    """Simulate node ``k``: deterministic signals plus fresh noise.

    Noise streams are derived from ``base_seed`` (default: the scenario
    seed) by (node, trial, channel), so records are reproducible and
    independent across nodes and trials.  Pass ``clean`` to reuse
    precomputed noise-free signals across trials.
    """
    if base_seed is None:
        base_seed = scenario.seed
    if clean is None:
        clean = clean_node_signals(scenario, wf, k)
    clean_ref, clean_surv = clean
    rc_rng = rng_for(base_seed, "noise", k, trial, "rc")
    sc_rng = rng_for(base_seed, "noise", k, trial, "sc")
    reference = clean_ref + _complex_noise(rc_rng, clean_ref.size, scenario.rc_noise_var)
    surveillance = clean_surv + _complex_noise(
        sc_rng, clean_surv.size, scenario.sc_noise_var
    )
    tau, omega = node_truth(scenario, k)
    return NodeRecord(
        reference=reference,
        surveillance=surveillance,
        n_indices=np.arange(scenario.n_samples),
        sample_interval=scenario.sample_interval,
        max_delay_samples=scenario.max_delay_samples,
        truth=(tau, omega, scenario.amplitudes[k].target),
        node_index=k,
    )


def simulate(scenario: Scenario, trial: int = 0, base_seed: int = None):
    """Synthesize every node of the scene; returns (waveform, [NodeRecord])."""
    wf = scenario_waveform(scenario)
    records = [
        synthesize_node(scenario, wf, k, trial, base_seed)
        for k in range(scenario.n_nodes)
    ]
    return wf, records


def draw_amplitudes(
    seed: int,
    n_nodes: int,
    clutter_taps: int,
    rc_magnitude=1.0,
    dpi_magnitude=0.0,
    target_magnitude=1.0,
    clutter_norm=0.0,
) -> tuple:
    """Explicit-mode amplitude set with scenario-seeded uniform phases.

    Magnitude arguments broadcast over nodes (scalar or per-node sequence).
    Clutter taps are drawn circular Gaussian and rescaled to the requested
    norm, fixed per scenario seed (not redrawn across noise trials).
    """

    def per_node(v):
        arr = np.broadcast_to(np.asarray(v, dtype=float), (n_nodes,))
        return arr

    rc = per_node(rc_magnitude)
    dpi = per_node(dpi_magnitude)
    tgt = per_node(target_magnitude)
    cn = per_node(clutter_norm)
    out = []
    for k in range(n_nodes):
        rng = rng_for(seed, "amplitudes", k)
        ph = rng.uniform(0, 2 * np.pi, size=3)
        taps = np.zeros(clutter_taps, dtype=complex)
        if clutter_taps and cn[k] > 0:
            raw = rng.standard_normal(clutter_taps) + 1j * rng.standard_normal(
                clutter_taps
            )
            taps = raw * (cn[k] / np.linalg.norm(raw))
        out.append(
            NodeAmplitudes(
                rc=rc[k] * np.exp(1j * ph[0]),
                dpi=dpi[k] * np.exp(1j * ph[1]),
                target=tgt[k] * np.exp(1j * ph[2]),
                clutter=taps,
            )
        )
    return tuple(out)


def amplitudes_from_radar_equation(
    model: AmplitudeModel,
    node: NodeGeometry,
    target: TargetParams,
    sc_noise_var: float,
    seed: int,
    node_index: int = 0,
    clutter_taps: int = 0,
) -> NodeAmplitudes:
    """Amplitudes from the standard two-leg link budget.

    Direct-path power falls with the squared baseline; the target echo with
    the product of squared leg ranges and the RCS.  DPI is the direct-path
    amplitude attenuated by the antenna sidelobe figure; clutter taps are
    seeded random, scaled to the requested clutter-to-noise ratio.
    """
    io = np.asarray(node.io_position)
    rn = np.asarray(node.rn_position)
    u = target.position
    r_direct = np.linalg.norm(rn - io)
    r_tx = np.linalg.norm(u - io)
    r_rx = np.linalg.norm(u - rn)
    if r_direct == 0 or r_tx == 0 or r_rx == 0:
        raise ValueError("radar equation undefined for zero-distance geometry")
    pt = model.transmit_power_w
    gt = 10 ** (model.tx_gain_db / 10)
    gr = 10 ** (model.rx_gain_db / 10)
    lam2 = model.wavelength_m**2
    a2 = pt * gt * gr * lam2 / ((4 * np.pi) ** 2 * r_direct**2) / model.reference_power_w
    d2 = (
        pt
        * gt
        * gr
        * lam2
        * model.rcs_m2
        / ((4 * np.pi) ** 3 * r_tx**2 * r_rx**2)
        / model.reference_power_w
    )
    b_mag = np.sqrt(a2) * 10 ** (-model.dpi_sidelobe_db / 20)
    c_norm = np.sqrt(sc_noise_var * 10 ** (model.clutter_to_noise_db / 10))
    return draw_amplitudes(
        seed,
        node_index + 1,
        clutter_taps,
        rc_magnitude=np.sqrt(a2),
        dpi_magnitude=b_mag,
        target_magnitude=np.sqrt(d2),
        clutter_norm=c_norm,
    )[node_index]


def _db(x: float) -> float:
    if x == 0.0:
        return -np.inf
    return 10 * np.log10(x)


def snr_report(scenario: Scenario) -> list:
    """Per-node power ratios in dB (inf sentinels for zero noise variances)."""
    out = []
    for amp in scenario.amplitudes:
        sn = scenario.rc_noise_var
        se = scenario.sc_noise_var
        rc = np.inf if sn == 0 else _db(abs(amp.rc) ** 2 / sn)
        if se == 0:
            sc = dnr = cnr = np.inf
        else:
            sc = _db(abs(amp.target) ** 2 / se)
            dnr = _db(abs(amp.dpi) ** 2 / se)
            cnr = _db(float(np.linalg.norm(amp.clutter) ** 2) / se)
        out.append(
            {"rc_snr_db": rc, "sc_snr_db": sc, "dpi_to_noise_db": dnr, "clutter_to_noise_db": cnr}
        )
    return out
