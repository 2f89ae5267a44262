"""Bandlimited random illuminator waveform with exact delayed samples.

The master waveform is a periodic complex Gaussian process synthesized in
the frequency domain: in-band bins are i.i.d. circular Gaussian, out-of-band
bins are exactly zero, and the scaling gives unit expected time-domain
power.  Because the process is a finite sum of complex exponentials, any
fractionally delayed sample, range-migrating sample, or delay derivative
can be evaluated exactly -- there is no interpolation error on the
simulation/theory side of the laboratory.

Evaluation picks the cheapest exact path available: direct indexing of the
cached time series for on-lattice times, one phase-shifted inverse FFT for a
common fractional offset (offsets compared modulo 1, to within 1e-9
samples), a chirp-z transform for times on an arithmetic progression
``t0 + n*step`` (range migration: every shipped migrating time set), and for
any other time set a sum over the bins whose exponentials factor into two
small tables per time.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

# Times used in one experiment must stay within half a period on either
# side of zero so that no two evaluation times alias modulo the period.
# Sample positions within this many samples of a common fractional offset
# (or of the lattice) share it: rounding-level, so every sample stays exact.
_LATTICE_TOL = 1e-9
# Times within this many ulps (of the largest |t|) of t[0] + n*step form a
# progression; the rounding of a caller's n*dt - tau + c*n*dt stays under 4.
_PROGRESSION_ULPS = 8
# Width of the inner exponential table of the bin sum.
_BIN_BLOCK = 64


class WindowOverrunError(ValueError):
    """Requested evaluation times leave the guarded non-aliasing span."""


@dataclass(frozen=True)
class MasterWaveform:
    """Frequency-domain master process (immutable after generation)."""

    bin_amplitudes: np.ndarray  # complex, length master_length
    bin_frequencies: np.ndarray  # Hz, FFT ordering
    bandwidth: float  # Hz
    sample_rate: float  # Hz
    master_length: int
    seed: int
    time_series: np.ndarray = field(repr=False, default=None)  # lattice samples

    @property
    def sample_interval(self) -> float:
        return 1.0 / self.sample_rate

    @property
    def period(self) -> float:
        return self.master_length / self.sample_rate

    def in_band_mask(self) -> np.ndarray:
        return np.abs(self.bin_frequencies) <= self.bandwidth / 2


@dataclass(frozen=True)
class SteeringRequest:
    """Delay/Doppler evaluation request for a steering vector.

    ``times`` is the sample-time grid (seconds).  When ``migrating`` is set,
    the delay drifts linearly at the rate implied by the Doppler shift and
    the carrier, and ``carrier`` must be given.
    """

    delay: float
    doppler: float
    times: np.ndarray
    migrating: bool = False
    carrier: float = None

    def __post_init__(self):
        object.__setattr__(self, "times", np.asarray(self.times, dtype=float))
        if self.migrating and not self.carrier:
            raise ValueError("migrating steering requires the carrier frequency")


def generate(seed: int, bandwidth: float, sample_rate: float, master_length: int) -> MasterWaveform:
    """Draw a bandlimited unit-power master waveform, deterministic in ``seed``."""
    if not 0 < bandwidth <= sample_rate:
        raise ValueError(
            f"need 0 < bandwidth <= sample_rate, got B={bandwidth}, Fs={sample_rate}"
        )
    if master_length < 2:
        raise ValueError("master_length too small")
    freqs = np.fft.fftfreq(master_length, 1.0 / sample_rate)
    mask = np.abs(freqs) <= bandwidth / 2
    n_in = int(mask.sum())
    rng = np.random.default_rng(seed)
    amps = np.zeros(master_length, dtype=complex)
    # variance per in-band bin = P / n_in so that E|s(t)|^2 = 1 for all t
    scale = np.sqrt(master_length / n_in / 2.0)
    amps[mask] = scale * (rng.standard_normal(n_in) + 1j * rng.standard_normal(n_in))
    series = np.sqrt(master_length) * np.fft.ifft(amps)
    return MasterWaveform(
        bin_amplitudes=amps,
        bin_frequencies=freqs,
        bandwidth=bandwidth,
        sample_rate=sample_rate,
        master_length=master_length,
        seed=seed,
        time_series=series,
    )


def _check_window(wf: MasterWaveform, eval_times: np.ndarray):
    half = wf.period / 2
    if eval_times.size and np.max(np.abs(eval_times)) >= half:
        raise WindowOverrunError(
            f"evaluation times reach {np.max(np.abs(eval_times)):.3e} s, "
            f"outside the guarded span (+-{half:.3e} s); increase master_length"
        )


def _eval_times(wf: MasterWaveform, eval_times: np.ndarray, derivative: bool) -> np.ndarray:
    """Exact waveform (or its time derivative) at arbitrary times.

    Lattice times gather the cached series; times sharing one fractional
    offset take one inverse FFT; times on an arithmetic progression (to
    within ``_PROGRESSION_ULPS``) take :func:`_chirp_z`; only other time sets
    fall back to :func:`_bin_sum`.
    """
    eval_times = np.asarray(eval_times, dtype=float)
    _check_window(wf, eval_times)
    pos = eval_times * wf.sample_rate
    rounded = np.round(pos)
    if np.max(np.abs(pos - rounded)) < _LATTICE_TOL and not derivative:
        return wf.time_series[rounded.astype(np.int64) % wf.master_length]
    # offsets are compared modulo 1: a position at n + 0.99999... shares the
    # offset 0 of its neighbours, at sample n + 1
    frac = pos[0] - np.floor(pos[0])
    shifted = pos - frac
    nearest = np.round(shifted)
    if np.max(np.abs(shifted - nearest)) < _LATTICE_TOL:
        # common fractional offset: one phase-shifted inverse FFT, then gather
        spec = wf.bin_amplitudes
        if derivative:
            spec = spec * (2j * np.pi * wf.bin_frequencies)
        shift = np.exp(2j * np.pi * wf.bin_frequencies * frac / wf.sample_rate)
        series = np.sqrt(wf.master_length) * np.fft.ifft(spec * shift)
        return series[nearest.astype(np.int64) % wf.master_length]
    step = (eval_times[-1] - eval_times[0]) / (eval_times.size - 1)
    fit = eval_times[0] + step * np.arange(eval_times.size)
    ulp = np.spacing(np.max(np.abs(eval_times)))
    if np.max(np.abs(eval_times - fit)) <= _PROGRESSION_ULPS * ulp:
        return _chirp_z(wf, eval_times[0], step, eval_times.size, derivative)
    return _bin_sum(wf, eval_times, derivative)


def _nonzero_bins(wf: MasterWaveform, derivative: bool):
    """Integer indices of the nonzero bins and their amplitudes, times
    ``2j*pi*f`` for the time derivative."""
    nonzero = np.flatnonzero(wf.bin_amplitudes)
    freqs = wf.bin_frequencies[nonzero]
    amps = wf.bin_amplitudes[nonzero]
    if derivative:
        amps = amps * (2j * np.pi * freqs)
    return np.rint(freqs / wf.bin_frequencies[1]).astype(np.int64), amps


def _chirp_z(wf: MasterWaveform, t0: float, step: float, n: int, derivative: bool) -> np.ndarray:
    """The bin sum at ``t0 + i*step``, ``i < n``, as a chirp-z transform.

    In samples the times are ``u0 + i*r``; with ``M`` the master length and
    ``K`` the span of nonzero bins, bin ``j = k0 + k`` turns by
    ``j*u0/M + k0*i*r/M + k*i*r/M``, and ``k*i = (k^2 + i^2 - (i-k)^2) / 2``
    turns the last term into a convolution with the chirp
    ``c_m = r*m^2 / (2M)`` (Bluestein): three FFTs of a power-of-two length
    ``>= K + n - 1``.  Every phase splits off an exact integer part, taken
    modulo the period in integers (``p = round(r)``, ``i0 = round(u0)``), so
    only ``r - p``, ``u0 - i0`` and other small remainders meet floating
    point.  The result is the sum at the progression itself, within ~1e-15 of
    it for steps near a whole number of samples (every migrating caller); it
    differs from the sum at a caller's rounded times only by their few-ulp
    deviation from the progression.
    """
    m_len = wf.master_length
    j, amps = _nonzero_bins(wf, derivative)
    k0 = int(j.min())
    n_bins = int(j.max()) - k0 + 1
    u0, r = t0 * wf.sample_rate, step * wf.sample_rate
    i0, p = int(np.rint(u0)), int(np.rint(r))
    msq = np.arange(max(n_bins, n)) ** 2
    chirp = (p * (msq % (2 * m_len))) % (2 * m_len) / (2 * m_len) + (r - p) / (2 * m_len) * msq
    length = 1 << (n_bins + n - 2).bit_length()
    k = j - k0
    x = np.zeros(length, dtype=complex)
    x[k] = amps * np.exp(
        2j * np.pi * ((j * i0) % m_len / m_len + (u0 - i0) / m_len * j + chirp[k])
    )
    conj_chirp = np.exp(-2j * np.pi * chirp)
    kernel = np.zeros(length, dtype=complex)
    kernel[:n] = conj_chirp[:n]
    kernel[length - n_bins + 1 :] = conj_chirp[n_bins - 1 : 0 : -1]
    conv = np.fft.ifft(np.fft.fft(x) * np.fft.fft(kernel))[:n]
    i = np.arange(n)
    post = chirp[:n] + (k0 * p * i) % m_len / m_len + k0 * (r - p) / m_len * i
    return conv * np.exp(2j * np.pi * post) / np.sqrt(m_len)


def _bin_sum(wf: MasterWaveform, eval_times: np.ndarray, derivative: bool) -> np.ndarray:
    """Direct sum over the nonzero bins at arbitrary times.

    Serves only time sets that are neither on the lattice, at a common
    offset, nor an arithmetic progression; no shipped command reaches it.

    Bin ``k = k0 + B*a + b`` (``0 <= b < B``) factors its exponential as
    ``E_a(t) * F_b(t)``, so each chunk of times takes ``B + n_a``
    exponentials per time, one (times x B) @ (B x n_a) product and a
    row-wise dot, instead of one exponential per time and bin.
    """
    k, amps = _nonzero_bins(wf, derivative)
    df = wf.bin_frequencies[1]
    a, b = np.divmod(k - k.min(), _BIN_BLOCK)
    table = np.zeros((_BIN_BLOCK, a.max() + 1), dtype=complex)
    table[b, a] = amps
    outer = 2j * np.pi * ((k.min() + _BIN_BLOCK * np.arange(table.shape[1])) * df)
    inner = 2j * np.pi * (np.arange(_BIN_BLOCK) * df)
    out = np.empty(eval_times.shape, dtype=complex)
    chunk = max(1, int(1e6 // (_BIN_BLOCK + table.shape[1])))
    norm = 1.0 / np.sqrt(wf.master_length)
    for i in range(0, eval_times.size, chunk):
        t = eval_times[i : i + chunk, None]
        inner_sum = np.exp(t * inner) @ table
        out[i : i + chunk] = np.einsum("ij,ij->i", inner_sum, np.exp(t * outer)) * norm
    return out


def _delayed_times(req: SteeringRequest) -> np.ndarray:
    t = req.times
    if req.migrating:
        # delay drifts as tau - (doppler/carrier) * t
        return t - req.delay + (req.doppler / req.carrier) * t
    return t - req.delay


def evaluate(wf: MasterWaveform, req: SteeringRequest) -> np.ndarray:
    """Delayed (and optionally migrating) waveform samples, exact for any delay."""
    return _eval_times(wf, _delayed_times(req), derivative=False)


def evaluate_derivative(wf: MasterWaveform, req: SteeringRequest) -> np.ndarray:
    """d/d(delay) of the delayed samples: minus the waveform time derivative."""
    return -_eval_times(wf, _delayed_times(req), derivative=True)


def dft_vector(doppler: float, times) -> np.ndarray:
    """Unit-modulus Doppler phasing vector exp(j * doppler * t_n)."""
    return np.exp(1j * doppler * np.asarray(times, dtype=float))


def steering(wf: MasterWaveform, req: SteeringRequest) -> np.ndarray:
    """Delay-Doppler steering vector: delayed samples times the Doppler phasing."""
    return evaluate(wf, req) * dft_vector(req.doppler, req.times)


def steering_jacobian(
    wf: MasterWaveform, req: SteeringRequest, geometry_jacobian: np.ndarray = None
) -> np.ndarray:
    """Partial derivatives of the steering vector, shape (N, 2) or (N, 4).

    Columns are d/d(delay) and d/d(doppler).  With ``geometry_jacobian``
    (the 2x4 map from target state to (delay, doppler)), the chain rule
    produces the four target-state columns instead.
    """
    phasing = dft_vector(req.doppler, req.times)
    s_dot = _eval_times(wf, _delayed_times(req), derivative=True)
    d_tau = -s_dot * phasing
    d_omega = 1j * req.times * steering(wf, req)
    if req.migrating:
        d_omega = d_omega + (req.times / req.carrier) * s_dot * phasing
    cols = np.column_stack([d_tau, d_omega])
    if geometry_jacobian is None:
        return cols
    geometry_jacobian = np.asarray(geometry_jacobian, dtype=float)
    if geometry_jacobian.shape != (2, 4):
        raise ValueError("geometry_jacobian must have shape (2, 4)")
    return cols @ geometry_jacobian
