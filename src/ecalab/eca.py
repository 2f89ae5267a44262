"""Projection-based interference cancellation and the cross-ambiguity spectrum.

The interference basis of a node is the reference capture itself together
with its lattice-delayed copies; projecting the surveillance signal onto the
orthogonal complement of their span removes direct-path leakage and clutter
in the least-squares sense.  The spectrum value at a delay/Doppler
hypothesis is the normalized matched-filter power of the cleaned signal
against the cleaned reference-derived steering vector:

    P(tau, omega) = |a_hat^H Pi y|^2 / (a_hat^H Pi a_hat)

with Pi the complement projector.  Scaling of the reference channel cancels
in both the projector and the quotient, which is why the reference-path
amplitude never needs to be known.  Every spectrum value goes through
:func:`projected_power`, with ``Pi y`` computed once per record or batch
when its interference basis is built.

Fractional delays of the recorded reference are produced by Kaiser-windowed
sinc interpolation (half-width 16, beta = 12); on a signal occupying 64% of
the Nyquist band its relative error is below -120 dB, far under every
tolerance used by the estimator or the statistical validation.  A delay
that does not drift shares one set of taps over all samples; a migrating
delay needs taps per sample, and a migrating surface computes them once per
Doppler bin for all delay rows a whole number of samples apart.  Per-sample
taps are one product with a Chebyshev table of every tap in the fractional
offset, fitted once at import from the Kaiser-sinc definition (which it
matches to ~4e-15); common-offset taps are evaluated from the definition,
and derivative taps from their closed forms.  The same
interpolation with the taps' first and second derivatives gives the frame
spectrum's gradient and Hessian in delay and Doppler in closed form
(:func:`frame_spectrum_derivatives`).  A static surface evaluates chunks of
delay rows over all Doppler bins through products with one phase matrix.

The estimator's products are small (a few thousand samples against a few
interference columns): a second BLAS thread costs more than it saves, and
its scheduling ties each evaluation's time to other load on the machine, so
the estimator and a migrating surface's per-bin products run under
:func:`single_threaded_blas`; a static surface's large products do not.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
from dataclasses import dataclass, replace
from math import factorial

import numpy as np
from numpy.polynomial.chebyshev import chebfit, chebpts1, chebvander
from numpy.polynomial.polynomial import polyval
from scipy.special import i0, i1

from .scene import NodeRecord, batch_slices, lagged_columns

INTERP_HALFWIDTH = 16
KAISER_BETA = 12.0
RANK_TOL = 1e-10
DEGENERATE_STEERING_TOL = 1e-8
# Migrating grid rows share per-sample taps when their delays differ by whole
# samples to within this many samples.  A chunk takes as many rows as a
# gather of their reference windows, (rows, Q, 2*W) complex, would fit in the
# byte budget; the windows are read as views, so the budget bounds the
# chunk's (rows, Q) steering block and its products at 1/(2*W) of it.
SHARED_TAPS_TOL = 1e-12
GATHER_BUDGET_BYTES = 1 << 25


class RankDeficiencyError(ValueError):
    """Reference-derived interference columns are numerically dependent."""


class DegenerateSteeringError(ValueError):
    """Steering vector lies (numerically) inside the interference span."""


class DelayRangeError(ValueError):
    """Requested delay outside the range supported by the recorded reference."""


@dataclass(frozen=True)
class InterferenceBasis:
    """Interference columns, a thin orthonormal factor of their span, and
    the record's surveillance signal with that span removed."""

    columns: np.ndarray  # (Q, L+1): [reference window | delayed windows]
    orthonormal: np.ndarray  # (Q, L+1), orthonormal columns, same span
    y_clean: np.ndarray  # (Q,): Pi y, the cleaned surveillance


@dataclass(frozen=True)
class AmbiguitySurface:
    """Spectrum sampled on a (delay, doppler) grid; NaN marks degenerate cells."""

    tau_grid: np.ndarray
    omega_grid: np.ndarray
    values: np.ndarray  # (n_tau, n_omega)
    node_index: int = 0

    def __post_init__(self):
        if self.values.shape != (len(self.tau_grid), len(self.omega_grid)):
            raise ValueError("values shape must match the grids")


@functools.cache
def _blas_thread_controls() -> tuple:
    """(get, set) thread-count functions of every OpenBLAS in this process.

    The libraries are found in the process's memory map (Linux); elsewhere,
    or for another BLAS, there are none and threading is left alone.
    """
    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({line.split(None, 5)[-1].strip() for line in fh if "openblas" in line})
    except OSError:
        return ()
    controls = []
    for path in paths:
        lib = ctypes.CDLL(path)
        for name in ("openblas", "scipy_openblas"):
            for suffix in ("", "64_"):
                get = getattr(lib, f"{name}_get_num_threads{suffix}", None)
                put = getattr(lib, f"{name}_set_num_threads{suffix}", None)
                if get is not None and put is not None:
                    controls.append((get, put))
    return tuple(controls)


@contextlib.contextmanager
def single_threaded_blas():
    """Run the enclosed calls (or the decorated function) with one BLAS
    thread; the previous thread counts are restored on exit."""
    saved = [(put, get()) for get, put in _blas_thread_controls()]
    for put, _ in saved:
        put(1)
    try:
        yield
    finally:
        for put, count in saved:
            put(count)


def _kaiser_sinc(offsets: np.ndarray) -> np.ndarray:
    """Interpolation taps at (fractional) offsets within the kernel half-width."""
    x = offsets / INTERP_HALFWIDTH
    return np.sinc(offsets) * (i0(KAISER_BETA * np.sqrt(1.0 - x * x)) / i0(KAISER_BETA))


# Offsets of the 2*W taps from a position's fractional part f: tap k sits at
# f - _TAP_OFFSETS[k] and multiplies reference sample floor(position) + k - W + 1.
_TAP_OFFSETS = np.arange(-INTERP_HALFWIDTH + 1, INTERP_HALFWIDTH + 1)
# Each tap is a smooth function of f in [0, 1); the table holds the Chebyshev
# coefficients in 2f - 1 of all 2*W taps, fitted at the Chebyshev nodes.  It
# reproduces _kaiser_sinc to ~4e-15 absolute over [0, 1) (degrees 16-26 all do).
_TAP_TABLE_DEGREE = 22
_TAP_NODES = chebpts1(_TAP_TABLE_DEGREE + 1)
_TAP_TABLE = chebfit(
    _TAP_NODES, _kaiser_sinc((_TAP_NODES[:, None] + 1) / 2 - _TAP_OFFSETS), _TAP_TABLE_DEGREE
)


# Power-series coefficients (ten terms reach double precision where they are
# used): sinc'(u) = -pi^2 u S1(v), sinc''(u) = -pi^2 S2(v) with v = (pi u)^2,
# for |u| < 1/4; I1(z)/z = B1(q), I2(z)/z^2 = B2(q) with q = z^2/4, for z^2 < 1.
_SINC1 = np.array([(-1) ** j * (2 * j + 2) / factorial(2 * j + 3) for j in range(10)])
_SINC2 = np.array([(-1) ** j * (2 * j + 2) * (2 * j + 1) / factorial(2 * j + 3)
                   for j in range(10)])
_BESSEL1 = np.array([0.5 / (factorial(j) * factorial(j + 1)) for j in range(10)])
_BESSEL2 = np.array([0.25 / (factorial(j) * factorial(j + 2)) for j in range(10)])


def _kaiser_sinc_derivatives(offsets: np.ndarray) -> tuple:
    """First and second derivatives of :func:`_kaiser_sinc` in the offset.

    With ``u`` the offset, ``sinc' = (cos(pi u) - sinc u) / u`` and
    ``sinc'' = -pi^2 sinc - 2 sinc' / u``.  The window
    ``w = I0(z) / I0(beta)``, ``z = beta sqrt(1 - (u/W)^2)``, has
    ``w' = -c u g / I0(beta)`` and ``w'' = -c (g - c u^2 k) / I0(beta)`` with
    ``c = (beta/W)^2``, ``g = I1(z)/z`` and ``k = I2(z)/z^2 = (I0(z) - 2g)/z^2``.
    Power series replace the closed forms where these cancel: near ``u = 0``
    (limits 0 and -pi^2/3) and near ``|u| = W``, where ``z -> 0``.
    """
    u = np.asarray(offsets, dtype=float)
    sinc = np.sinc(u)
    near = np.abs(u) < 0.25
    safe_u = np.where(near, 1.0, u)
    d1 = (np.cos(np.pi * u) - sinc) / safe_u
    d2 = -np.pi**2 * sinc - 2 * d1 / safe_u
    if near.any():
        v = (np.pi * u[near]) ** 2
        d1[near] = -np.pi**2 * u[near] * polyval(v, _SINC1)
        d2[near] = -np.pi**2 * polyval(v, _SINC2)

    x = u / INTERP_HALFWIDTH
    zz = KAISER_BETA**2 * (1.0 - x * x)
    z = np.sqrt(zz)
    edge = zz < 1.0
    safe_z = np.where(edge, 1.0, z)
    i0z = i0(z)
    g = i1(safe_z) / safe_z
    k = (i0z - 2 * g) / (safe_z * safe_z)
    if edge.any():
        q = zz[edge] / 4
        g[edge] = polyval(q, _BESSEL1)
        k[edge] = polyval(q, _BESSEL2)
    c = (KAISER_BETA / INTERP_HALFWIDTH) ** 2
    norm = i0(KAISER_BETA)
    w = i0z / norm
    w1 = -c * u * g / norm
    w2 = -c * (g - c * u * u * k) / norm
    return d1 * w + sinc * w1, d2 * w + 2 * d1 * w1 + sinc * w2


def _tap_sets(offsets: np.ndarray, derivatives: bool) -> tuple:
    """Kaiser-sinc taps at ``offsets``, followed by the first- and
    second-derivative taps when ``derivatives``."""
    taps = _kaiser_sinc(offsets)
    return (taps, *_kaiser_sinc_derivatives(offsets)) if derivatives else (taps,)


def _check_support(lo: float, hi: float, size: int) -> None:
    """Raise :class:`DelayRangeError` unless the kernel stays inside the record."""
    if not (lo >= INTERP_HALFWIDTH - 1 and hi < size - INTERP_HALFWIDTH):
        raise DelayRangeError(
            f"interpolation positions [{lo:.2f}, {hi:.2f}] outside supported "
            f"range [{INTERP_HALFWIDTH - 1}, {size - INTERP_HALFWIDTH}]"
        )


def _sample_taps(positions: np.ndarray) -> tuple:
    """Lower sample index, fractional part and Kaiser-sinc taps, (size, 2*W),
    of every position; the taps are one product with the tap table."""
    base = np.floor(positions).astype(np.int64)
    frac = positions - base
    return base, frac, chebvander(2 * frac - 1, _TAP_TABLE_DEGREE) @ _TAP_TABLE


def _windows(reference: np.ndarray) -> np.ndarray:
    """Every run of 2*W consecutive reference samples, as a strided view."""
    return np.lib.stride_tricks.sliding_window_view(reference, 2 * INTERP_HALFWIDTH)


def interpolate_reference(reference: np.ndarray, positions: np.ndarray) -> np.ndarray:
    """Bandlimited interpolation of the reference record at fractional positions.

    ``positions`` are in sample units relative to the first stored sample;
    every position gets its own taps.  Raises :class:`DelayRangeError` when
    the kernel support would leave the record.
    """
    positions = np.asarray(positions, dtype=float)
    if positions.size == 0:
        return np.zeros(0, dtype=complex)
    return _interpolate(reference, positions, derivatives=False)[0]


def _interpolate(reference: np.ndarray, positions: np.ndarray, derivatives: bool) -> tuple:
    """Per-sample interpolation at ``positions`` with the table taps of
    :func:`_sample_taps`, followed when ``derivatives`` by the closed-form
    derivative taps, which give derivatives in the position."""
    _check_support(positions.min(), positions.max(), reference.size)
    base, frac, taps = _sample_taps(positions)
    windows = _windows(reference)[base - INTERP_HALFWIDTH + 1]
    tap_sets = [taps]
    if derivatives:
        tap_sets += _kaiser_sinc_derivatives(frac[:, None] - _TAP_OFFSETS)
    return [np.einsum("ij,ij->i", windows, t) for t in tap_sets]


def interference_basis(record: NodeRecord, n_taps: int) -> InterferenceBasis:
    """Interference columns [x | delayed x] of a record (or batch view).

    Column l is the reference at the record's sample instants delayed by l
    lattice steps; the orthonormal factor comes from a thin QR with a rank
    check.  The record's surveillance is projected here, once.  Raises
    ``ValueError`` when ``n_taps`` exceeds the record's ``max_delay_samples``,
    as the earliest lags would then read before the first stored reference
    sample.
    """
    if n_taps > record.max_delay_samples:
        raise ValueError(
            f"n_taps ({n_taps}) exceeds the record's max_delay_samples "
            f"({record.max_delay_samples})"
        )
    if record.reference.size < record.n_indices.size + n_taps:
        raise ValueError("reference record too short for the requested tap count")
    cols = lagged_columns(record.reference, record.max_delay_samples + record.n_indices, n_taps)
    q, r = np.linalg.qr(cols, mode="reduced")
    diag = np.abs(np.diag(r))
    if np.min(diag) < RANK_TOL * np.linalg.norm(cols):
        raise RankDeficiencyError(
            f"interference columns are rank deficient (min pivot {np.min(diag):.3e})"
        )
    y = record.surveillance
    return InterferenceBasis(columns=cols, orthonormal=q, y_clean=y - q @ (q.conj().T @ y))


def project_out(basis: InterferenceBasis, vectors: np.ndarray) -> np.ndarray:
    """Remove the interference-span component: v - U (U^H v).

    Works on a single vector or a (Q, m) stack of columns; the full
    projector matrix is never formed.
    """
    u = basis.orthonormal
    return vectors - u @ (u.conj().T @ vectors)


def _delayed_reference(record, n_lo, count, tau, omega, migrating, carrier, derivatives=False):
    """Reference interpolated at the delayed positions of samples
    ``n_lo .. n_lo+count-1``: ``(s0,)``, or ``(s0, s1, s2)`` with the first- and
    second-derivative taps when ``derivatives`` (derivatives in the position).

    Unless the delay drifts (migration at nonzero Doppler), all samples share
    the fractional offset of ``tau`` and each set of taps slides over one
    reference span.
    """
    if migrating and not carrier:
        raise ValueError("migrating steering requires the carrier frequency")
    if tau < 0:
        raise DelayRangeError(f"delay must be non-negative, got {tau:.3e} s")
    dt = record.sample_interval
    if migrating and omega != 0.0:
        n = np.arange(n_lo, n_lo + count)
        lattice = n - tau / dt + (omega / carrier) * (n * dt) / dt
        return _interpolate(record.reference, record.max_delay_samples + lattice, derivatives)
    shift = record.max_delay_samples - tau / dt
    _check_support(shift + n_lo, shift + n_lo + count - 1, record.reference.size)
    base = int(np.floor(shift))
    W = INTERP_HALFWIDTH
    start = base + n_lo - W + 1
    span = record.reference[start : start + count + 2 * W - 1]
    taps = _tap_sets((shift - base) - _TAP_OFFSETS, derivatives)
    return [np.correlate(span, t, "valid") for t in taps]


def _window_steering(record, n_lo, count, tau, omega, migrating, carrier) -> np.ndarray:
    """Steering at samples ``n_lo .. n_lo+count-1``."""
    (delayed,) = _delayed_reference(record, n_lo, count, tau, omega, migrating, carrier)
    return delayed * np.exp(1j * omega * (np.arange(n_lo, n_lo + count) * record.sample_interval))


def _take(window: np.ndarray, n_lo: int, n_indices: np.ndarray) -> np.ndarray:
    """Samples ``n_indices`` of a window (last axis) that starts at sample ``n_lo``."""
    return window if window.shape[-1] == n_indices.size else window[..., n_indices - n_lo]


def rc_steering(
    record: NodeRecord,
    tau: float,
    omega: float,
    migrating: bool = False,
    carrier: float = None,
) -> np.ndarray:
    """Steering vector built from the recorded reference channel.

    Fractionally delayed reference samples, Doppler phased; with
    ``migrating`` the delay drifts at the rate implied by the Doppler shift
    and the carrier, and every sample gets its own interpolation taps.
    """
    n = record.n_indices
    window = _window_steering(record, n[0], n[-1] - n[0] + 1, tau, omega, migrating, carrier)
    return _take(window, n[0], n)


def projected_power(x: np.ndarray, u: np.ndarray, y_clean: np.ndarray) -> float:
    """Cleaned cross-ambiguity value ``|x^H y_c|^2 / (||x||^2 - ||U^H x||^2)``.

    ``u`` holds orthonormal interference columns and ``y_clean = Pi y``; as
    Pi is Hermitian and idempotent this is ``|(Pi x)^H y|^2 / ||Pi x||^2``.
    Raises :class:`DegenerateSteeringError` under the degenerate tolerance.
    """
    xh = x.conj()
    norm2 = float(np.real(xh @ x))
    denom = norm2 - float(np.sum(np.abs(xh @ u) ** 2))
    _check_degenerate(denom, norm2)
    return float(np.abs(xh @ y_clean) ** 2 / denom)


def _check_degenerate(denom: float, norm2: float) -> None:
    """Raise :class:`DegenerateSteeringError` when the cleaned steering energy
    ``denom`` is under the degenerate tolerance of the energy ``norm2``."""
    if denom < DEGENERATE_STEERING_TOL * norm2:
        raise DegenerateSteeringError(f"cleaned steering energy {denom:.3e} below tolerance")


def spectrum_value(y: np.ndarray, basis: InterferenceBasis, steer: np.ndarray) -> float:
    """Interference-cleaned, normalized cross-ambiguity value (>= 0).

    Raises :class:`DegenerateSteeringError` when the cleaned steering energy
    falls under the degenerate-steering tolerance (hypothesis inside the
    interference span; callers treating the point as missing add zero).
    """
    return projected_power(steer, basis.orthonormal, project_out(basis, y))


def _shared_tap_groups(delays: np.ndarray) -> list:
    """Split delay rows (in samples) into groups whose members differ from
    the group's first row by whole samples, to within ``SHARED_TAPS_TOL``.

    Returns ``(rows, whole)`` pairs: the rows of a group and their whole-sample
    offsets from its first row.  Offsets are compared modulo 1, so fractional
    parts just below 1 and just above 0 fall in one group.
    """
    groups = []
    free = np.ones(delays.size, dtype=bool)
    while free.any():
        first = np.flatnonzero(free)[0]
        diff = delays - delays[first]
        whole = np.rint(diff)
        rows = np.flatnonzero(free & (np.abs(diff - whole) <= SHARED_TAPS_TOL))
        free[rows] = False
        groups.append((rows, whole[rows].astype(np.int64)))
    return groups


def _runs(starts: np.ndarray) -> tuple:
    """Split ascending sample indices into runs of equal spacing.

    Returns the spacing (the most frequent gap, at least 1) and the
    ``(lo, hi)`` bounds of each run; every index whose gap from its
    predecessor differs from the spacing begins a new run.
    """
    gaps = np.diff(starts)
    values, counts = np.unique(gaps, return_counts=True)
    step = max(int(values[counts.argmax()]), 1) if gaps.size else 1
    bounds = np.concatenate(([0], np.flatnonzero(gaps != step) + 1, [starts.size]))
    return step, list(zip(bounds[:-1], bounds[1:]))


def _grid_steering(record, tau_grid, omega, carrier):
    """Migrating steering of every delay row at one Doppler (``carrier`` is
    unused at zero Doppler), yielded as ``(rows, x)`` chunks, ``x`` (rows, Q).

    Rows whose delays differ by whole samples share one set of taps and only
    shift their reference windows.  At zero Doppler the delay does not drift:
    a group's rows share one common offset and are slices of one correlation.
    Otherwise the taps are per sample, from the tap table; the lower sample
    indices of the drifting positions advance by one spacing except where
    the drift crosses a whole sample, so each row reads its windows as one
    strided view of :func:`_windows` per run of equally spaced indices, with
    no copy.
    """
    if tau_grid.size and tau_grid.min() < 0:
        raise DelayRangeError(f"delay must be non-negative, got {tau_grid.min():.3e} s")
    W = INTERP_HALFWIDTH
    n = record.n_indices
    dt = record.sample_interval
    times = n * dt
    drift = (omega / carrier) * times / dt if omega else 0.0
    phase = np.exp(1j * omega * times)
    windows = _windows(record.reference)
    chunk = max(1, GATHER_BUDGET_BYTES // (windows[0].nbytes * n.size))
    delays = tau_grid / dt
    for rows, whole in _shared_tap_groups(delays):
        positions = record.max_delay_samples + (n - delays[rows[0]] + drift)
        _check_support(
            positions.min() - whole.max(), positions.max() - whole.min(), record.reference.size
        )
        if omega == 0.0:
            shift = record.max_delay_samples - delays[rows[0]]
            base = int(np.floor(shift))
            taps = _kaiser_sinc((shift - base) - _TAP_OFFSETS)
            lo = base + n[0] - whole.max() - W + 1
            span = record.reference[lo : base + n[-1] - whole.min() + W + 1]
            corr = np.correlate(span, taps, "valid")  # window starting at lo + m
            starts = base + n - W + 1 - lo
            for i in range(0, rows.size, chunk):
                yield rows[i : i + chunk], corr[starts - whole[i : i + chunk, None]]
            continue
        base, _, taps = _sample_taps(positions)
        taps = taps.astype(complex)  # cast once here, not by einsum in every row
        step, runs = _runs(base)
        for i in range(0, rows.size, chunk):
            x = np.empty((min(chunk, rows.size - i), n.size), dtype=complex)
            for r, shift in enumerate(whole[i : i + chunk]):
                for lo, hi in runs:
                    start = base[lo] - W + 1 - shift
                    view = windows[start : start + step * (hi - lo - 1) + 1 : step]
                    np.einsum("qt,qt->q", view, taps[lo:hi], out=x[r, lo:hi])
            x *= phase
            yield rows[i : i + chunk], x


def _quotient(numer: np.ndarray, denom: np.ndarray, norm2: np.ndarray) -> np.ndarray:
    """``numer / denom``, NaN where the steering fails the rule of :func:`projected_power`."""
    ok = denom >= DEGENERATE_STEERING_TOL * norm2
    return np.where(ok, numer, np.nan) / np.where(ok, denom, 1.0)


def _stacked_power(x: np.ndarray, basis: InterferenceBasis) -> np.ndarray:
    """:func:`projected_power` of each row of ``x`` through matrix products;
    NaN where the steering is degenerate."""
    xh = x.conj()
    norm2 = np.einsum("rq,rq->r", xh, x).real
    denom = norm2 - np.sum(np.abs(xh @ basis.orthonormal) ** 2, axis=1)
    return _quotient(np.abs(xh @ basis.y_clean) ** 2, denom, norm2)


def spectrum_grid(
    record: NodeRecord,
    basis: InterferenceBasis,
    tau_grid: np.ndarray,
    omega_grid: np.ndarray,
    migrating: bool = False,
    carrier: float = None,
) -> AmbiguitySurface:
    """Spectrum over a full (delay, doppler) grid of a record and its basis.

    Delay rows a whole number of samples apart (to within ``SHARED_TAPS_TOL``
    = 1e-12 samples) share one set of Kaiser-sinc taps; rows come in chunks
    under ``GATHER_BUDGET_BYTES``.  Without migration a chunk ``X`` of
    zero-Doppler rows (slices of one correlation) and the (Q, n_omega) phase
    matrix ``Phi = exp(j t omega)`` give ``|(X * conj(y_c)) @ Phi|^2`` over
    ``||x||^2 - sum_l |(X * conj(u_l)) @ Phi|^2``, one product per factor.
    With migration each Doppler bin takes one pass over all delays with
    per-sample taps from the tap table, under :func:`single_threaded_blas`.
    Degenerate cells are NaN, by the rule of :func:`projected_power`.
    """
    if migrating and not carrier:
        raise ValueError("migrating steering requires the carrier frequency")
    tau_grid = np.asarray(tau_grid, dtype=float)
    omega_grid = np.asarray(omega_grid, dtype=float)
    values = np.full((tau_grid.size, omega_grid.size), np.nan)
    if migrating:
        with single_threaded_blas():
            for j, omega in enumerate(omega_grid):
                for rows, x in _grid_steering(record, tau_grid, omega, carrier):
                    values[rows, j] = _stacked_power(x, basis)
        return AmbiguitySurface(tau_grid, omega_grid, values, record.node_index)
    phases = np.exp(1j * np.outer(record.times, omega_grid))  # (Q, n_omega)
    yh, uh = basis.y_clean.conj(), basis.orthonormal.conj().T
    for rows, x in _grid_steering(record, tau_grid, 0.0, carrier):
        norm2 = np.einsum("rq,rq->r", x.conj(), x).real[:, None]
        denom = norm2 - sum(np.abs((x * u) @ phases) ** 2 for u in uh)
        values[rows] = _quotient(np.abs((x * yh) @ phases) ** 2, denom, norm2)
    return AmbiguitySurface(tau_grid, omega_grid, values, record.node_index)


def batch_split(record: NodeRecord, m_batches: int, mode: str = "consecutive") -> list:
    """Split a record into batch views sharing the full-rate reference.

    The batches are those of :func:`ecalab.scene.batch_slices`; one batch
    is the record itself.
    """
    slices = batch_slices(record.n_indices.size, m_batches, mode)
    if m_batches == 1:
        return [record]
    return [
        replace(record, surveillance=record.surveillance[sel], n_indices=record.n_indices[sel])
        for sel in slices
    ]


def frame_spectrum(
    batches: list,
    bases: list,
    tau: float,
    omega: float,
    migrating: bool = False,
    carrier: float = None,
) -> float:
    """Incoherent sum of per-batch spectrum values at one hypothesis.

    The steering is built once over the node's whole window and each batch
    takes its own samples; cancellation is independent per batch.  Errors
    (degenerate steering, out-of-range delay) propagate to the caller.
    """
    n_lo, count = _frame_window(batches)
    window = _window_steering(batches[0], n_lo, count, tau, omega, migrating, carrier)
    return sum(
        projected_power(_take(window, n_lo, b.n_indices), basis.orthonormal, basis.y_clean)
        for b, basis in zip(batches, bases)
    )


def _frame_window(batches: list) -> tuple:
    """First sample and length of the window spanning every batch."""
    n_lo = min(b.n_indices[0] for b in batches)
    return n_lo, max(b.n_indices[-1] for b in batches) - n_lo + 1


# entries of the stacked steering derivatives: first[p], second[p][q]
_FIRST = np.array([1, 2])
_SECOND = np.array([[3, 4], [4, 5]])


def frame_spectrum_derivatives(
    batches: list,
    bases: list,
    tau: float,
    omega: float,
    migrating: bool = False,
    carrier: float = None,
) -> tuple:
    """:func:`frame_spectrum` with its gradient (2,) and Hessian (2, 2) in
    ``(tau, omega)``, as ``(value, gradient, hessian)``.

    With ``s_k`` the reference interpolated with the k-th derivative taps,
    ``phi = exp(j omega t)`` and ``kappa = t / (carrier dt)`` (0 without
    migration), the steering and its derivatives are ``x = s0 phi``,
    ``x_tau = -s1 phi / dt``, ``x_omega = (kappa s1 + j t s0) phi``,
    ``x_tautau = s2 phi / dt^2``, ``x_tauomega = -(kappa s2 + j t s1) phi / dt``
    and ``x_omegaomega = (kappa^2 s2 + 2 j t kappa s1 - t^2 s0) phi``.  Per
    batch the six are stacked and multiplied once against ``y_c``, once
    against ``U`` and once against the first three; the derivatives of
    ``N / D`` with ``N = |x^H y_c|^2`` and ``D = x^H Pi x`` follow from
    those products.  The truncated kernel's derivatives jump (by ~3e-6) where
    the delayed positions cross whole samples.  Raises as :func:`frame_spectrum`.
    """
    n_lo, count = _frame_window(batches)
    record = batches[0]
    s0, s1, s2 = _delayed_reference(
        record, n_lo, count, tau, omega, migrating, carrier, derivatives=True
    )
    dt = record.sample_interval
    t = np.arange(n_lo, n_lo + count) * dt
    phase = np.exp(1j * omega * t)
    stack = np.empty((6, count), dtype=complex)  # written in place: no temporaries
    x, x_tau, x_omega, x_tautau, x_tauomega, x_omegaomega = stack
    np.multiply(s0, phase, out=x)
    np.multiply(s1, phase * (-1 / dt), out=x_tau)
    np.multiply(s2, phase * dt**-2, out=x_tautau)
    # d/domega acts as j t (the Doppler phase) minus (t / carrier) d/dtau (the
    # delay drift), which gives the formulas above
    jt = 1j * t
    for out, v, v_tau in (
        (x_omega, x, x_tau),
        (x_tauomega, x_tau, x_tautau),
        (x_omegaomega, x_omega, x_tauomega),
    ):
        np.multiply(jt, v, out=out)
        if migrating:
            out -= (t / carrier) * v_tau
    value, gradient, hessian = 0.0, np.zeros(2), np.zeros((2, 2))
    for b, basis in zip(batches, bases):
        v = _take(stack, n_lo, b.n_indices)
        vh = v.conj()
        a = vh @ basis.y_clean  # v_i^H y_c
        c = vh @ basis.orthonormal  # (U^H v_i)^H
        gram = vh[:3] @ v.T
        pi = gram - c[:3] @ c.conj().T  # v_i^H Pi v_j, i < 3
        norm2, denom = gram[0, 0].real, pi[0, 0].real
        _check_degenerate(denom, norm2)
        ap = a[_FIRST]
        n_g = 2 * np.real(ap * np.conj(a[0]))
        n_h = 2 * np.real(a[_SECOND] * np.conj(a[0]) + np.outer(ap, ap.conj()))
        d_g = 2 * np.real(pi[0, _FIRST])
        d_h = 2 * np.real(pi[1:3, 1:3] + pi[0, _SECOND])
        f = abs(a[0]) ** 2 / denom
        value += f
        gradient += (n_g - f * d_g) / denom
        cross = np.outer(n_g, d_g)
        hessian += (n_h - f * d_h - (cross + cross.T - 2 * f * np.outer(d_g, d_g)) / denom) / denom
    return value, gradient, hessian


def default_tau_grid(record: NodeRecord, step_cells: float = 0.25) -> np.ndarray:
    """Delay grid over the supported range, quarter-sample steps by default."""
    dt = record.sample_interval
    hi = (record.max_delay_samples - INTERP_HALFWIDTH) * dt
    return np.arange(0.0, hi + 1e-12 * dt, step_cells * dt)


def default_omega_grid(
    record: NodeRecord, halfspan_cells: float = None, step_cells: float = 0.25
) -> np.ndarray:
    """Doppler grid in cells of 2*pi / observation span."""
    span = (record.n_indices.max() - record.n_indices.min() + 1) * record.sample_interval
    cell = 2 * np.pi / span
    if halfspan_cells is None:
        halfspan_cells = 16.0
    return np.arange(-halfspan_cells, halfspan_cells + 1e-9, step_cells) * cell
