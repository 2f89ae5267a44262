"""Output checks for the benchmark, computed apart from the program.

Every check raises :class:`CheckFailure` with a message naming what was
wrong.  The independent computations here share no code with ``ecalab``:

* the recorded-reference steering vector is rebuilt from its definition
  (Kaiser-windowed sinc, half-width 16, beta 12, through
  ``scipy.special.i0``);
* the interference columns are the reference record read at the lagged
  sample instants;
* the projected spectrum comes from the least-squares identity
  ``P = ||Pi y||^2 - min_c ||y - [X | a] c||^2`` with ``numpy.linalg.lstsq``,
  so no projector is ever formed.

The remaining checks test properties the method must have: a simplex
started at a point never returns a worse one, the reference-noise excess is
positive semidefinite, the curvature matches finite differences of the
noise-free objective, and Monte Carlo errors are consistent with the
predicted covariance.
"""

from __future__ import annotations

import numpy as np
from scipy import special, stats

HALFWIDTH = 16
BETA = 12.0
# cleaned-steering energy share under which a hypothesis lies in the
# interference span and contributes nothing (the method's own threshold)
DEGENERATE_SHARE = 1e-8
IDENTITY_RTOL = 1e-8
IDENTITY_ATOL_SHARE = 1e-12  # of ||Pi y||^2, for cells far below the peak
CELLS_SAMPLED = 4  # surface cells per node checked against least squares


class CheckFailure(Exception):
    """An output of the program disagrees with its independent check."""


def _kaiser_sinc(x: np.ndarray) -> np.ndarray:
    inside = np.abs(x) <= HALFWIDTH
    r = np.where(inside, x / HALFWIDTH, 0.0)
    window = np.where(inside, special.i0(BETA * np.sqrt(1.0 - r * r)) / special.i0(BETA), 0.0)
    return np.sinc(x) * window


def steering(reference, n, tau, omega, dt, lead, carrier=None):
    """Recorded-reference steering at sample indices ``n``; None if the
    kernel would leave the record (the hypothesis is unsupported)."""
    n = np.asarray(n)
    times = n * dt
    pos = lead + n - tau / dt
    if carrier is not None:
        pos = pos + (omega / carrier) * times / dt
    if tau < 0 or pos.min() < HALFWIDTH - 1 or pos.max() > reference.size - HALFWIDTH:
        return None
    base = np.floor(pos).astype(np.int64)
    frac = pos - base
    offsets = np.arange(-HALFWIDTH + 1, HALFWIDTH + 1)
    taps = _kaiser_sinc(frac[:, None] - offsets[None, :])
    samples = reference[base[:, None] + offsets[None, :]]
    return np.sum(samples * taps, axis=1) * np.exp(1j * omega * times)


def interference_columns(reference, n, lead, taps):
    """Reference at the surveillance instants and its ``taps`` lagged copies."""
    n = np.asarray(n)
    return np.column_stack([reference[lead + n - l] for l in range(taps + 1)])


def _residual2(design, y):
    coef, *_ = np.linalg.lstsq(design, y, rcond=None)
    r = y - design @ coef
    return float(np.real(np.vdot(r, r)))


def ls_spectrum(reference, y, n, tau, omega, dt, lead, taps, carrier=None):
    """(value, cleaned energy ||Pi y||^2) by least squares; value is None for
    an unsupported or degenerate hypothesis."""
    cols = interference_columns(reference, n, lead, taps)
    cleaned = _residual2(cols, y)
    a = steering(reference, n, tau, omega, dt, lead, carrier)
    if a is None:
        return None, cleaned
    if _residual2(cols, a) < DEGENERATE_SHARE * float(np.real(np.vdot(a, a))):
        return None, cleaned
    return cleaned - _residual2(np.column_stack([cols, a]), y), cleaned


def batch_indices(n_samples, count, mode):
    """Sample indices of each batch: contiguous blocks or every count-th sample."""
    n = np.arange(n_samples)
    if mode == "sparse":
        return [n[b::count] for b in range(count)]
    q = n_samples // count
    return [n[b * q : (b + 1) * q] for b in range(count)]


def node_value(record, batches, tau, omega, taps, carrier=None):
    """Frame spectrum of one node summed over batches; unsupported -> 0."""
    total = 0.0
    for nb in batches:
        value, _ = ls_spectrum(
            record.reference,
            record.surveillance[nb],
            record.n_indices[nb],
            tau,
            omega,
            record.sample_interval,
            record.max_delay_samples,
            taps,
            carrier,
        )
        if value is None:
            return 0.0
        total += value
    return total


def check_close(reported, expected, what, rtol=IDENTITY_RTOL, atol=0.0):
    if not abs(reported - expected) <= rtol * abs(expected) + atol:
        raise CheckFailure(
            f"{what}: program gives {reported!r}, independent value {expected!r}"
        )


def check_converged(converged, what):
    if not converged:
        raise CheckFailure(f"{what}: estimate did not converge")


def check_not_below(value, floor, what, rtol=1e-9):
    """A simplex never returns a point worse than its start."""
    if value < floor - rtol * abs(floor):
        raise CheckFailure(f"{what}: objective {value!r} below its start value {floor!r}")


def mse_band(n, slack_db, tail=1e-6):
    """Range of MSE / predicted variance for ``n`` Gaussian errors: the
    chi-square quantiles at ``tail``, widened by the model tolerance."""
    slack = 10 ** (slack_db / 10)
    return stats.chi2.ppf(tail, n) / n / slack, stats.chi2.ppf(1 - tail, n) / n * slack


def check_mse(errors, variances, slack_db, names):
    """Empirical MSE of each parameter against the predicted variance."""
    errors = np.asarray(errors, dtype=float)
    lo, hi = mse_band(errors.shape[0], slack_db)
    ratios = np.mean(errors**2, axis=0) / np.asarray(variances, dtype=float)
    for name, ratio in zip(names, ratios):
        if not lo <= ratio <= hi:
            raise CheckFailure(
                f"MSE of {name} is {ratio:.3f} x the predicted variance over "
                f"{errors.shape[0]} estimates; band [{lo:.3f}, {hi:.3f}]"
            )


def check_standardized(errors, cov, limit):
    """Squared Mahalanobis distance of every error under ``cov``."""
    errors = np.atleast_2d(np.asarray(errors, dtype=float))
    d2 = np.einsum("ij,ij->i", errors @ np.linalg.inv(cov), errors)
    worst = int(np.argmax(d2))
    if not d2[worst] <= limit:
        raise CheckFailure(
            f"estimate {worst}: squared standardized error {d2[worst]:.1f} above {limit}"
        )


def check_psd(asymptotic_cov, crb, tol=1e-9):
    """The reference-noise excess asymptotic_cov - crb is PSD (unit-normalized)."""
    scale = 1.0 / np.sqrt(np.diag(asymptotic_cov))
    excess = (asymptotic_cov - crb) * np.outer(scale, scale)
    low = float(np.linalg.eigvalsh((excess + excess.T) / 2).min())
    if low < -tol:
        raise CheckFailure(f"asymptotic_cov - crb has eigenvalue {low:.3e} < 0")


def fd_hessian(f, x0, steps):
    """Central finite-difference Hessian (criterion 6's oracle)."""
    x0 = np.asarray(x0, dtype=float)
    dim = x0.size
    e = np.diag(np.asarray(steps, dtype=float))
    f0 = f(x0)
    out = np.empty((dim, dim))
    for i in range(dim):
        out[i, i] = (f(x0 + e[i]) - 2 * f0 + f(x0 - e[i])) / steps[i] ** 2
        for j in range(i):
            out[i, j] = out[j, i] = (
                f(x0 + e[i] + e[j]) - f(x0 + e[i] - e[j])
                - f(x0 - e[i] + e[j]) + f(x0 - e[i] - e[j])
            ) / (4 * steps[i] * steps[j])
    return out


def check_hessian(h, fd, tol=1e-3):
    """H (stored positive) against minus the finite-difference curvature."""
    scale = np.sqrt(np.outer(np.diag(h), np.diag(h)))
    worst = float(np.max(np.abs(h + fd) / scale))
    if not worst <= tol:
        raise CheckFailure(f"H deviates from finite differences by {worst:.2e} (tol {tol})")


def grid(step, lo, hi):
    """Grid points lo, lo+step, ... up to hi (inclusive)."""
    return lo + step * np.arange(int(np.floor((hi - lo) / step + 1e-9)) + 1)


def read_surface(path, n_tau, n_omega):
    """Read a surface CSV back as (tau, omega, values) grids of the given shape."""
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        try:
            table = np.loadtxt(fh, delimiter=",", ndmin=2)
        except ValueError as err:
            raise CheckFailure(f"{path}: {err}") from None
    if header != ["tau_s", "omega_rad_s", "value"]:
        raise CheckFailure(f"{path}: unexpected header {header}")
    if table.shape != (n_tau * n_omega, 3):
        raise CheckFailure(f"{path}: {table.shape[0]} rows, grid has {n_tau} x {n_omega}")
    cube = table.reshape(n_tau, n_omega, 3)
    return cube[:, 0, 0], cube[0, :, 1], cube[:, :, 2]


def check_surface_values(values, path):
    bad = ~(np.isnan(values) | (values >= 0))
    if bad.any():
        raise CheckFailure(f"{path}: {int(bad.sum())} cells negative or infinite")


def check_peak(tau_grid, omega_grid, values, truth, path):
    """The surface peak lies within one grid step of the true delay/Doppler."""
    if np.all(np.isnan(values)):
        raise CheckFailure(f"{path}: no valid cell")
    i, j = np.unravel_index(np.nanargmax(values), values.shape)
    d_tau = abs(tau_grid[i] - truth[0]) / (tau_grid[1] - tau_grid[0])
    d_omega = abs(omega_grid[j] - truth[1]) / (omega_grid[1] - omega_grid[0])
    if d_tau > 1 + 1e-9 or d_omega > 1 + 1e-9:
        raise CheckFailure(
            f"{path}: peak {d_tau:.2f} delay steps and {d_omega:.2f} Doppler steps from the truth"
        )


def check_surface(path, tau, omega, record, taps, carrier, rng, truth=None):
    """One surface CSV: the configured grid, values >= 0 or NaN, a seeded
    sample of cells against least squares (NaN exactly where the hypothesis
    is degenerate) and, given the truth, the peak position."""
    tau_read, omega_read, values = read_surface(path, tau.size, omega.size)
    scale = np.max(np.abs(omega))
    if not (np.allclose(tau_read, tau, rtol=1e-9, atol=0.0)
            and np.allclose(omega_read, omega, rtol=1e-9, atol=1e-9 * scale)):
        raise CheckFailure(f"{path}: grid differs from the configured one")
    check_surface_values(values, path)
    for _ in range(CELLS_SAMPLED):
        i, j = rng.integers(tau.size), rng.integers(omega.size)
        expected, cleaned = ls_spectrum(
            record.reference, record.surveillance, record.n_indices, tau[i], omega[j],
            record.sample_interval, record.max_delay_samples, taps, carrier,
        )
        cell = f"{path} cell ({i}, {j})"
        if expected is None or np.isnan(values[i, j]):
            if not (expected is None and np.isnan(values[i, j])):
                raise CheckFailure(f"{cell}: program {values[i, j]!r}, least squares {expected!r}")
            continue
        check_close(values[i, j], expected, cell, IDENTITY_RTOL, IDENTITY_ATOL_SHARE * cleaned)
    if truth is not None:
        check_peak(tau, omega, values, truth, path)
