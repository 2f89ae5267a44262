"""Delay/Doppler estimation per node and global target-state estimation.

Per node the spectrum is maximized over (delay, doppler); at the fusion
level the per-node spectra are summed at the delay/Doppler pairs implied by
a hypothesized target state and the sum is maximized over the
four-dimensional state.  Both work in scaled coordinates (delay in samples,
Doppler in resolution cells, position in meters, velocity in m/s) so step
sizes are comparable across components.

A single node is refined by :func:`refine`, a trust-region Newton ascent on
the closed-form gradient and Hessian of the frame spectrum
(:func:`ecalab.eca.frame_spectrum_derivatives`); it reports ``converged``
only where the Hessian is negative definite and the Newton step is under
the tolerance.  The fused four-dimensional objective keeps a Nelder-Mead
simplex (:func:`_simplex_refine`, started with ``initial_step``): a node
whose echo is cancelled sits on its degenerate-steering boundary, where
the hypotheses it cannot support contribute zero and the objective is not
smooth.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize

from . import eca
from .geometry import TargetParams, doppler_from_rate, theta_to_delay_doppler
from .scene import Scenario

DEFAULT_MAX_ITERATIONS = 400
DEFAULT_TOLERANCE = 1e-8
DEFAULT_INITIAL_STEP = 0.25
# Newton refinement: the trust radius at the start (scaled units), and the
# fall of the objective, relative to its size, that is still rounding
INITIAL_RADIUS = 1.0
ROUNDING = 64 * np.finfo(float).eps
UNSUPPORTED = (eca.DelayRangeError, eca.DegenerateSteeringError)


class AllMissingError(ValueError):
    """Every cell of the surface is degenerate; nothing to pick."""


@dataclass(frozen=True)
class RefineResult:
    point: np.ndarray
    value: float
    iterations: int
    converged: bool
    n_evaluations: int


@dataclass(frozen=True)
class EstimateReport:
    """Outcome of one estimation run."""

    mode: str  # "delay_doppler" or "theta"
    params: np.ndarray  # (tau, omega) or (x, y, vx, vy)
    per_node: np.ndarray  # (K, 2) mapped delay/Doppler pairs
    theta: TargetParams  # None in delay_doppler mode
    objective: float
    iterations: int
    converged: bool
    init_mode: str
    init_params: np.ndarray
    evaluations: int = 0  # objective evaluations of the refinement


def peak_pick(surface: eca.AmbiguitySurface) -> tuple:
    """Argmax cell of a surface; ties break to the smallest delay, then Doppler."""
    values = surface.values
    if np.all(np.isnan(values)):
        raise AllMissingError("surface has no valid cells")
    best = np.nanmax(values)
    ti, oi = np.argwhere(values == best)[0]  # row-major: smallest tau, then omega
    return float(surface.tau_grid[ti]), float(surface.omega_grid[oi])


def _trust_region_step(gradient, hessian, radius) -> tuple:
    """Maximizer of the model ``g.s + s.H.s / 2`` over ``||s|| <= radius``,
    and whether it is the Newton step ``-H^-1 g``.

    Off the Newton step the maximizer is ``(lam I - H)^-1 g`` on the
    boundary, ``lam > max(0, largest eigenvalue)``; ``lam`` is bisected until
    the step is within 10% of the radius.  Where ``g`` has (almost) no
    component along the top eigenvector, the step falls short of the radius
    for every ``lam``, and that eigenvector fills it out.
    """
    e, q = np.linalg.eigh(hessian)
    g = q.T @ gradient
    if e[-1] < 0:
        step = q @ (g / -e)
        if np.linalg.norm(step) <= radius:
            return step, True
    if not g.any():
        return radius * q[:, -1], False
    lo = max(e[-1], 0.0)
    hi = lo + np.linalg.norm(g) / radius  # ||step(hi)|| <= radius
    for _ in range(60):
        step = q @ (g / (hi - e))
        if np.linalg.norm(step) >= 0.9 * radius:
            return step, False
        lam = 0.5 * (lo + hi)
        if lam == lo:
            break
        if np.linalg.norm(g / (lam - e)) > radius:
            lo = lam
        else:
            hi = lam
    return step + np.sqrt(radius**2 - step @ step) * q[:, -1], False


def refine(
    objective,
    init_point,
    scales,
    max_iterations: int = DEFAULT_MAX_ITERATIONS,
    tolerance: float = DEFAULT_TOLERANCE,
) -> RefineResult:
    """Maximize ``objective`` by trust-region Newton ascent in scaled coordinates.

    ``objective(point)`` returns the value, gradient and Hessian at a point
    in the caller's units and may raise ``DelayRangeError`` or
    ``DegenerateSteeringError`` where the point is unsupported; the search
    works on ``point / scales``.  Each iteration evaluates one trial step:
    the Newton step when the Hessian is negative definite and the step fits
    the trust radius, else the model's maximizer on the radius.  A trial is
    accepted unless it is unsupported or lowers the value by more than the
    objective's rounding (``64 eps |f|``).  The radius doubles after an
    accepted boundary step that gained over 3/4 of the model's prediction,
    and shrinks to a quarter of a step that gained under 1/4 or was
    rejected.

    The search stops once a Newton step shorter than ``tolerance`` has been
    taken (``converged``: the Hessian was negative definite and the scaled
    Newton step under ``tolerance``), after a rejected step shorter than
    ``tolerance``, or after ``max_iterations`` trial steps.  An unsupported
    start returns the start with value 0.
    """
    scales = np.asarray(scales, dtype=float)
    cross = np.outer(scales, scales)

    def scaled(z):
        value, gradient, hessian = objective(z * scales)
        return value, gradient * scales, hessian * cross

    z = np.asarray(init_point, dtype=float) / scales
    try:
        f, g, h = scaled(z)
    except UNSUPPORTED:
        return RefineResult(z * scales, 0.0, 0, False, 1)
    radius = INITIAL_RADIUS
    converged = False
    iterations = 0
    for iterations in range(1, max_iterations + 1):
        step, newton = _trust_region_step(g, h, radius)
        length = np.linalg.norm(step)
        converged = newton and length < tolerance
        try:
            trial = scaled(z + step)
        except UNSUPPORTED:
            trial = None
        if trial is not None and trial[0] >= f - ROUNDING * abs(f):
            predicted = g @ step + 0.5 * step @ h @ step
            gain = (trial[0] - f) / predicted if predicted > 0 else 0.0
            if gain > 0.75 and length > 0.99 * radius:
                radius *= 2.0
            elif gain < 0.25:
                radius = 0.25 * length
            z = z + step
            f, g, h = trial
        elif length < tolerance:
            break
        else:
            radius = 0.25 * length
        if converged:
            break
    return RefineResult(z * scales, f, iterations, converged, iterations + 1)


def _simplex_refine(
    objective,
    init_point,
    scales,
    max_iterations: int = DEFAULT_MAX_ITERATIONS,
    tolerance: float = DEFAULT_TOLERANCE,
    initial_step=DEFAULT_INITIAL_STEP,
) -> RefineResult:
    """Maximize ``objective`` with a Nelder-Mead simplex in scaled coordinates.

    Standard simplex coefficients (reflection 1, expansion 2, contraction
    and shrink 0.5); stops when the scaled simplex diameter drops under
    ``tolerance`` or after ``max_iterations``.  Deterministic given the
    starting point.
    """
    scales = np.asarray(scales, dtype=float)
    x0 = np.asarray(init_point, dtype=float) / scales
    step = np.broadcast_to(np.asarray(initial_step, dtype=float), x0.shape)
    simplex = np.vstack([x0, x0 + np.diag(step)])

    def negated(z):
        return -objective(z * scales)

    res = minimize(
        negated,
        x0,
        method="Nelder-Mead",
        options={
            "initial_simplex": simplex,
            "xatol": tolerance,
            "fatol": np.inf,
            "maxiter": max_iterations,
            "adaptive": False,
        },
    )
    return RefineResult(
        point=res.x * scales,
        value=-res.fun,
        iterations=res.nit,
        converged=bool(res.success),
        n_evaluations=res.nfev,
    )


def prepare_node_data(scenario: Scenario, records: list) -> list:
    """Batch views and interference bases for every node."""
    data = []
    for record in records:
        batches = eca.batch_split(record, scenario.m_batches, scenario.batch_mode)
        bases = [eca.interference_basis(b, scenario.clutter_taps) for b in batches]
        data.append((batches, bases))
    return data


def node_objective(
    scenario: Scenario, node_data, k: int, tau: float, omega: float
) -> float:
    """Frame spectrum of node ``k``; zero when the hypothesis is unsupported."""
    batches, bases = node_data[k]
    try:
        return eca.frame_spectrum(
            batches,
            bases,
            tau,
            omega,
            scenario.migration,
            scenario.nodes[k].carrier_angular_frequency,
        )
    except UNSUPPORTED:
        return 0.0


def global_objective(scenario: Scenario, node_data, theta_vec) -> float:
    """Weighted sum of node spectra at the pairs implied by a target state."""
    theta = TargetParams.from_vector(theta_vec)
    pairs = theta_to_delay_doppler(theta, scenario.nodes)
    total = 0.0
    for k, w in enumerate(scenario.weights):
        if w == 0.0:
            continue
        total += w * node_objective(scenario, node_data, k, pairs[k, 0], pairs[k, 1])
    return total


def _doppler_cell(scenario: Scenario) -> float:
    return 2 * np.pi / (scenario.n_samples * scenario.sample_interval)


def _node_peak(scenario: Scenario, node_data, k: int) -> tuple:
    """Peak cell of node ``k``'s coarse surface over its first batch."""
    batches, bases = node_data[k]
    surface = eca.spectrum_grid(
        batches[0],
        bases[0],
        eca.default_tau_grid(batches[0]),
        eca.default_omega_grid(batches[0], halfspan_cells=32.0, step_cells=0.5),
        scenario.migration,
        scenario.nodes[k].carrier_angular_frequency,
    )
    return peak_pick(surface)


def _peaks_init_theta(scenario: Scenario, node_data, search_box) -> np.ndarray:
    """Coarse target-state grid seeded by per-node peak cells.

    Every state of the grid maps to per-node (delay, Doppler) pairs at once;
    the state nearest the peaks, in samples and Doppler cells, wins, the
    first in (x, y, vx, vy) order on a tie.  States on a node position have
    no Doppler and infinite cost.
    """
    peaks = np.asarray([_node_peak(scenario, node_data, k) for k in range(scenario.n_nodes)])
    (x_lo, x_hi), (y_lo, y_hi) = search_box["position"]
    (vx_lo, vx_hi), (vy_lo, vy_hi) = search_box["speed"]
    n_pos = int(search_box.get("position_points", 15))
    n_vel = int(search_box.get("speed_points", 7))
    axes = [np.linspace(x_lo, x_hi, n_pos), np.linspace(y_lo, y_hi, n_pos)]
    positions = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, 2)
    axes = [np.linspace(vx_lo, vx_hi, n_vel), np.linspace(vy_lo, vy_hi, n_vel)]
    velocities = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, 2)
    taus = np.empty((len(positions), scenario.n_nodes))
    omegas = np.empty((len(positions), len(velocities), scenario.n_nodes))
    on_node = np.zeros(len(positions), dtype=bool)
    for k, node in enumerate(scenario.nodes):
        # the bistatic delay and its rate, as in geometry.theta_to_delay_doppler
        to_rx = positions - node.rn_position
        to_tx = positions - node.io_position
        r_rx = np.linalg.norm(to_rx, axis=1)
        r_tx = np.linalg.norm(to_tx, axis=1)
        on_node |= (r_rx == 0.0) | (r_tx == 0.0)
        with np.errstate(divide="ignore", invalid="ignore"):
            unit_sum = to_rx / r_rx[:, None] + to_tx / r_tx[:, None]
        taus[:, k] = (r_rx + r_tx - node.baseline) / node.propagation_speed
        rate = (unit_sum @ velocities.T) / node.propagation_speed
        omegas[..., k] = doppler_from_rate(rate, node.carrier_angular_frequency)
    cost = (
        np.sum(((taus - peaks[:, 0]) / scenario.sample_interval) ** 2, axis=-1)[:, None]
        + np.sum(((omegas - peaks[:, 1]) / _doppler_cell(scenario)) ** 2, axis=-1)
    )
    cost[on_node] = np.inf
    p, v = np.unravel_index(np.argmin(cost), cost.shape)
    return np.concatenate([positions[p], velocities[v]])


@eca.single_threaded_blas()
def localize(
    scenario: Scenario,
    records: list,
    init: str = "oracle_truth",
    mode: str = None,
    max_iterations: int = DEFAULT_MAX_ITERATIONS,
    tolerance: float = DEFAULT_TOLERANCE,
    initial_step=DEFAULT_INITIAL_STEP,
    search_box: dict = None,
    node_data: list = None,
) -> EstimateReport:
    """Estimate target parameters from node records.

    ``mode`` "delay_doppler" (single node, parameters are that node's delay
    and Doppler) or "theta" (full state via the fused objective); default is
    delay_doppler for one node.  ``init`` is "oracle_truth" (start at the
    generating truth, the convention for MSE studies) or "per_node_peaks"
    (best-effort grid initialization).  A single node is refined by
    :func:`refine`; ``initial_step`` sets the simplex of theta mode only.
    """
    if mode is None:
        mode = "delay_doppler" if scenario.n_nodes == 1 else "theta"
    if node_data is None:
        node_data = prepare_node_data(scenario, records)

    if mode == "delay_doppler":
        if scenario.n_nodes != 1:
            raise ValueError("delay_doppler mode estimates a single node")
        truth = np.array(records[0].truth[:2])
        if init == "oracle_truth":
            x0 = truth
        elif init == "per_node_peaks":
            x0 = np.array(_node_peak(scenario, node_data, 0))
        else:
            raise ValueError(f"unknown init mode {init!r}")
        scales = np.array([scenario.sample_interval, _doppler_cell(scenario)])
        batches, bases = node_data[0]
        carrier = scenario.nodes[0].carrier_angular_frequency
        result = refine(
            lambda p: eca.frame_spectrum_derivatives(
                batches, bases, p[0], p[1], scenario.migration, carrier
            ),
            x0,
            scales,
            max_iterations,
            tolerance,
        )
        return EstimateReport(
            mode=mode,
            params=result.point,
            per_node=result.point.reshape(1, 2),
            theta=None,
            objective=result.value,
            iterations=result.iterations,
            converged=result.converged,
            init_mode=init,
            init_params=x0,
            evaluations=result.n_evaluations,
        )

    if mode != "theta":
        raise ValueError(f"unknown mode {mode!r}")
    if scenario.truth_delay_doppler is not None:
        raise ValueError("theta mode needs geometry-derived truth")
    if init == "oracle_truth":
        x0 = scenario.target.as_vector()
    elif init == "per_node_peaks":
        if search_box is None:
            raise ValueError("per_node_peaks init in theta mode needs a search_box")
        x0 = _peaks_init_theta(scenario, node_data, search_box)
    else:
        raise ValueError(f"unknown init mode {init!r}")
    scales = np.ones(4)
    result = _simplex_refine(
        lambda p: global_objective(scenario, node_data, p),
        x0,
        scales,
        max_iterations,
        tolerance,
        initial_step,
    )
    theta = TargetParams.from_vector(result.point)
    per_node = theta_to_delay_doppler(theta, scenario.nodes)
    return EstimateReport(
        mode=mode,
        params=result.point,
        per_node=per_node,
        theta=theta,
        objective=result.value,
        iterations=result.iterations,
        converged=result.converged,
        init_mode=init,
        init_params=x0,
        evaluations=result.n_evaluations,
    )
