import json
import os
import subprocess
import sys

import numpy as np
import pytest

from conftest import FS, dd_scene, doppler_cell, multistatic_scene
from ecalab import config, eca, estimator, scene
from ecalab.estimator import AllMissingError, _simplex_refine, localize, peak_pick, refine
from ecalab.geometry import theta_to_delay_doppler

DT = 1 / FS


def test_refine_quadratic_bowl():
    target = np.array([1.5, -2.5])

    def bowl(x):
        return -np.sum((x - target) ** 2)

    res = _simplex_refine(bowl, np.zeros(2), scales=np.ones(2))
    assert res.converged
    assert np.allclose(res.point, target, atol=1e-7)
    assert res.value == pytest.approx(0.0, abs=1e-12)


def test_refine_starting_at_optimum_stays():
    res = _simplex_refine(lambda x: -np.sum(x**2), np.zeros(3), scales=np.ones(3))
    assert res.converged
    assert np.all(np.abs(res.point) <= 1e-7)


def test_refine_result_never_below_init():
    rng = np.random.default_rng(0)

    def rugged(x):
        return float(np.sin(3 * x[0]) + np.cos(2 * x[1]) - 0.1 * np.sum(x**2))

    for _ in range(10):
        x0 = rng.uniform(-3, 3, 2)
        res = _simplex_refine(rugged, x0, scales=np.ones(2))
        assert res.value >= rugged(x0) - 1e-12


def test_refine_respects_iteration_cap():
    def slow(x):
        return -np.sum((x - 5.0) ** 4)

    res = _simplex_refine(slow, np.zeros(4), scales=np.ones(4), max_iterations=3)
    assert not res.converged
    assert res.iterations <= 3


# the same four contracts for the Newton refinement, with analytic derivatives


def test_newton_refine_quadratic_bowl():
    target = np.array([1.5, -2.5])

    def bowl(x):
        return -np.sum((x - target) ** 2), -2 * (x - target), -2 * np.eye(2)

    res = refine(bowl, np.zeros(2), scales=np.ones(2))
    assert res.converged
    assert np.allclose(res.point, target, atol=1e-7)
    assert res.value == pytest.approx(0.0, abs=1e-12)
    assert res.n_evaluations == res.iterations + 1


def test_newton_refine_starting_at_optimum_stays():
    res = refine(
        lambda x: (-np.sum(x**2), -2 * x, -2 * np.eye(3)), np.zeros(3), scales=np.ones(3)
    )
    assert res.converged
    assert np.all(np.abs(res.point) <= 1e-7)


def test_newton_refine_result_never_below_init():
    rng = np.random.default_rng(0)

    def rugged(x):
        value = float(np.sin(3 * x[0]) + np.cos(2 * x[1]) - 0.1 * np.sum(x**2))
        gradient = np.array([3 * np.cos(3 * x[0]), -2 * np.sin(2 * x[1])]) - 0.2 * x
        hessian = np.diag([-9 * np.sin(3 * x[0]), -4 * np.cos(2 * x[1])]) - 0.2 * np.eye(2)
        return value, gradient, hessian

    for _ in range(10):
        x0 = rng.uniform(-3, 3, 2)
        res = refine(rugged, x0, scales=np.ones(2))
        assert res.value >= rugged(x0)[0] - 1e-12
        if res.converged:
            _, gradient, hessian = rugged(res.point)
            assert np.all(np.linalg.eigvalsh(hessian) < 0)
            assert np.linalg.norm(gradient) <= 1e-6


def test_newton_refine_respects_iteration_cap():
    def slow(x):
        return -np.sum((x - 5.0) ** 4), -4 * (x - 5.0) ** 3, np.diag(-12 * (x - 5.0) ** 2)

    res = refine(slow, np.zeros(4), scales=np.ones(4), max_iterations=3)
    assert not res.converged
    assert res.iterations <= 3


def test_newton_refine_leaves_a_saddle():
    # zero gradient and an indefinite Hessian at the start: the step follows
    # the direction of positive curvature to a maximum of cos(x1)
    def saddle(x):
        value = -x[0] ** 2 + np.cos(x[1])
        return value, np.array([-2 * x[0], -np.sin(x[1])]), np.diag([-2.0, -np.cos(x[1])])

    res = refine(saddle, np.array([0.0, np.pi]), scales=np.ones(2))
    assert res.converged
    assert res.value == pytest.approx(1.0, abs=1e-12)


def test_newton_refine_treats_unsupported_trials_as_rejected():
    # the objective is unsupported beyond x = 1; the ascent toward the
    # bowl's center at 3 stops at the boundary without converging
    def fenced(x):
        if x[0] > 1.0:
            raise eca.DelayRangeError("beyond the fence")
        return -(x[0] - 3.0) ** 2, np.array([-2 * (x[0] - 3.0)]), np.array([[-2.0]])

    res = refine(fenced, np.zeros(1), scales=np.ones(1))
    assert not res.converged
    assert 0.99 < res.point[0] <= 1.0
    unsupported = refine(fenced, np.array([2.0]), scales=np.ones(1))
    assert unsupported.value == 0.0 and not unsupported.converged
    assert unsupported.n_evaluations == 1


def test_peak_pick_rules():
    tau_grid = np.array([0.0, 1.0, 2.0])
    omega_grid = np.array([-1.0, 0.0, 1.0])
    vals = np.zeros((3, 3))
    vals[1, 2] = 5.0
    surf = eca.AmbiguitySurface(tau_grid, omega_grid, vals)
    assert peak_pick(surf) == (1.0, 1.0)
    # exact tie: smaller delay, then smaller Doppler wins
    vals2 = np.zeros((3, 3))
    vals2[0, 1] = vals2[2, 0] = 7.0
    assert peak_pick(eca.AmbiguitySurface(tau_grid, omega_grid, vals2)) == (0.0, 0.0)
    vals3 = np.zeros((3, 3))
    vals3[1, 0] = vals3[1, 2] = 7.0
    assert peak_pick(eca.AmbiguitySurface(tau_grid, omega_grid, vals3)) == (1.0, -1.0)
    with pytest.raises(AllMissingError):
        peak_pick(eca.AmbiguitySurface(tau_grid, omega_grid, np.full((3, 3), np.nan)))


def test_noise_free_delay_doppler_estimate_hits_truth():
    scn = dd_scene(sc_var=0.0, n_samples=512, tau_cells=13.31, omega_cells=-7.7)
    _, records = scene.simulate(scn)
    report = localize(scn, records, init="oracle_truth", mode="delay_doppler")
    tau0, omega0 = records[0].truth[:2]
    assert report.converged
    assert abs(report.params[0] - tau0) <= 1e-6 * DT
    assert abs(report.params[1] - omega0) <= 1e-6 * doppler_cell(512)
    assert report.objective >= 0


def test_bistatic_endpoints_agree_from_three_starts():
    # oracle start, a start 0.3 scaled units off, and the coarse-peak start
    # reach one maximizer, certified converged
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    scn, _ = config.parse_config(os.path.join(root, "scenarios", "bistatic_example.yaml"))
    _, records = scene.simulate(scn)
    scales = np.array([scn.sample_interval, doppler_cell(scn.n_samples)])
    truth = np.array(records[0].truth[:2])
    oracle = localize(scn, records)
    peaks = localize(scn, records, init="per_node_peaks")
    (batches, bases), = estimator.prepare_node_data(scn, records)
    carrier = scn.nodes[0].carrier_angular_frequency
    shifted = refine(
        lambda p: eca.frame_spectrum_derivatives(batches, bases, p[0], p[1], False, carrier),
        truth + 0.3 * scales,
        scales,
    )
    assert oracle.converged and oracle.evaluations <= 8
    for other, point in ((shifted, shifted.point), (peaks, peaks.params)):
        assert other.converged
        assert np.all(np.abs(point - oracle.params) / scales <= 1e-12)


def test_peak_init_matches_oracle_init_noise_free():
    scn = dd_scene(sc_var=0.0, n_samples=512, tau_cells=11.6, omega_cells=5.2)
    _, records = scene.simulate(scn)
    oracle = localize(scn, records, init="oracle_truth", mode="delay_doppler")
    peaks = localize(scn, records, init="per_node_peaks", mode="delay_doppler")
    assert np.allclose(oracle.params, peaks.params, rtol=1e-6, atol=1e-12)
    assert peaks.init_mode == "per_node_peaks"


def test_global_objective_reductions():
    scn = dd_scene(n_samples=256, master=1024, max_delay=40, tau_cells=9.2)
    _, records = scene.simulate(scn)
    node_data = estimator.prepare_node_data(scn, records)
    tau, omega = records[0].truth[:2]
    direct = estimator.node_objective(scn, node_data, 0, tau, omega)
    basis = eca.interference_basis(records[0], scn.clutter_taps)
    expected = eca.spectrum_value(
        records[0].surveillance, basis, eca.rc_steering(records[0], tau, omega)
    )
    assert direct == pytest.approx(expected, rel=1e-12)
    # zero weights null the objective
    zero_w = scn.replace(weights=(0.0,))
    assert estimator.global_objective(zero_w, node_data, (100.0, 100.0, 0.0, 0.0)) == 0.0


def test_global_objective_out_of_range_contributes_zero():
    scn = multistatic_scene(n_samples=256, master=2048)
    _, records = scene.simulate(scn)
    node_data = estimator.prepare_node_data(scn, records)
    # a target far outside the delay window maps out of range at every node
    far = np.array([3.0e5, 3.0e5, 0.0, 0.0])
    assert estimator.global_objective(scn, node_data, far) == 0.0


def test_noise_free_theta_estimate_hits_truth():
    scn = multistatic_scene(sc_noise_var=0.0, rc_noise_var=0.0)
    _, records = scene.simulate(scn)
    report = localize(
        scn,
        records,
        init="oracle_truth",
        mode="theta",
        initial_step=np.array([0.5, 0.5, 20.0, 20.0]),
        max_iterations=1500,
    )
    assert report.converged
    truth = scn.target.as_vector()
    assert np.allclose(report.params[:2], truth[:2], atol=1e-4)
    assert np.allclose(report.params[2:], truth[2:], atol=1e-2)
    mapped = theta_to_delay_doppler(report.theta, scn.nodes)
    assert np.allclose(mapped, report.per_node)


def test_oracle_init_invariant_to_reference_scaling():
    scn = dd_scene(n_samples=512)
    _, records = scene.simulate(scn)
    rec = records[0]
    scaled = scene.NodeRecord(
        reference=(1.7 - 0.9j) * rec.reference,
        surveillance=rec.surveillance,
        n_indices=rec.n_indices,
        sample_interval=rec.sample_interval,
        max_delay_samples=rec.max_delay_samples,
        truth=rec.truth,
    )
    r1 = localize(scn, [rec], mode="delay_doppler")
    r2 = localize(scn, [scaled], mode="delay_doppler")
    assert np.allclose(r1.params, r2.params, rtol=1e-9, atol=1e-15)


def test_consistency_trend_with_vanishing_noise():
    errors = []
    for scale in (1e-2, 1e-4, 1e-6):
        scn = dd_scene(n_samples=512, sc_snr_db=0.0, dnr_db=0.0, cnr_db=0.0)
        scn = scn.replace(
            sc_noise_var=scale,
            rc_noise_var=scale * 1e-3,
            amplitudes=scene.draw_amplitudes(scn.seed, 1, scn.clutter_taps, 1.0, 2.0, 1.0, 2.0),
        )
        _, records = scene.simulate(scn)
        rep = localize(scn, records, mode="delay_doppler")
        tau0, omega0 = records[0].truth[:2]
        err = np.hypot(
            (rep.params[0] - tau0) / DT,
            (rep.params[1] - omega0) / doppler_cell(512),
        )
        errors.append(err)
    assert errors[0] > errors[1] > errors[2]


def test_localize_rejects_bad_modes():
    scn = multistatic_scene(n_samples=256, master=2048)
    _, records = scene.simulate(scn)
    with pytest.raises(ValueError):
        localize(scn, records, mode="delay_doppler")
    with pytest.raises(ValueError):
        localize(scn, records, init="telepathy")
    dd = dd_scene(n_samples=256, master=1024, max_delay=40)
    _, rec = scene.simulate(dd)
    with pytest.raises(ValueError):
        localize(dd, rec, mode="theta")  # direct truth has no geometry behind it


def test_noise_free_global_objective_coarse_grid_max_at_truth():
    # coarse 4-D grid oracle: the fused objective of the three-node scene
    # peaks at the grid point nearest the generating state
    scn = multistatic_scene(n_samples=256, master=2048,
                            sc_noise_var=0.0, rc_noise_var=0.0)
    _, records = scene.simulate(scn)
    node_data = estimator.prepare_node_data(scn, records)
    truth = scn.target.as_vector()
    xs = truth[0] + np.linspace(-40, 40, 5)
    ys = truth[1] + np.linspace(-40, 40, 5)
    vxs = truth[2] + np.linspace(-4000, 4000, 3)
    vys = truth[3] + np.linspace(-4000, 4000, 3)
    best, best_val = None, -np.inf
    for x in xs:
        for y in ys:
            for vx in vxs:
                for vy in vys:
                    val = estimator.global_objective(scn, node_data, (x, y, vx, vy))
                    if val > best_val:
                        best, best_val = (x, y, vx, vy), val
    assert best == (truth[0], truth[1], truth[2], truth[3])


def test_per_node_peaks_init_theta_mode():
    # best-effort grid initialization: peaks from non-degenerate receivers
    # seed a coarse state grid, and refinement lands on the truth
    from conftest import make_node

    rns = [(-300.0, 300.0), (400.0, 100.0), (-200.0, -350.0)]
    base = multistatic_scene(n_samples=256, master=2048,
                             sc_noise_var=0.0, rc_noise_var=0.0)
    from ecalab.geometry import TargetParams

    scn = base.replace(
        nodes=tuple(make_node(rn) for rn in rns),
        target=TargetParams(60.0, 40.0, 140.0, -120.0),
    )
    _, records = scene.simulate(scn)
    box = {
        "position": [[-100.0, 150.0], [-100.0, 150.0]],
        "speed": [[-4000.0, 4000.0], [-4000.0, 4000.0]],
        "position_points": 11,
        "speed_points": 5,
    }
    rep = localize(
        scn,
        records,
        init="per_node_peaks",
        mode="theta",
        search_box=box,
        initial_step=np.array([1.0, 1.0, 100.0, 100.0]),
        max_iterations=2000,
    )
    assert rep.converged
    assert np.allclose(rep.params[:2], scn.target.as_vector()[:2], atol=0.1)


def _peaks_init_loop(scenario, node_data, search_box):
    """The grid search of ``_peaks_init_theta`` as a loop over states, which
    skips states on a node position and keeps the first minimum."""
    from ecalab.geometry import TargetParams

    peaks = np.asarray([estimator._node_peak(scenario, node_data, k)
                        for k in range(scenario.n_nodes)])
    (x_lo, x_hi), (y_lo, y_hi) = search_box["position"]
    (vx_lo, vx_hi), (vy_lo, vy_hi) = search_box["speed"]
    n_pos = int(search_box.get("position_points", 15))
    n_vel = int(search_box.get("speed_points", 7))
    tau_scale = scenario.sample_interval
    omega_scale = 2 * np.pi / (scenario.n_samples * scenario.sample_interval)
    best, best_cost = None, np.inf
    for x in np.linspace(x_lo, x_hi, n_pos):
        for y in np.linspace(y_lo, y_hi, n_pos):
            for vx in np.linspace(vx_lo, vx_hi, n_vel):
                for vy in np.linspace(vy_lo, vy_hi, n_vel):
                    try:
                        pairs = theta_to_delay_doppler(TargetParams(x, y, vx, vy), scenario.nodes)
                    except ValueError:
                        continue
                    cost = float(
                        np.sum(((pairs[:, 0] - peaks[:, 0]) / tau_scale) ** 2)
                        + np.sum(((pairs[:, 1] - peaks[:, 1]) / omega_scale) ** 2)
                    )
                    if cost < best_cost:
                        best, best_cost = np.array([x, y, vx, vy]), cost
    return best


def test_peaks_init_theta_matches_the_state_loop():
    # the example's box around the target, one shifted so that its grid holds
    # the illuminator (0, 0) and one holding the receiver at (300, 300)
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    scn, _ = config.parse_config(os.path.join(root, "scenarios", "multistatic_example.yaml"))
    _, records = scene.simulate(scn)
    node_data = estimator.prepare_node_data(scn, records)
    speed = [[-300.0, 300.0], [-300.0, 300.0]]
    boxes = [
        {"position": [[-130.0, 150.0], [-120.0, 160.0]], "speed": speed},
        {"position": [[-70.0, 70.0], [-70.0, 70.0]], "speed": [[-150.0, 450.0], [0.0, 300.0]]},
        {"position": [[160.0, 300.0], [160.0, 300.0]], "speed": speed},
    ]
    for box in boxes:
        want = _peaks_init_loop(scn, node_data, box)
        assert np.array_equal(estimator._peaks_init_theta(scn, node_data, box), want)


def test_peaks_init_theta_breaks_ties_like_the_state_loop(monkeypatch):
    # receivers symmetric about the x axis that all see the same peak:
    # mirrored states cost exactly the same, and the first in (x, y, vx, vy)
    # order wins
    from conftest import make_node

    rns = [(-300.0, 300.0), (-300.0, -300.0), (400.0, 0.0)]
    scn = multistatic_scene().replace(nodes=tuple(make_node(rn) for rn in rns))
    peak = (40.0 * DT, 3.0 * doppler_cell(scn.n_samples))
    monkeypatch.setattr(estimator, "_node_peak", lambda scenario, node_data, k: peak)
    box = {"position": [[-100.0, 100.0], [-100.0, 100.0]], "speed": [[-300.0, 300.0]] * 2}
    got = estimator._peaks_init_theta(scn, None, box)
    assert got[1] < 0 and got[3] != 0  # its mirror image (y, vy) -> (-y, -vy) ties
    assert np.array_equal(got, _peaks_init_loop(scn, None, box))


def test_migrating_echo_estimated_exactly_where_static_fails():
    # delay drift ~2 samples across the window: the drift-aware steering
    # recovers the truth exactly; drift-blind processing misses by a sample
    carrier = 2 * np.pi * 600e6
    n = 2048
    omega = 1.05e-3 * carrier
    scn = dd_scene(n_samples=n, master=8192, max_delay=64, sc_var=0.0,
                   tau_cells=20.4, omega_cells=omega / doppler_cell(n),
                   migration=True)
    _, records = scene.simulate(scn)
    tau0, omega0 = records[0].truth[:2]
    rep = localize(scn, records, mode="delay_doppler")
    assert abs(rep.params[0] - tau0) <= 1e-6 * DT
    rep_static = localize(scn.replace(migration=False), records, mode="delay_doppler")
    assert abs(rep_static.params[0] - tau0) > 0.5 * DT


_LOCALIZE_SCRIPT = """
import json, sys
import numpy as np
from ecalab import config, estimator, scene
scn, _ = config.parse_config(sys.argv[1])
_, records = scene.simulate(scn)
report = estimator.localize(scn, records)
cell = 2 * np.pi / (scn.n_samples * scn.sample_interval)
scaled = report.params / np.array([scn.sample_interval, cell])
print(json.dumps({"scaled": scaled.tolist(), "objective": report.objective}))
"""


def test_localize_agrees_across_blas_thread_counts():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    config_path = os.path.join(root, "scenarios", "bistatic_example.yaml")
    base = {k: v for k, v in os.environ.items()
            if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    base["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(root, "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]
    )
    results = []
    for extra in ({"OPENBLAS_NUM_THREADS": "1"}, {}):
        run = subprocess.run(
            [sys.executable, "-c", _LOCALIZE_SCRIPT, config_path],
            env={**base, **extra}, capture_output=True, text=True, timeout=300,
        )
        assert run.returncode == 0, run.stderr
        results.append(json.loads(run.stdout.strip().splitlines()[-1]))
    single, default = results
    assert np.allclose(single["scaled"], default["scaled"], rtol=0, atol=1e-8)
    assert default["objective"] == pytest.approx(single["objective"], rel=1e-10)
