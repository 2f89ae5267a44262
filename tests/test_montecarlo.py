import numpy as np
import pytest

from conftest import dd_scene, multistatic_scene
from ecalab import analysis, estimator, montecarlo, scene
from ecalab.geometry import TargetParams
from ecalab.montecarlo import SweepSpec, aggregate, apply_axis, run_trials, sweep, track


def quick_scene(**kw):
    return dd_scene(n_samples=256, master=1024, max_delay=40, tau_cells=14.2, **kw)


def test_zero_trials_gives_empty_list():
    assert run_trials(quick_scene(), 0) == []


def test_run_trials_deterministic():
    scn = quick_scene()
    a = run_trials(scn, 3, base_seed=5)
    b = run_trials(scn, 3, base_seed=5)
    for ra, rb in zip(a, b):
        assert np.array_equal(ra.params, rb.params)
        assert ra.objective == rb.objective
    c = run_trials(scn, 3, base_seed=6)
    assert not np.array_equal(a[0].params, c[0].params)


def test_zero_noise_trials_return_truth():
    scn = quick_scene(sc_var=0.0)
    reports = run_trials(scn, 3)
    truth = montecarlo.truth_vector(scn)
    cell = 2 * np.pi * scn.sample_rate / scn.n_samples
    for rep in reports:
        # equal to the generating truth at the optimizer tolerance scale
        assert abs(rep.params[0] - truth[0]) <= 1e-6 / scn.sample_rate
        assert abs(rep.params[1] - truth[1]) <= 1e-6 * cell


def test_aggregate_moments():
    scn = quick_scene()
    truth = np.array([2.0, 3.0])
    mk = lambda p, conv=True: estimator.EstimateReport(
        mode="delay_doppler", params=np.asarray(p), per_node=np.asarray(p).reshape(1, 2),
        theta=None, objective=1.0, iterations=5, converged=conv,
        init_mode="oracle_truth", init_params=truth,
    )
    # all at truth: zero error
    agg = aggregate([mk(truth)] * 4, truth)
    assert np.all(agg["mse"] == 0) and np.all(agg["bias"] == 0)
    # symmetric +-delta: mse = delta^2, bias = 0
    delta = np.array([0.5, 1.0])
    agg2 = aggregate([mk(truth + delta), mk(truth - delta)] * 3, truth)
    assert np.allclose(agg2["mse"], delta**2)
    assert np.allclose(agg2["bias"], 0.0, atol=1e-15)
    assert np.allclose(agg2["rmse"], np.abs(delta))
    # diverged trials are excluded but counted
    agg3 = aggregate([mk(truth), mk(truth + 100, conv=False)], truth)
    assert agg3["divergences"] == 1 and agg3["trials_used"] == 1
    assert np.all(agg3["mse"] == 0)
    with pytest.raises(ValueError):
        aggregate([mk(truth, conv=False)], truth)


def test_aggregate_mse_over_all_trials_counts_a_diverged_one():
    truth = np.array([2.0, 3.0])
    mk = lambda p, conv: estimator.EstimateReport(
        mode="delay_doppler", params=np.asarray(p), per_node=np.asarray(p).reshape(1, 2),
        theta=None, objective=1.0, iterations=5, converged=conv,
        init_mode="oracle_truth", init_params=truth,
    )
    delta = np.array([0.5, 1.0])
    trials = [mk(truth + delta, True), mk(truth - delta, True), mk(truth + 4 * delta, False)]
    agg = aggregate(trials, truth)
    assert np.allclose(agg["mse"], delta**2)
    assert np.allclose(agg["mse_all"], (1 + 1 + 16) * delta**2 / 3)


def test_apply_axis_semantics():
    scn = quick_scene()
    # surveillance SNR: echo magnitude moves, noise fixed
    s1 = apply_axis(scn, "sc_snr_db", 17.0)
    amp = s1.amplitudes[0]
    assert abs(amp.target) ** 2 / s1.sc_noise_var == pytest.approx(10 ** 1.7, rel=1e-12)
    assert s1.sc_noise_var == scn.sc_noise_var
    # phase preserved
    assert np.angle(amp.target) == pytest.approx(np.angle(scn.amplitudes[0].target))
    # reference SNR: noise moves, amplitudes fixed
    s2 = apply_axis(scn, "rc_snr_db", 33.0)
    assert abs(s2.amplitudes[0].rc) ** 2 / s2.rc_noise_var == pytest.approx(
        10 ** 3.3, rel=1e-12
    )
    # transmit power scales every amplitude jointly
    s3 = apply_axis(scn, "transmit_power_db", -6.0)
    g = 10 ** (-6 / 20)
    assert abs(s3.amplitudes[0].rc) == pytest.approx(g * abs(scn.amplitudes[0].rc))
    assert abs(s3.amplitudes[0].target) == pytest.approx(g * abs(scn.amplitudes[0].target))
    assert np.linalg.norm(s3.amplitudes[0].clutter) == pytest.approx(
        g * np.linalg.norm(scn.amplitudes[0].clutter)
    )
    s4 = apply_axis(scn, "m_batches", 4)
    assert s4.m_batches == 4
    with pytest.raises(ValueError):
        apply_axis(scn, "warp_factor", 1.0)


def test_single_point_sweep_equals_manual_run():
    scn = quick_scene()
    spec = SweepSpec(scenario=scn, axis="sc_snr_db", values=(12.0,), trials=4,
                     base_seed=9)
    rows = sweep(spec)
    assert len(rows) == 1
    row = rows[0]
    manual_scene = apply_axis(scn, "sc_snr_db", 12.0)
    reports = run_trials(manual_scene, 4, base_seed=9)
    agg = aggregate(reports, montecarlo.truth_vector(manual_scene))
    assert np.allclose(row.mse, agg["mse"])
    theory = analysis.asymptotic_covariance(manual_scene)
    assert np.allclose(row.crb_diag, np.diag(theory.crb))
    assert row.trials_used == 4 and row.divergences == 0


def test_sweep_theory_column_monotone_in_reference_snr():
    scn = quick_scene()
    spec = SweepSpec(scenario=scn, axis="rc_snr_db", values=(30.0, 40.0, 50.0),
                     trials=1, base_seed=1)
    rows = sweep(spec)
    acov = np.array([r.asymptotic_diag for r in rows])
    assert np.all(np.diff(acov, axis=0) <= 0)
    crb = np.array([r.crb_diag for r in rows])
    assert np.allclose(crb, crb[0], rtol=1e-12)  # bound does not move
    assert np.all(acov >= crb * (1 - 1e-12))


def test_sweep_spec_validation():
    scn = quick_scene()
    with pytest.raises(ValueError):
        SweepSpec(scenario=scn, axis="sc_snr_db", values=(np.nan,), trials=2)
    with pytest.raises(ValueError):
        SweepSpec(scenario=scn, axis="sc_snr_db", values=(1.0,), trials=0)


def test_track_intervals_and_ellipses():
    scn = multistatic_scene(n_samples=256, master=2048)
    targets = [
        TargetParams(10.0, 10.0, 100.0, 100.0),
        TargetParams(60.0, 40.0, 120.0, 80.0),
    ]
    results = track(scn, targets, trials_per_interval=2, base_seed=3,
                    initial_step=np.array([0.5, 0.5, 50.0, 50.0]),
                    max_iterations=2000)
    assert len(results) == 2
    for i, res in enumerate(results):
        assert res.index == i
        assert res.estimates.shape == (2, 4)
        assert np.all(res.position_ellipse.semi_axes > 0)
        assert np.all(res.velocity_ellipse.semi_axes > 0)
    assert not np.allclose(results[0].truth, results[1].truth)


def test_track_intervals_draw_noise_apart_from_other_seeds(monkeypatch):
    # interval 1 of base seed 3 and interval 0 of base seed 4 must not share
    # noise streams
    scn = multistatic_scene(n_samples=256, master=2048)
    seeds = []

    def record_seed(scenario, n_trials, base_seed=None, **kwargs):
        seeds.append(base_seed)
        return []

    monkeypatch.setattr(montecarlo, "run_trials", record_seed)
    target = TargetParams(10.0, 10.0, 100.0, 100.0)
    track(scn, [target, target], trials_per_interval=1, base_seed=3)
    track(scn, [target], trials_per_interval=1, base_seed=4)
    wf = scene.scenario_waveform(scn)
    first, second = (scene.synthesize_node(scn, wf, 0, 0, s) for s in (seeds[1], seeds[2]))
    assert not np.allclose(first.surveillance, second.surveillance)
    assert not np.allclose(first.reference, second.reference)


def test_track_zero_noise_lies_on_trajectory():
    scn = multistatic_scene(n_samples=256, master=2048,
                            sc_noise_var=0.0, rc_noise_var=0.0)
    targets = [TargetParams(10.0, 10.0, 100.0, 100.0)]
    results = track(scn, targets, trials_per_interval=2, base_seed=3,
                    initial_step=np.array([0.5, 0.5, 20.0, 20.0]),
                    max_iterations=2000)
    est = results[0].estimates
    assert np.allclose(est[:, :2], [10.0, 10.0], atol=1e-4)
    assert np.allclose(est[:, 2:], [100.0, 100.0], atol=1e-2)


def test_sweep_threshold_departure_below_and_agreement_above():
    # empirical MSE follows the prediction at high surveillance SNR and
    # departs from it below a threshold (oracle-init, fixed waveform)
    scn = dd_scene(n_samples=512, master=2048, max_delay=40, tau_cells=14.2)
    spec = SweepSpec(scenario=scn, axis="sc_snr_db", values=(-22.0, 10.0),
                     trials=40, base_seed=17)
    rows = sweep(spec)
    gap_low = 10 * np.log10(rows[0].mse[0] / rows[0].asymptotic_diag[0])
    gap_high = 10 * np.log10(rows[1].mse[0] / rows[1].asymptotic_diag[0])
    assert gap_low >= 3.0
    assert abs(gap_high) <= 1.5


def test_track_circle_layout_ellipse_sizes_vary():
    # five receivers on a circle, accelerating target: predicted confidence
    # ellipses change size across sensing intervals with the geometry
    angles = 2 * np.pi * np.arange(5) / 5
    rns = [(300 * np.cos(a), 300 * np.sin(a)) for a in angles]
    base = multistatic_scene(n_samples=256, master=2048)
    from conftest import make_node
    scn = base.replace(nodes=tuple(make_node(rn) for rn in rns),
                       weights=(1.0,) * 5,
                       amplitudes=scene.draw_amplitudes(
                           base.seed, 5, base.clutter_taps, 1.0,
                           np.sqrt(10**2.5), np.sqrt(10**2.5), np.sqrt(10**2.5)))
    targets = [
        TargetParams(40.0, 25.0, 120.0, 60.0),
        TargetParams(160.0, 95.0, 150.0, 110.0),   # accelerated
        TargetParams(330.0, 220.0, 190.0, 170.0),  # accelerated again
    ]
    results = track(scn, targets, trials_per_interval=2, base_seed=8,
                    initial_step=np.array([0.5, 0.5, 50.0, 50.0]),
                    max_iterations=2000)
    areas = [float(np.prod(r.position_ellipse.semi_axes)) for r in results]
    assert len(set(np.round(areas, 12))) == len(areas)
    spread = max(areas) / min(areas)
    assert spread > 1.05
