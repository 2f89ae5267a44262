"""The benchmark's own tests: each output check rejects a perturbed output.

Run with ``python3 -m pytest bench`` from the root of the repository.
"""

import json
import os
import sys

import numpy as np
import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from ecalab import analysis, eca, estimator, geometry, output, scene  # noqa: E402

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

FS = 25e6
N = 256
CELL = 2 * np.pi * FS / N


@pytest.fixture(scope="module")
def small():
    """One-node scene with interference, its records and an estimate."""
    amps = scene.draw_amplitudes(5, 1, 3, 1.0, 10.0, 10.0, 10.0)
    scn = scene.Scenario(
        nodes=(geometry.NodeGeometry((0.0, 0.0), (8000.0, 0.0), 2 * np.pi * 600e6),),
        target=geometry.TargetParams(5000.0, 1430.0, 70.0, -190.0),
        bandwidth=16e6,
        sample_rate=FS,
        master_length=1024,
        n_samples=N,
        max_delay_samples=40,
        clutter_taps=3,
        amplitudes=amps,
        sc_noise_var=1.0,
        rc_noise_var=1e-6,
        seed=5,
        truth_delay_doppler=((14.2 / FS, 6.3 * CELL),),
    )
    _, records = scene.simulate(scn)
    report = estimator.localize(scn, records)
    return scn, records[0], report


def _value(scn, rec, tau, omega):
    return checks.node_value(rec, [np.arange(N)], tau, omega, scn.clutter_taps)


def test_least_squares_identity_matches_program_and_rejects_other_values(small):
    scn, rec, _ = small
    basis = eca.interference_basis(rec, scn.clutter_taps)
    for tau, omega in [(14.2 / FS, 6.3 * CELL), (3.7 / FS, -20.1 * CELL)]:
        program = eca.spectrum_value(rec.surveillance, basis, eca.rc_steering(rec, tau, omega))
        expected, _ = checks.ls_spectrum(
            rec.reference, rec.surveillance, rec.n_indices, tau, omega, 1 / FS, 40, 3
        )
        checks.check_close(program, expected, "cell")
        with pytest.raises(checks.CheckFailure):
            checks.check_close(program * (1 + 1e-6), expected, "cell")


def test_degenerate_and_unsupported_hypotheses_have_no_value(small):
    scn, rec, _ = small
    assert _value(scn, rec, 0.0, 0.0) == 0.0  # the reference itself
    assert _value(scn, rec, -1e-9, 0.0) == 0.0  # negative delay
    assert _value(scn, rec, 30 / FS, 0.0) == 0.0  # kernel leaves the record


def test_shifted_estimate_is_rejected(small):
    scn, rec, report = small
    checks.check_converged(report.converged, "estimate")
    checks.check_close(report.objective, _value(scn, rec, *report.params), "estimate")
    checks.check_not_below(report.objective, _value(scn, rec, *report.init_params), "estimate")
    shifted = report.params + np.array([0.3 / FS, 0.0])
    with pytest.raises(checks.CheckFailure):
        checks.check_close(report.objective, _value(scn, rec, *shifted), "estimate")
    # an objective reported at a worse point than the start
    with pytest.raises(checks.CheckFailure):
        checks.check_not_below(_value(scn, rec, *shifted), _value(scn, rec, *report.init_params),
                               "estimate")
    with pytest.raises(checks.CheckFailure):
        checks.check_converged(False, "estimate")


def test_mse_band_rejects_inflated_and_biased_errors():
    rng = np.random.default_rng(0)
    var = np.array([4.0, 0.25])
    errors = rng.standard_normal((60, 2)) * np.sqrt(var)
    checks.check_mse(errors, var, 1.0, ("tau", "omega"))
    with pytest.raises(checks.CheckFailure):
        checks.check_mse(errors * 3.0, var, 1.0, ("tau", "omega"))
    with pytest.raises(checks.CheckFailure):
        checks.check_mse(errors + np.array([0.0, 2.0]), var, 1.0, ("tau", "omega"))
    with pytest.raises(checks.CheckFailure):
        checks.check_mse(errors * 0.1, var, 1.0, ("tau", "omega"))


def test_standardized_errors_reject_a_shifted_estimate():
    rng = np.random.default_rng(1)
    cov = np.diag([1.0, 4.0, 100.0, 400.0])
    errors = rng.standard_normal((40, 4)) * np.sqrt(np.diag(cov))
    limit = workloads.PLANS["multistatic"].standardized_limit
    checks.check_standardized(errors, cov, limit)
    errors[7, 2] += 10 * np.sqrt(cov[2, 2])
    with pytest.raises(checks.CheckFailure):
        checks.check_standardized(errors, cov, limit)


def test_psd_check_rejects_a_negative_eigenvalue(small):
    scn, _, _ = small
    theory = analysis.asymptotic_covariance(scn)
    checks.check_psd(theory.asymptotic_cov, theory.crb)
    vecs = np.linalg.eigh(theory.crb)[1]
    bad = theory.crb - 0.5 * np.min(np.diag(theory.crb)) * np.outer(vecs[:, 0], vecs[:, 0])
    with pytest.raises(checks.CheckFailure):
        checks.check_psd(bad, theory.crb)


def test_hessian_check_against_finite_differences(small):
    scn, _, _ = small
    wf = scene.scenario_waveform(scn)
    h, _ = analysis.hessian_and_crb(scn, wf)
    fd = checks.fd_hessian(
        analysis.noise_free_objective(scn, wf), scene.node_truth(scn, 0), [1e-3 / FS, 1e-3 * CELL]
    )
    checks.check_hessian(h, fd)
    with pytest.raises(checks.CheckFailure):
        checks.check_hessian(h * np.array([[1.0, 1.0], [1.0, 1.01]]), fd)


def _peaked_surface():
    tau = np.arange(0, 10) * 0.5
    omega = np.arange(-5, 6) * 1.0
    values = np.exp(-((tau[:, None] - 2.2) ** 2) - (omega[None, :] - 1.3) ** 2)
    return tau, omega, values


def test_surface_checks_reject_a_moved_peak_and_negative_cells():
    tau, omega, values = _peaked_surface()
    values[0, 0] = np.nan
    checks.check_surface_values(values, "surface")
    checks.check_peak(tau, omega, values, (2.2, 1.3), "surface")
    with pytest.raises(checks.CheckFailure):
        checks.check_peak(tau, omega, values, (3.9, 1.3), "surface")
    with pytest.raises(checks.CheckFailure):
        checks.check_peak(tau, omega, values, (2.2, -1.0), "surface")
    values[3, 4] = -1e-3
    with pytest.raises(checks.CheckFailure):
        checks.check_surface_values(values, "surface")


def test_surface_csv_must_have_the_grid_shape(tmp_path):
    tau, omega, values = _peaked_surface()
    path = tmp_path / "surface.csv"
    rows = [f"{t:.17g},{w:.17g},{values[i, j]:.17g}"
            for i, t in enumerate(tau) for j, w in enumerate(omega)]
    path.write_text("tau_s,omega_rad_s,value\n" + "\n".join(rows) + "\n")
    t, w, v = checks.read_surface(str(path), tau.size, omega.size)
    assert np.array_equal(t, tau) and np.array_equal(w, omega) and np.array_equal(v, values)
    with pytest.raises(checks.CheckFailure):
        checks.read_surface(str(path), tau.size + 1, omega.size)
    for broken in (rows[:-1], rows[:-1] + ["1.0,2.0,oops"]):
        path.write_text("tau_s,omega_rad_s,value\n" + "\n".join(broken) + "\n")
        with pytest.raises(checks.CheckFailure):
            checks.read_surface(str(path), tau.size, omega.size)


def test_surface_check_rejects_perturbed_cells(small, tmp_path):
    scn, rec, _ = small
    basis = eca.interference_basis(rec, scn.clutter_taps)
    tau = checks.grid(1.0, 0.0, 24) / FS
    omega = checks.grid(1.0, -8.0, 8.0) * CELL
    surface = eca.spectrum_grid(rec, basis, tau, omega)
    path = str(tmp_path / "surface.csv")

    def write(values):
        rows = [(t, w, values[i, j]) for i, t in enumerate(tau) for j, w in enumerate(omega)]
        output.emit_csv(["tau_s", "omega_rad_s", "value"], rows, path)

    write(surface.values)
    rng = np.random.default_rng
    checks.check_surface(path, tau, omega, rec, scn.clutter_taps, None, rng(0), rec.truth[:2])
    write(surface.values * (1 + 1e-6))
    with pytest.raises(checks.CheckFailure):
        checks.check_surface(path, tau, omega, rec, scn.clutter_taps, None, rng(0))
    write(np.roll(surface.values, 3, axis=0))  # peak moved by three delay steps
    with pytest.raises(checks.CheckFailure):
        checks.check_surface(path, tau, omega, rec, scn.clutter_taps, None, rng(0), rec.truth[:2])


def test_grid_counts_follow_the_program():
    record = scene.NodeRecord(
        reference=np.zeros(200, complex), surveillance=np.zeros(64, complex),
        n_indices=np.arange(64), sample_interval=1 / FS, max_delay_samples=64, truth=(0, 0, 0),
    )
    cell = 2 * np.pi / (64 / FS)
    for step, half in [(0.25, 16.0), (1, 48), (5, 37.5), (4, 8), (1, 0)]:
        assert np.allclose(checks.grid(step, -half, half) * cell,
                           eca.default_omega_grid(record, half, step))
        assert np.allclose(checks.grid(step, 0.0, 48) / FS, eca.default_tau_grid(record, step))


def test_one_round_of_a_workload_passes_its_checks(tmp_path):
    bench = workloads.Run("bistatic", 3, ROOT, str(tmp_path))
    bench.round(0)
    bench.finish()
    assert bench.failures == [] and bench.failed == 0
    assert bench.attempted == 8 + 8 + 1 + 1
    metrics = bench.metrics(setup_s=1.0)
    assert [name for name, *_ in run.END_TO_END] == list(metrics)
    assert all(value > 0 for value, _ in metrics.values())


def test_benchmark_json_lists_the_metrics_the_command_prints():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]] == [
        tuple(m) for m in run.END_TO_END
    ]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        tuple(m[:3]) for m in run.PER_LAYER
    ]
