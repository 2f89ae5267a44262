"""Built-in invariant battery behind the ``validate`` subcommand.

Each check exercises one structural invariant of the laboratory at a small
problem size and raises ``AssertionError`` on violation; the runner prints
one PASS/FAIL line per check.  The pytest suite runs the same battery, so
the CLI and the test suite cannot drift apart.
"""

from __future__ import annotations

import os
import tempfile

import numpy as np

from . import analysis, eca, estimator, geometry, output, scene, waveform


def _tiny_scenario(seed=7, n_samples=128, taps=3, sc_var=0.01, rc_var=1e-6, **kw):
    node = geometry.NodeGeometry(
        io_position=(0.0, 0.0),
        rn_position=(8000.0, 0.0),
        carrier_angular_frequency=2 * np.pi * 600e6,
    )
    defaults = dict(
        nodes=(node,),
        target=geometry.TargetParams(5000.0, 1430.0, 70.0, -190.0),
        bandwidth=16e6,
        sample_rate=25e6,
        master_length=1024,
        n_samples=n_samples,
        max_delay_samples=48,
        clutter_taps=taps,
        amplitudes=scene.draw_amplitudes(seed, 1, taps, 1.0, 2.0, 1.0, 2.0),
        sc_noise_var=sc_var,
        rc_noise_var=rc_var,
        seed=seed,
        truth_delay_doppler=((22.4 / 25e6, 5.3 * 2 * np.pi * 25e6 / n_samples),),
    )
    defaults.update(kw)
    return scene.Scenario(**defaults)


def check_geometry_jacobian():
    rng = np.random.default_rng(0)
    node = geometry.NodeGeometry((0.0, 0.0), (10e3, -4e3), 2 * np.pi * 600e6)
    for _ in range(25):
        theta = geometry.TargetParams(*rng.uniform(-9e3, 9e3, 2), *rng.uniform(-250, 250, 2))
        jac = geometry.delay_doppler_jacobian(theta, [node])[0]
        fd = np.empty((2, 4))
        steps = [1.0, 1.0, 0.1, 0.1]
        for i in range(4):
            vec = theta.as_vector()
            hi = vec.copy()
            hi[i] += steps[i]
            lo = vec.copy()
            lo[i] -= steps[i]
            f_hi = geometry.theta_to_delay_doppler(geometry.TargetParams.from_vector(hi), [node])[0]
            f_lo = geometry.theta_to_delay_doppler(geometry.TargetParams.from_vector(lo), [node])[0]
            fd[:, i] = (f_hi - f_lo) / (2 * steps[i])
        scale = np.abs(jac) + np.abs(fd) + 1e-30
        assert np.max(np.abs(jac - fd) / scale) < 1e-5, "geometry Jacobian mismatch"


def check_waveform_basics():
    wf1 = waveform.generate(3, 16e6, 25e6, 2048)
    wf2 = waveform.generate(3, 16e6, 25e6, 2048)
    assert np.array_equal(wf1.bin_amplitudes, wf2.bin_amplitudes), "nondeterministic"
    out_band = ~wf1.in_band_mask()
    assert np.all(wf1.bin_amplitudes[out_band] == 0), "energy outside the band"
    times = np.arange(64) / 25e6
    req = waveform.SteeringRequest(delay=5 / 25e6, doppler=0.0, times=times)
    shifted = waveform.evaluate(wf1, req)
    assert np.allclose(shifted, wf1.time_series[np.arange(64) - 5], atol=1e-12), (
        "lattice delay is not an integer shift"
    )


def check_waveform_derivative():
    wf = waveform.generate(5, 16e6, 25e6, 2048)
    times = np.arange(100) / 25e6
    tau = 7.31 / 25e6
    h = 1e-4 / 16e6
    req = waveform.SteeringRequest(delay=tau, doppler=0.0, times=times)
    der = waveform.evaluate_derivative(wf, req)
    hi = waveform.evaluate(wf, waveform.SteeringRequest(delay=tau + h, doppler=0.0, times=times))
    lo = waveform.evaluate(wf, waveform.SteeringRequest(delay=tau - h, doppler=0.0, times=times))
    fd = (hi - lo) / (2 * h)
    rel = np.linalg.norm(der - fd) / np.linalg.norm(der)
    assert rel < 1e-7, f"delay derivative mismatch ({rel:.2e})"


def check_clutter_convolution():
    scn = _tiny_scenario()
    wf = scene.scenario_waveform(scn)
    mat = scene.clutter_matrix(wf, scn, 0)
    taps = scn.amplitudes[0].clutter
    direct = mat @ taps
    strip = wf.time_series[(np.arange(-scn.clutter_taps, scn.n_samples)) % scn.master_length]
    full = np.convolve(strip, np.concatenate([[0.0], taps]))
    oracle = full[scn.clutter_taps : scn.clutter_taps + scn.n_samples]
    assert np.allclose(direct, oracle, rtol=1e-12, atol=1e-12), "FIR model mismatch"


def check_projection_algebra():
    scn = _tiny_scenario()
    wf, records = scene.simulate(scn)
    basis = eca.interference_basis(records[0], scn.clutter_taps)
    rng = np.random.default_rng(1)
    v = rng.standard_normal(scn.n_samples) + 1j * rng.standard_normal(scn.n_samples)
    once = eca.project_out(basis, v)
    twice = eca.project_out(basis, once)
    assert np.linalg.norm(twice - once) <= 1e-10 * np.linalg.norm(v), "not idempotent"
    removed = v - once
    pyth = abs(
        np.linalg.norm(once) ** 2 + np.linalg.norm(removed) ** 2 - np.linalg.norm(v) ** 2
    )
    assert pyth <= 1e-10 * np.linalg.norm(v) ** 2, "energy split violated"
    col = basis.columns[:, 0]
    assert np.linalg.norm(eca.project_out(basis, col)) <= 1e-10 * np.linalg.norm(col), (
        "own column not annihilated"
    )


def check_amplitude_invariance():
    scn = _tiny_scenario()
    wf, records = scene.simulate(scn)
    rec = records[0]
    tau, omega, _ = rec.truth
    basis = eca.interference_basis(rec, scn.clutter_taps)
    steer = eca.rc_steering(rec, tau, omega)
    p1 = eca.spectrum_value(rec.surveillance, basis, steer)
    scaled = scene.NodeRecord(
        reference=(0.3 - 1.7j) * rec.reference,
        surveillance=rec.surveillance,
        n_indices=rec.n_indices,
        sample_interval=rec.sample_interval,
        max_delay_samples=rec.max_delay_samples,
        truth=rec.truth,
    )
    basis2 = eca.interference_basis(scaled, scn.clutter_taps)
    steer2 = eca.rc_steering(scaled, tau, omega)
    p2 = eca.spectrum_value(scaled.surveillance, basis2, steer2)
    assert abs(p1 - p2) <= 1e-10 * abs(p1), "reference scaling changed the spectrum"


def check_least_squares_equivalence():
    scn = _tiny_scenario(n_samples=64, taps=3, master_length=512, max_delay_samples=24)
    wf, records = scene.simulate(scn)
    rec = records[0]
    basis = eca.interference_basis(rec, scn.clutter_taps)
    rng = np.random.default_rng(2)
    y = rec.surveillance
    base = np.linalg.norm(eca.project_out(basis, y)) ** 2
    for _ in range(4):
        tau = rng.uniform(4, 8) / scn.sample_rate
        omega = rng.uniform(1, 5) * 2 * np.pi * scn.sample_rate / scn.n_samples
        steer = eca.rc_steering(rec, tau, omega)
        p = eca.spectrum_value(y, basis, steer)
        design = np.column_stack([basis.columns, steer])
        coef, *_ = np.linalg.lstsq(design, y, rcond=None)
        residual = np.linalg.norm(y - design @ coef) ** 2
        assert abs((base - residual) - p) <= 1e-8 * max(p, 1e-30), "joint LS residual mismatch"


def check_ptilde():
    scn = _tiny_scenario()
    wf = scene.scenario_waveform(scn)
    nb = np.arange(scn.n_samples)
    cols = scene.lagged_columns(wf.time_series, nb, scn.clutter_taps)
    tau, omega = scene.node_truth(scn, 0)
    req = waveform.SteeringRequest(delay=tau, doppler=omega, times=nb / scn.sample_rate)
    a = waveform.steering(wf, req)
    assert np.linalg.norm(analysis.ptilde_apply(cols, a, a)) <= 1e-8 * np.linalg.norm(a), (
        "steering not annihilated"
    )
    rng = np.random.default_rng(3)
    v = rng.standard_normal(scn.n_samples) + 1j * rng.standard_normal(scn.n_samples)
    once = analysis.ptilde_apply(cols, a, v)
    twice = analysis.ptilde_apply(cols, a, once)
    assert np.linalg.norm(twice - once) <= 1e-10 * np.linalg.norm(v), "not idempotent"


def check_banded_coupling():
    rng = np.random.default_rng(4)
    n, taps = 16, 2
    c = rng.standard_normal(taps) + 1j * rng.standard_normal(taps)
    b, d = 0.7 - 0.2j, 1.1 + 0.4j
    omega = 3.0e5
    dt = 4e-8
    zj = analysis.build_banded_zj(b, c, d, omega, np.arange(n), dt)
    dense = zj.to_dense()
    v = np.exp(1j * omega * np.arange(n) * dt)
    z_mat = np.hstack([b * np.eye(n) + d * np.diag(v)] + [ci * np.eye(n) for ci in c])
    sel = np.zeros((n * (taps + 1), n + taps))
    for l in range(taps + 1):
        for i in range(n):
            sel[l * n + i, i - l + taps] = 1.0
    assert np.allclose(dense, z_mat @ sel, atol=1e-12), "banded form differs from definition"


def check_csv_round_trip():
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "t.csv")
        rows = [(0, 1.0 / 3.0, -1.2345678901234567e-12), (1, np.pi, float("nan"))]
        output.emit_csv(["i", "a", "b"], rows, path)
        _, back = output.parse_csv(path)
        assert back[0][1] == rows[0][1] and back[0][2] == rows[0][2], "not round-trip exact"
        assert np.isnan(back[1][2]), "nan not preserved"
        with open(path, "rb") as fh:
            first = fh.read()
        output.emit_csv(["i", "a", "b"], rows, path)
        with open(path, "rb") as fh:
            assert fh.read() == first, "emission not deterministic"


def check_record_determinism():
    scn = _tiny_scenario()
    wf = scene.scenario_waveform(scn)
    r1 = scene.synthesize_node(scn, wf, 0, trial=5)
    r2 = scene.synthesize_node(scn, wf, 0, trial=5)
    assert np.array_equal(r1.reference, r2.reference), "reference noise not reproducible"
    assert np.array_equal(r1.surveillance, r2.surveillance), "surveillance not reproducible"


def check_noise_free_peak():
    scn = _tiny_scenario(sc_var=0.0, rc_var=0.0)
    wf, records = scene.simulate(scn)
    rec = records[0]
    basis = eca.interference_basis(rec, scn.clutter_taps)
    report = estimator.localize(scn, records, init="oracle_truth", mode="delay_doppler")
    tau, omega, _ = rec.truth
    cell = 2 * np.pi / (scn.n_samples * scn.sample_interval)
    assert abs(report.params[0] - tau) <= 1e-3 / scn.sample_rate, "delay off truth"
    assert abs(report.params[1] - omega) <= 1e-3 * cell, "doppler off truth"


ALL_CHECKS = [
    ("geometry-jacobian-vs-finite-differences", check_geometry_jacobian),
    ("waveform-determinism-band-lattice", check_waveform_basics),
    ("waveform-delay-derivative", check_waveform_derivative),
    ("clutter-fir-convolution", check_clutter_convolution),
    ("projection-algebra", check_projection_algebra),
    ("spectrum-amplitude-invariance", check_amplitude_invariance),
    ("joint-least-squares-equivalence", check_least_squares_equivalence),
    ("cleaned-subspace-projector", check_ptilde),
    ("banded-noise-coupling", check_banded_coupling),
    ("csv-round-trip", check_csv_round_trip),
    ("record-determinism", check_record_determinism),
    ("noise-free-peak-at-truth", check_noise_free_peak),
]


def run_all(stream=None) -> bool:
    """Run every invariant check; returns True when all pass."""
    ok = True
    for name, check in ALL_CHECKS:
        try:
            check()
        except AssertionError as err:
            ok = False
            print(f"FAIL {name}: {err}", file=stream)
        except Exception as err:  # noqa: BLE001 - report, keep going
            ok = False
            print(f"FAIL {name}: {type(err).__name__}: {err}", file=stream)
        else:
            print(f"PASS {name}", file=stream)
    return ok
