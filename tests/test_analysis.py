import os
import subprocess
import sys

import numpy as np
import pytest

from conftest import FS, dd_scene, doppler_cell, multistatic_scene
from ecalab import analysis, eca, estimator, scene
from ecalab import waveform as wfm
from ecalab.analysis import (
    UnidentifiableScenarioError,
    asymptotic_covariance,
    build_banded_zj,
    confidence_ellipse,
    efficiency_margin,
    excess_q,
    hessian_and_crb,
    ptilde_apply,
    unambiguity_scan,
)

DT = 1 / FS


def _true_interference(scn, wf):
    cols = [wf.time_series[: scn.n_samples]]
    mat = scene.clutter_matrix(wf, scn, 0)
    cols += [mat[:, l] for l in range(scn.clutter_taps)]
    return np.column_stack(cols)


def _true_steering(scn, wf):
    tau, omega = scene.node_truth(scn, 0)
    return wfm.steering(
        wf, wfm.SteeringRequest(delay=tau, doppler=omega, times=scn.surveillance_times())
    )


def test_ptilde_annihilates_steering_and_interference(small_scene):
    wf = scene.scenario_waveform(small_scene)
    s_i = _true_interference(small_scene, wf)
    a = _true_steering(small_scene, wf)
    assert np.linalg.norm(ptilde_apply(s_i, a, a)) <= 1e-8 * np.linalg.norm(a)
    for l in range(s_i.shape[1]):
        col = s_i[:, l]
        assert np.linalg.norm(ptilde_apply(s_i, a, col)) <= 1e-8 * np.linalg.norm(col)


def test_ptilde_idempotent_on_random_vectors(small_scene):
    wf = scene.scenario_waveform(small_scene)
    s_i = _true_interference(small_scene, wf)
    a = _true_steering(small_scene, wf)
    rng = np.random.default_rng(3)
    v = rng.standard_normal((small_scene.n_samples, 3)) + 1j * rng.standard_normal(
        (small_scene.n_samples, 3)
    )
    once = ptilde_apply(s_i, a, v)
    twice = ptilde_apply(s_i, a, once)
    assert np.linalg.norm(twice - once) <= 1e-10 * np.linalg.norm(v)


def test_banded_zj_trivial_bands():
    n = 12
    dt = 4e-8
    # identity FIR tap only: pure one-sample-delay band
    zj = build_banded_zj(0.0, np.array([1.0 + 0j]), 0.0, 0.0, np.arange(n), dt)
    assert np.all(zj.zeta[:, 0] == 0)
    assert np.all(zj.zeta[:, 1] == 1.0)
    # leakage only: diagonal band
    zj2 = build_banded_zj(2.0 - 1.0j, np.zeros(0, dtype=complex), 0.0, 0.0, np.arange(n), dt)
    assert zj2.zeta.shape == (n, 1)
    assert np.all(zj2.zeta[:, 0] == 2.0 - 1.0j)


def test_banded_zj_equals_dense_definition():
    rng = np.random.default_rng(4)
    n, taps = 16, 2
    c = rng.standard_normal(taps) + 1j * rng.standard_normal(taps)
    b, d = 0.7 - 0.2j, 1.1 + 0.4j
    omega, dt = 3.0e5, 4e-8
    zj = build_banded_zj(b, c, d, omega, np.arange(n), dt)
    v = np.exp(1j * omega * np.arange(n) * dt)
    z_mat = np.hstack([b * np.eye(n) + d * np.diag(v)] + [ci * np.eye(n) for ci in c])
    sel = np.zeros((n * (taps + 1), n + taps))
    for l in range(taps + 1):
        for i in range(n):
            sel[l * n + i, i - l + taps] = 1.0
    dense = z_mat @ sel
    assert np.allclose(zj.to_dense(), dense, atol=1e-14)
    # adjoint application agrees with the dense transpose
    g = rng.standard_normal((n, 3)) + 1j * rng.standard_normal((n, 3))
    assert np.allclose(zj.apply_adjoint(g), dense.conj().T @ g, atol=1e-12)


def test_banded_zj_reproduces_noise_coupling():
    # multiplying reference noise through the band reproduces the perturbation
    # of the cleaned data: leakage + clutter FIR + phased steering mismatch
    rng = np.random.default_rng(5)
    n, taps = 64, 3
    c = rng.standard_normal(taps) + 1j * rng.standard_normal(taps)
    b, d = 0.3 + 0.1j, 0.9 - 0.5j
    omega, dt = 2.0e5, 4e-8
    noise = rng.standard_normal(n + taps) + 1j * rng.standard_normal(n + taps)
    zj = build_banded_zj(b, c, d, omega, np.arange(n), dt)
    out = zj.apply(noise, noise_start=-taps)
    n0 = noise[taps:]
    expected = b * n0 + d * n0 * np.exp(1j * omega * np.arange(n) * dt)
    for l in range(1, taps + 1):
        expected += c[l - 1] * noise[taps - l : taps - l + n]
    assert np.allclose(out, expected, atol=1e-12)


def test_hessian_scalings():
    scn = dd_scene(n_samples=512)
    wf = scene.scenario_waveform(scn)
    h, crb = hessian_and_crb(scn, wf)
    # doubling the echo amplitude quarters the bound
    amps = scn.amplitudes[0]
    boosted = scn.replace(
        amplitudes=(
            scene.NodeAmplitudes(amps.rc, amps.dpi, 2 * amps.target, amps.clutter),
        )
    )
    h2, crb2 = hessian_and_crb(boosted, wf)
    assert np.allclose(h2, 4 * h, rtol=1e-12)
    assert np.allclose(crb2, crb / 4, rtol=1e-12)
    # doubling the surveillance noise doubles the bound
    _, crb3 = hessian_and_crb(scn.replace(sc_noise_var=2 * scn.sc_noise_var), wf)
    assert np.allclose(crb3, 2 * crb, rtol=1e-12)


def test_hessian_matches_finite_difference_curvature():
    scn = dd_scene(n_samples=256, master=1024, max_delay=40, tau_cells=14.2)
    wf = scene.scenario_waveform(scn)
    h, _ = hessian_and_crb(scn, wf)
    f = analysis.noise_free_objective(scn, wf)
    tau0, omega0 = scene.node_truth(scn, 0)
    ht, ho = 1e-3 * DT, 1e-3 * doppler_cell(scn.n_samples)
    f0 = f((tau0, omega0))
    fd = np.empty((2, 2))
    fd[0, 0] = (f((tau0 + ht, omega0)) - 2 * f0 + f((tau0 - ht, omega0))) / ht**2
    fd[1, 1] = (f((tau0, omega0 + ho)) - 2 * f0 + f((tau0, omega0 - ho))) / ho**2
    fd[0, 1] = fd[1, 0] = (
        f((tau0 + ht, omega0 + ho))
        - f((tau0 + ht, omega0 - ho))
        - f((tau0 - ht, omega0 + ho))
        + f((tau0 - ht, omega0 - ho))
    ) / (4 * ht * ho)
    scale = np.sqrt(np.outer(np.diag(h), np.diag(h)))
    assert np.max(np.abs(h + fd) / scale) <= 1e-3


def test_unidentifiable_without_target():
    scn = dd_scene(n_samples=256, master=1024, max_delay=40)
    amps = (scene.NodeAmplitudes(1.0, 0.5, 0.0, np.zeros(scn.clutter_taps)),)
    with pytest.raises(ValueError):
        hessian_and_crb(scn.replace(amplitudes=amps))


def test_excess_q_zero_for_perfect_reference():
    scn = dd_scene(n_samples=256, master=1024, max_delay=40)
    q = excess_q(scn.replace(rc_noise_var=0.0))
    assert np.all(q == 0)


def test_excess_q_target_power_scaling():
    # with leakage and clutter off, the excess scales with the fourth power of
    # the echo amplitude (mismatched-filter term only)
    scn = dd_scene(n_samples=256, master=1024, max_delay=40, taps=0)
    amps = (scene.NodeAmplitudes(1.0, 0.0, 1.5 + 0.5j, np.zeros(0)),)
    scn = scn.replace(amplitudes=amps)
    wf = scene.scenario_waveform(scn)
    q1 = excess_q(scn, wf)
    doubled = scn.replace(
        amplitudes=(scene.NodeAmplitudes(1.0, 0.0, 2 * (1.5 + 0.5j), np.zeros(0)),)
    )
    q2 = excess_q(doubled, wf)
    # H also scales by 4, so Q/|d|^2 relative to H isolates the extra |d|^2
    h1, _ = hessian_and_crb(scn, wf)
    h2, _ = hessian_and_crb(doubled, wf)
    assert np.allclose(h2, 4 * h1, rtol=1e-12)
    assert np.allclose(q2, 16 * q1, rtol=1e-10)


def test_excess_q_matches_sampled_analytic_gradient_pieces():
    # reference-noise-only Monte Carlo of the first-order gradient term
    scn = dd_scene(n_samples=128, master=1024, max_delay=40, taps=2,
                   tau_cells=14.2, omega_cells=4.4, rc_snr_db=20.0)
    wf = scene.scenario_waveform(scn)
    q = excess_q(scn, wf)
    ctx = analysis._node_contexts(scn, wf, 0, "delay_doppler")[0]
    amp = scn.amplitudes[0]
    ratio = amp.target / amp.rc
    rng = np.random.default_rng(17)
    lo, hi = ctx.zj.noise_index_range()
    span = hi - lo + 1
    draws = 4000
    samples = np.empty((draws, 2))
    g = ctx.d_clean
    for t in range(draws):
        noise = np.sqrt(scn.rc_noise_var / 2) * (
            rng.standard_normal(span) + 1j * rng.standard_normal(span)
        )
        coupled = ctx.zj.apply(noise, noise_start=lo)
        samples[t] = 2 * np.real(ratio * (coupled.conj() @ g))
    emp = np.cov(samples.T)
    for i in range(2):
        assert emp[i, i] == pytest.approx(q[i, i], rel=0.12)


def test_efficiency_margin_formula_and_sentinels():
    scn = dd_scene(n_samples=256, master=1024, max_delay=40, taps=3)
    amp = scn.amplitudes[0]
    lhs = (scn.clutter_taps + 1) * (
        abs(amp.dpi) ** 2 + abs(amp.target) ** 2 + np.linalg.norm(amp.clutter) ** 2
    ) / scn.sc_noise_var
    rhs = abs(amp.rc) ** 2 / scn.rc_noise_var
    expected = 10 * np.log10(lhs) - 10 * np.log10(rhs)
    assert efficiency_margin(scn)[0] == pytest.approx(expected, rel=1e-12)
    # equality case reads zero
    eq = scn.replace(rc_noise_var=abs(amp.rc) ** 2 / lhs)
    assert efficiency_margin(eq)[0] == pytest.approx(0.0, abs=1e-10)
    # 10 dB more reference SNR moves the margin down 10 dB
    better = scn.replace(rc_noise_var=scn.rc_noise_var / 10)
    assert efficiency_margin(better)[0] == pytest.approx(expected - 10, rel=1e-9)
    assert efficiency_margin(scn.replace(rc_noise_var=0.0))[0] == -np.inf
    assert efficiency_margin(scn.replace(sc_noise_var=0.0))[0] == np.inf


def test_asymptotic_covariance_structure():
    scn = dd_scene(n_samples=512, rc_snr_db=40.0)
    rep = asymptotic_covariance(scn)
    assert rep.mode == "delay_doppler"
    assert not rep.batched
    # perfect reference collapses the prediction onto the bound
    perfect = asymptotic_covariance(scn.replace(rc_noise_var=0.0))
    assert np.allclose(perfect.asymptotic_cov, perfect.crb)
    # the excess is positive semi-definite: prediction dominates the bound
    diff = rep.asymptotic_cov - rep.crb
    scale = np.sqrt(np.outer(np.diag(rep.crb), np.diag(rep.crb)))
    eig = np.linalg.eigvalsh(diff / scale)
    assert eig.min() >= -1e-12
    eig_q = np.linalg.eigvalsh(rep.q / np.sqrt(np.outer(np.diag(rep.q), np.diag(rep.q))))
    assert eig_q.min() >= -1e-12


def test_batched_report_flag_and_summation():
    scn = dd_scene(n_samples=512, omega_cells=4.0, m_batches=4, batch_mode="sparse")
    rep = asymptotic_covariance(scn)
    assert rep.batched
    # summed per-batch curvature is below the unbatched one (information loss)
    h_full, _ = hessian_and_crb(scn.replace(m_batches=1))
    assert np.trace(rep.h / h_full) < 2.0


def test_crb_scaling_laws():
    # no-interference delay/Doppler bounds: delay scales with 1/(snr B^2 N),
    # Doppler with 1/(snr T^2 N); check log-log slopes
    def crb_for(snr_db=15.0, band=16e6, n=512):
        # average two waveform draws: each random flat-band draw perturbs the
        # realized rms bandwidth, and the law is about the ensemble
        acc = np.zeros(2)
        for seed in (11, 12):
            scn = dd_scene(seed=seed, n_samples=n, master=16384, max_delay=40,
                           taps=0, sc_snr_db=snr_db, tau_cells=20.2, omega_cells=5.1)
            amps = scn.amplitudes[0]
            scn = scn.replace(
                bandwidth=band,
                amplitudes=(scene.NodeAmplitudes(amps.rc, 0.0, amps.target, np.zeros(0)),),
            )
            _, crb = hessian_and_crb(scn)
            acc += np.diag(crb)
        return acc / 2

    def slope(xs, ys):
        return np.polyfit(np.log10(xs), np.log10(ys), 1)[0]

    # tolerance: five percent of each expected slope magnitude
    snrs = [10.0, 20.0, 30.0]
    vals = np.array([crb_for(snr_db=s) for s in snrs])
    assert abs(slope([10 ** (s / 10) for s in snrs], vals[:, 0]) + 1) <= 0.05
    assert abs(slope([10 ** (s / 10) for s in snrs], vals[:, 1]) + 1) <= 0.05

    bands = [5e6, 10e6, 20e6]
    vals = np.array([crb_for(band=b) for b in bands])
    assert abs(slope(bands, vals[:, 0]) + 2) <= 0.1

    lengths = [256, 512, 1024]
    vals = np.array([crb_for(n=n) for n in lengths])
    assert abs(slope(lengths, vals[:, 0]) + 1) <= 0.05
    assert abs(slope(lengths, vals[:, 1]) + 3) <= 0.15


def test_theta_mode_report_names():
    scn = multistatic_scene(n_samples=256, master=2048)
    rep = asymptotic_covariance(scn)
    assert rep.mode == "theta"
    assert rep.param_names == ("x", "y", "vx", "vy")
    assert rep.h.shape == (4, 4)
    assert rep.efficiency_margin_db.shape == (3,)


def test_unambiguity_scan_values():
    wf = wfm.generate(3, 16e6, FS, 1024)
    times = np.arange(256) * DT
    cell = doppler_cell(256)
    tau0, omega0 = 12.3 * DT, 5.0 * cell
    # without exclusion the true cell itself reaches correlation one
    peak = unambiguity_scan(
        wf, times, tau0, omega0, np.array([tau0]), np.array([omega0])
    )
    assert peak == pytest.approx(1.0, abs=1e-12)
    # along the Doppler axis the correlation follows the coherence dips
    omegas = omega0 + np.arange(1, 8) * cell
    corr = unambiguity_scan(wf, times, tau0, omega0, np.array([tau0]), omegas)
    assert corr < 0.35
    # full scan excluding a one-cell neighborhood stays clearly below one
    full = unambiguity_scan(
        wf, times, tau0, omega0,
        np.arange(0, 16, 0.5) * DT,
        np.arange(-32, 32.01, 0.5) * cell,
        exclusion=(1.0 * DT, 1.0 * cell),
    )
    assert full < 0.9


def test_confidence_ellipse_cases():
    ell = confidence_ellipse(np.eye(2), 0.95)
    assert np.allclose(ell.semi_axes, np.sqrt(5.9915), rtol=1e-4)
    ell2 = confidence_ellipse(np.diag([4.0, 1.0]), 0.95)
    assert ell2.semi_axes[0] / ell2.semi_axes[1] == pytest.approx(2.0, rel=1e-12)
    # rotating the covariance rotates the ellipse identically
    phi = 0.7
    rot = np.array([[np.cos(phi), -np.sin(phi)], [np.sin(phi), np.cos(phi)]])
    base = np.diag([9.0, 1.0])
    ell3 = confidence_ellipse(rot @ base @ rot.T, 0.95)
    assert np.allclose(ell3.semi_axes, confidence_ellipse(base).semi_axes, rtol=1e-12)
    assert abs((ell3.orientation - phi + np.pi / 2) % np.pi - np.pi / 2) <= 1e-9
    with pytest.raises(ValueError):
        confidence_ellipse(np.array([[1.0, 2.0], [2.0, 1.0]]))  # indefinite


@pytest.mark.parametrize("level", [0.5, 0.95, 0.99])
def test_confidence_ellipse_radius_is_the_chi2_quantile(level):
    from scipy.stats import chi2

    ell = confidence_ellipse(np.diag([4.0, 1.0]), level)
    want = np.sqrt(chi2.ppf(level, df=2) * np.array([4.0, 1.0]))
    assert ell.semi_axes == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("level", [0.0, 1.0, -0.5, 95.0, float("nan")])
def test_confidence_ellipse_rejects_levels_outside_the_unit_interval(level):
    with pytest.raises(ValueError, match=f"got {level!r}"):
        confidence_ellipse(np.eye(2), level)


def test_cli_import_leaves_scipy_stats_out():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [os.path.join(root, "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]
    ))
    run = subprocess.run(
        [sys.executable, "-c", "import sys, ecalab.cli; print('scipy.stats' in sys.modules)"],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == "False"


@pytest.fixture
def small_scene():
    return dd_scene(n_samples=256, master=1024, max_delay=40, tau_cells=14.2)


def test_hessian_oracle_under_migration():
    carrier = 2 * np.pi * 600e6
    n = 1024
    omega = 2.0e-3 * carrier
    scn = dd_scene(n_samples=n, master=4096, max_delay=48,
                   tau_cells=18.3, omega_cells=omega / doppler_cell(n),
                   migration=True)
    wf = scene.scenario_waveform(scn)
    h, _ = hessian_and_crb(scn, wf)
    f = analysis.noise_free_objective(scn, wf)
    tau0, om0 = scene.node_truth(scn, 0)
    ht, ho = 1e-3 * DT, 1e-3 * doppler_cell(n)
    f0 = f((tau0, om0))
    fd = np.empty((2, 2))
    fd[0, 0] = (f((tau0 + ht, om0)) - 2 * f0 + f((tau0 - ht, om0))) / ht**2
    fd[1, 1] = (f((tau0, om0 + ho)) - 2 * f0 + f((tau0, om0 - ho))) / ho**2
    fd[0, 1] = fd[1, 0] = (
        f((tau0 + ht, om0 + ho)) - f((tau0 + ht, om0 - ho))
        - f((tau0 - ht, om0 + ho)) + f((tau0 - ht, om0 - ho))
    ) / (4 * ht * ho)
    scale = np.sqrt(np.outer(np.diag(h), np.diag(h)))
    assert np.max(np.abs(h + fd) / scale) <= 1e-3


def test_theory_builds_each_node_context_once(monkeypatch):
    calls = []
    original = analysis._node_contexts

    def spy(scenario, wf, k, mode, **kwargs):
        calls.append(k)
        return original(scenario, wf, k, mode, **kwargs)

    monkeypatch.setattr(analysis, "_node_contexts", spy)
    asymptotic_covariance(multistatic_scene(m_batches=2))
    assert sorted(calls) == [0, 1, 2]
