import os

import numpy as np
import pytest

from ecalab import analysis, cli, config, scene
from ecalab import waveform as wfm
from ecalab.waveform import SteeringRequest, WindowOverrunError

FS = 25e6
DT = 1 / FS
CARRIER = 2 * np.pi * 600e6
SCENARIOS = os.path.join(os.path.dirname(__file__), os.pardir, "scenarios")


def test_generation_rejects_bad_band():
    with pytest.raises(ValueError):
        wfm.generate(0, 30e6, 25e6, 1024)
    with pytest.raises(ValueError):
        wfm.generate(0, 0.0, 25e6, 1024)


def test_in_band_fraction():
    wf = wfm.generate(0, 16e6, 25e6, 8192)
    frac = wf.in_band_mask().mean()
    assert abs(frac - 0.64) <= 2 / 8192


def test_same_seed_identical():
    a = wfm.generate(7, 16e6, FS, 2048)
    b = wfm.generate(7, 16e6, FS, 2048)
    assert np.array_equal(a.bin_amplitudes, b.bin_amplitudes)
    assert np.array_equal(a.time_series, b.time_series)
    c = wfm.generate(8, 16e6, FS, 2048)
    assert not np.array_equal(a.bin_amplitudes, c.bin_amplitudes)


def test_out_of_band_exactly_zero():
    wf = wfm.generate(3, 10e6, FS, 4096)
    assert np.all(wf.bin_amplitudes[~wf.in_band_mask()] == 0)


def test_empirical_variance_law_of_large_numbers():
    P = 1 << 16
    wf = wfm.generate(5, 16e6, FS, P)
    var = np.mean(np.abs(wf.time_series) ** 2)
    assert abs(var - 1.0) <= 5 / np.sqrt(P)


def test_autocorrelation_matches_flat_band_shape():
    P = 1 << 16
    B = 16e6
    wf = wfm.generate(9, B, FS, P)
    s = wf.time_series
    lags = np.arange(0, 40)
    emp = np.array([np.vdot(s, np.roll(s, -m)) / P for m in lags])
    theory = np.sinc(B * lags * DT)
    rms = np.sqrt(np.mean(np.abs(emp - theory) ** 2))
    assert rms <= 0.05


def test_lattice_delay_is_integer_shift():
    wf = wfm.generate(1, 16e6, FS, 2048)
    times = np.arange(100, 300) * DT
    for m in (0, 3, 17):
        req = SteeringRequest(delay=m * DT, doppler=0.0, times=times)
        out = wfm.evaluate(wf, req)
        assert np.allclose(out, wf.time_series[np.arange(100, 300) - m], atol=1e-12)


def test_eval_linearity_in_bins():
    p = 1024
    w1 = wfm.generate(2, 16e6, FS, p)
    w2 = wfm.generate(3, 16e6, FS, p)
    summed = wfm.MasterWaveform(
        bin_amplitudes=w1.bin_amplitudes + w2.bin_amplitudes,
        bin_frequencies=w1.bin_frequencies,
        bandwidth=16e6,
        sample_rate=FS,
        master_length=p,
        seed=-1,
        time_series=w1.time_series + w2.time_series,
    )
    req = SteeringRequest(delay=4.731 * DT, doppler=0.0, times=np.arange(200) * DT)
    lhs = wfm.evaluate(summed, req)
    rhs = wfm.evaluate(w1, req) + wfm.evaluate(w2, req)
    assert np.allclose(lhs, rhs, rtol=1e-12, atol=1e-12)


def test_window_overrun_detected():
    wf = wfm.generate(1, 16e6, FS, 512)
    times = np.arange(400) * DT
    with pytest.raises(WindowOverrunError):
        wfm.evaluate(wf, SteeringRequest(delay=0.0, doppler=0.0, times=times))
    # the same times on the chirp-z path (migrating delay)
    with pytest.raises(WindowOverrunError):
        wfm.evaluate(wf, SteeringRequest(delay=2.3 * DT, doppler=3e6, times=times,
                                         migrating=True, carrier=2 * np.pi * 600e6))


def _direct_bin_sum(wf, times, derivative):
    """The waveform by its definition: one exponential per time and bin."""
    nonzero = wf.bin_amplitudes != 0
    freqs = wf.bin_frequencies[nonzero]
    amps = wf.bin_amplitudes[nonzero]
    if derivative:
        amps = amps * (2j * np.pi * freqs)
    return np.exp(2j * np.pi * np.outer(times, freqs)) @ amps / np.sqrt(wf.master_length)


@pytest.mark.parametrize("derivative", [False, True])
@pytest.mark.parametrize("master", [1024, 8192])
def test_bin_sum_matches_direct_sum(master, derivative):
    wf = wfm.generate(17, 16e6, FS, master)
    rng = np.random.default_rng(master)
    times = rng.uniform(-0.49, 0.49, 1500) * wf.period  # unsorted, off the lattice
    got = wfm._bin_sum(wf, times, derivative)
    want = _direct_bin_sum(wf, times, derivative)
    assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


def _migrating_times(n, tau, doppler, times=None):
    """A caller's migrating delayed times, rounded as ``_delayed_times`` rounds them."""
    req = SteeringRequest(delay=tau, doppler=doppler, times=np.arange(n) * DT if times is None
                          else times, migrating=True, carrier=CARRIER)
    return wfm._delayed_times(req)


@pytest.mark.parametrize("derivative", [False, True])
@pytest.mark.parametrize("doppler", [7.15e5, -7.15e5, 3e6, -3e6])
@pytest.mark.parametrize("n, master", [(1024, 4096), (2048, 8192)])
def test_progression_path_matches_direct_sum(n, master, doppler, derivative):
    wf = wfm.generate(11, 16e6, FS, master)
    full = np.arange(n) * DT
    # whole window, a sparse 8-batch and a consecutive 8-batch, as callers slice them
    for times in (full, full[3::8], full[3 * n // 8 : 4 * n // 8]):
        t = _migrating_times(n, 23.37 * DT, doppler, times)
        got = wfm._eval_times(wf, t, derivative)
        want = _direct_bin_sum(wf, t, derivative)
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


@pytest.mark.parametrize("derivative", [False, True])
@pytest.mark.parametrize("step", [1 + 2.0**-12, 1 - 2.0**-12, 8 + 2.0**-9])
def test_chirp_z_is_exact_on_a_dyadic_progression(step, derivative):
    # a power-of-two sample rate and dyadic u0 and step keep every sample
    # position j*(u0 + n*step) exact, so the reference's phases are exact
    # turns; a chirp whose large phase r*m^2/(2M) met floating point whole
    # would be off by ~5e-13
    rate = 2.0**24
    wf = wfm.generate(47, 0.64 * rate, rate, 8192)
    u = -23.375 + step * np.arange(2048 if step < 2 else 512)
    j = np.rint(wf.bin_frequencies / wf.bin_frequencies[1])[wf.bin_amplitudes != 0]
    amps = wf.bin_amplitudes[wf.bin_amplitudes != 0]
    if derivative:
        amps = amps * (2j * np.pi * j * rate / 8192)
    want = np.concatenate([
        np.exp(2j * np.pi * (np.outer(u[i : i + 256], j) % 8192 / 8192)) @ amps
        for i in range(0, u.size, 256)
    ]) / np.sqrt(8192)
    got = wfm._eval_times(wf, u / rate, derivative)
    assert np.linalg.norm(got - want) <= 1e-14 * np.linalg.norm(want)


def test_progression_path_at_batched_size():
    # criterion 7's size: the progression is evaluated to ~1e-15, and the
    # caller's times deviate from it by ~0.6 ulp rms; measured 7.1e-13 to
    # 1.8e-12 relative over +-7.15e5 and +-3e6 rad/s, value and derivative.
    # The reference takes every 8th time, to keep the direct sum small.
    wf = wfm.generate(11, 16e6, FS, 32768)
    t = _migrating_times(8192, 23.37 * DT, 7.15e5)
    for derivative in (False, True):
        got = wfm._eval_times(wf, t, derivative)[::8]
        want = _direct_bin_sum(wf, t[::8], derivative)
        assert np.linalg.norm(got - want) <= 3e-12 * np.linalg.norm(want)


def test_progression_test_is_ulp_level(monkeypatch):
    wf = wfm.generate(43, 16e6, FS, 4096)
    t = _migrating_times(512, 7.3 * DT, 2e6)
    calls = []
    reference = wfm._bin_sum
    monkeypatch.setattr(wfm, "_bin_sum", lambda *args: calls.append(args) or reference(*args))
    wfm._eval_times(wf, t, False)
    assert calls == []
    # one time moved by 1e-6 samples leaves the progression
    bent = t.copy()
    bent[200] += 1e-6 * DT
    got = wfm._eval_times(wf, bent, False)
    assert len(calls) == 1
    want = _direct_bin_sum(wf, bent, False)
    assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


@pytest.mark.parametrize("name", ["bistatic", "multistatic"])
def test_shipped_migrating_commands_skip_the_bin_sum(name, monkeypatch, tmp_path):
    path = os.path.join(SCENARIOS, f"{name}_example.yaml")
    reference = wfm._bin_sum
    calls = []

    def spy(*args):
        calls.append(args)
        return reference(*args)

    monkeypatch.setattr(wfm, "_bin_sum", spy)
    runs = [
        ("simulate", []),
        ("theory", []),
        ("theory", ["batching.count=8", "batching.mode=sparse"]),
        ("theory", ["batching.count=8", "batching.mode=consecutive"]),
    ]
    for i, (command, extra) in enumerate(runs):
        argv = [command, "--config", path, "--out", str(tmp_path / str(i)), "--set", "migration=true"]
        for item in extra:
            argv += ["--set", item]
        assert cli.main(argv) == 0
    scn, _ = config.parse_config(path, ["migration=true"])
    objective = analysis.noise_free_objective(scn)
    if scn.n_nodes == 1:
        assert objective(scene.node_truth(scn, 0)) > 0
    else:
        assert objective(scn.target.as_vector()) > 0
    assert calls == []
    # the spy sees a time set that is no progression
    wfm._eval_times(scene.scenario_waveform(scn), np.array([0.0, 1.5, 2.25]) * DT, False)
    assert len(calls) == 1


def test_common_offset_wraps_modulo_one(monkeypatch):
    # t_n = n / Fs gives positions n*(1 +- ulp): fractional parts straddle 0
    wf = wfm.generate(37, 16e6, FS, 4096)
    times = np.arange(1024) / FS
    frac = times * FS - np.floor(times * FS)
    assert frac.max() > 0.5
    reference = wfm._bin_sum
    calls = []

    def spy(*args):
        calls.append(args)
        return reference(*args)

    monkeypatch.setattr(wfm, "_bin_sum", spy)
    for samples in (0, 3, 17):
        req = SteeringRequest(delay=samples * DT, doppler=2e4, times=times)
        got = wfm.steering_jacobian(wf, req)[:, 0]
        want = -reference(wf, times - req.delay, True) * wfm.dft_vector(req.doppler, times)
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)
    assert calls == []


def test_near_lattice_delay_is_not_snapped():
    wf = wfm.generate(41, 16e6, FS, 2048)
    times = np.arange(300) * DT
    tau = (3 + 5e-7) * DT
    got = wfm.evaluate(wf, SteeringRequest(delay=tau, doppler=0.0, times=times))
    want = _direct_bin_sum(wf, times - tau, derivative=False)
    assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


def test_fractional_delay_matches_bin_sum():
    # the common-offset FFT path must agree with the direct bin sum
    wf = wfm.generate(11, 16e6, FS, 1024)
    times = np.arange(64) * DT
    tau = 7.3917 * DT
    fast = wfm.evaluate(wf, SteeringRequest(delay=tau, doppler=0.0, times=times))
    slow = wfm._bin_sum(wf, times - tau, derivative=False)
    assert np.allclose(fast, slow, rtol=1e-10, atol=1e-12)


def test_derivative_single_tone():
    p = 1024
    wf = wfm.generate(0, 16e6, FS, p)
    amps = np.zeros(p, dtype=complex)
    k0 = 37
    amps[k0] = 1.0
    tone = wfm.MasterWaveform(
        bin_amplitudes=amps,
        bin_frequencies=wf.bin_frequencies,
        bandwidth=16e6,
        sample_rate=FS,
        master_length=p,
        seed=-1,
        time_series=np.sqrt(p) * np.fft.ifft(amps),
    )
    f0 = tone.bin_frequencies[k0]
    times = np.arange(50) * DT
    req = SteeringRequest(delay=3.21 * DT, doppler=0.0, times=times)
    val = wfm.evaluate(tone, req)
    der = wfm.evaluate_derivative(tone, req)
    assert np.allclose(der, -2j * np.pi * f0 * val, rtol=1e-12)


def test_derivative_zero_frequency_bin():
    p = 512
    freqs = np.fft.fftfreq(p, DT)
    amps = np.zeros(p, dtype=complex)
    amps[0] = 1.0  # DC only
    dc = wfm.MasterWaveform(
        bin_amplitudes=amps,
        bin_frequencies=freqs,
        bandwidth=16e6,
        sample_rate=FS,
        master_length=p,
        seed=-1,
        time_series=np.sqrt(p) * np.fft.ifft(amps),
    )
    req = SteeringRequest(delay=2.5 * DT, doppler=0.0, times=np.arange(30) * DT)
    assert np.all(wfm.evaluate_derivative(dc, req) == 0)


def test_derivative_matches_finite_differences():
    wf = wfm.generate(13, 16e6, FS, 2048)
    times = np.arange(200) * DT
    tau = 9.417 * DT
    h = 1e-4 / 16e6
    der = wfm.evaluate_derivative(wf, SteeringRequest(delay=tau, doppler=0.0, times=times))

    def at(delay):
        return wfm.evaluate(wf, SteeringRequest(delay=delay, doppler=0.0, times=times))

    # fourth-order central stencil at the base step
    fd = (at(tau - 2 * h) - 8 * at(tau - h) + 8 * at(tau + h) - at(tau + 2 * h)) / (12 * h)
    assert np.linalg.norm(der - fd) <= 1e-8 * np.linalg.norm(der)


def test_dft_vector_properties():
    times = np.arange(64) * DT
    assert np.all(wfm.dft_vector(0.0, times) == 1.0)
    v = wfm.dft_vector(1.23e5, times)
    assert np.linalg.norm(v) ** 2 == pytest.approx(64.0, rel=1e-14)
    assert np.allclose(v * wfm.dft_vector(-1.23e5, times), 1.0, rtol=1e-14)


def test_steering_norm_and_reductions():
    wf = wfm.generate(17, 16e6, FS, 2048)
    times = np.arange(256) * DT
    tau, omega = 6.31 * DT, 4.2 * 2 * np.pi / (256 * DT)
    plain = wfm.evaluate(wf, SteeringRequest(delay=tau, doppler=0.0, times=times))
    steer = wfm.steering(wf, SteeringRequest(delay=tau, doppler=omega, times=times))
    assert np.linalg.norm(steer) == pytest.approx(np.linalg.norm(plain), rel=1e-14)
    # zero delay/Doppler gives the raw samples
    s0 = wfm.steering(wf, SteeringRequest(delay=0.0, doppler=0.0, times=times))
    assert np.allclose(s0, wf.time_series[:256], atol=1e-12)
    # migrating form reduces to static at zero Doppler
    mig = wfm.steering(
        wf,
        SteeringRequest(delay=tau, doppler=0.0, times=times, migrating=True,
                        carrier=2 * np.pi * 600e6),
    )
    stat = wfm.steering(wf, SteeringRequest(delay=tau, doppler=0.0, times=times))
    assert np.allclose(mig, stat, rtol=1e-12)


@pytest.mark.parametrize("migrating", [False, True])
def test_steering_jacobian_matches_finite_differences(migrating):
    wf = wfm.generate(19, 16e6, FS, 4096)
    times = np.arange(256) * DT
    carrier = 2 * np.pi * 600e6
    rng = np.random.default_rng(5)
    cell = 2 * np.pi / (256 * DT)
    worst = 0.0
    for _ in range(25):
        tau = rng.uniform(2, 30) * DT
        omega = rng.uniform(-20, 20) * cell
        req = SteeringRequest(delay=tau, doppler=omega, times=times,
                              migrating=migrating, carrier=carrier)
        jac = wfm.steering_jacobian(wf, req)
        h_tau, h_om = 1e-5 * DT, 1e-5 * cell
        for col, (dt_, dw) in enumerate([(h_tau, 0.0), (0.0, h_om)]):
            hi = wfm.steering(wf, SteeringRequest(delay=tau + dt_, doppler=omega + dw,
                                                  times=times, migrating=migrating,
                                                  carrier=carrier))
            lo = wfm.steering(wf, SteeringRequest(delay=tau - dt_, doppler=omega - dw,
                                                  times=times, migrating=migrating,
                                                  carrier=carrier))
            fd = (hi - lo) / (2 * (dt_ + dw))
            rel = np.linalg.norm(jac[:, col] - fd) / np.linalg.norm(fd)
            worst = max(worst, rel)
    assert worst <= 1e-6


def test_steering_jacobian_first_sample_omega_column():
    wf = wfm.generate(23, 16e6, FS, 1024)
    times = np.arange(64) * DT  # t_0 = 0
    req = SteeringRequest(delay=3.7 * DT, doppler=5e4, times=times,
                          migrating=True, carrier=2 * np.pi * 600e6)
    jac = wfm.steering_jacobian(wf, req)
    assert jac[0, 1] == 0.0


def test_steering_jacobian_theta_mode_velocity_columns():
    wf = wfm.generate(29, 16e6, FS, 1024)
    times = np.arange(64) * DT
    req = SteeringRequest(delay=3.7 * DT, doppler=5e4, times=times)
    geom = np.array([[1e-9, 2e-9, 0.0, 0.0], [0.1, 0.2, 0.3, 0.4]])
    jac = wfm.steering_jacobian(wf, req, geometry_jacobian=geom)
    assert jac.shape == (64, 4)
    cols2 = wfm.steering_jacobian(wf, req)
    assert np.allclose(jac, cols2 @ geom, rtol=1e-14)
    # delay part of the state columns vanishes where the map has no velocity
    # dependence: columns 3,4 here only carry the Doppler derivative
    pure_omega = cols2[:, 1][:, None] * geom[1, 2:][None, :]
    assert np.allclose(jac[:, 2:], pure_omega, rtol=1e-14)
