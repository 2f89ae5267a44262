import numpy as np
import pytest
from scipy.special import i0 as scipy_i0
from scipy.special import i1 as scipy_i1

from conftest import FS, dd_scene, doppler_cell
from ecalab import eca, scene
from ecalab import waveform as wfm
from ecalab.eca import (
    DegenerateSteeringError,
    DelayRangeError,
    RankDeficiencyError,
    batch_split,
    frame_spectrum,
    interference_basis,
    project_out,
    rc_steering,
    spectrum_grid,
    spectrum_value,
)

DT = 1 / FS


def simulate(scn):
    return scene.simulate(scn)


def test_basis_span_matches_true_interference_noise_free():
    scn = dd_scene(sc_var=0.0)
    wf, records = simulate(scn)
    basis = interference_basis(records[0], scn.clutter_taps)
    true_cols = [wf.time_series[: scn.n_samples]]
    mat = scene.clutter_matrix(wf, scn, 0)
    true_cols += [mat[:, l] for l in range(scn.clutter_taps)]
    q_true, _ = np.linalg.qr(np.column_stack(true_cols))
    # principal angles between the two spans
    sv = np.linalg.svd(basis.orthonormal.conj().T @ q_true, compute_uv=False)
    assert np.all(np.abs(sv - 1.0) <= 1e-8)


def test_basis_annihilates_own_columns(small_scene):
    _, records = simulate(small_scene)
    basis = interference_basis(records[0], small_scene.clutter_taps)
    for l in range(basis.columns.shape[1]):
        col = basis.columns[:, l]
        assert np.linalg.norm(project_out(basis, col)) <= 1e-10 * np.linalg.norm(col)


def test_projection_idempotent_and_pythagoras(small_scene):
    _, records = simulate(small_scene)
    basis = interference_basis(records[0], small_scene.clutter_taps)
    rng = np.random.default_rng(0)
    v = rng.standard_normal(small_scene.n_samples) + 1j * rng.standard_normal(
        small_scene.n_samples
    )
    once = project_out(basis, v)
    assert np.linalg.norm(project_out(basis, once) - once) <= 1e-10 * np.linalg.norm(v)
    u = basis.orthonormal
    inside = u @ (u.conj().T @ v)
    gap = abs(np.linalg.norm(once) ** 2 + np.linalg.norm(inside) ** 2 - np.linalg.norm(v) ** 2)
    assert gap <= 1e-10 * np.linalg.norm(v) ** 2
    # vectors already orthogonal to the span pass through unchanged
    assert np.allclose(project_out(basis, once), once, atol=1e-10 * np.linalg.norm(v))


def test_rank_deficient_reference_detected(small_scene):
    _, records = simulate(small_scene)
    rec = records[0]
    broken = scene.NodeRecord(
        reference=np.ones_like(rec.reference),  # constant: delayed copies collide
        surveillance=rec.surveillance,
        n_indices=rec.n_indices,
        sample_interval=rec.sample_interval,
        max_delay_samples=rec.max_delay_samples,
        truth=rec.truth,
    )
    with pytest.raises(RankDeficiencyError):
        interference_basis(broken, small_scene.clutter_taps)


def test_rc_steering_lattice_collapse(small_scene):
    _, records = simulate(small_scene)
    rec = records[0]
    m = 9
    steer = rc_steering(rec, m * DT, 0.0)
    window = rec.reference[
        rec.max_delay_samples - m : rec.max_delay_samples - m + small_scene.n_samples
    ]
    assert np.allclose(steer, window, rtol=1e-9, atol=1e-12)


def test_rc_steering_matches_true_waveform_steering():
    scn = dd_scene(sc_var=0.0)
    wf, records = simulate(scn)
    rec = records[0]
    tau, omega = scene.node_truth(scn, 0)
    approx = rc_steering(rec, tau, omega)
    exact = scn.amplitudes[0].rc * wfm.steering(
        wf, wfm.SteeringRequest(delay=tau, doppler=omega, times=rec.times)
    )
    rel = np.linalg.norm(approx - exact) / np.linalg.norm(exact)
    assert rel <= 1e-4  # -80 dB interpolation accuracy contract


def test_rc_steering_range_errors(small_scene):
    _, records = simulate(small_scene)
    rec = records[0]
    with pytest.raises(DelayRangeError):
        rc_steering(rec, (small_scene.max_delay_samples - 10) * DT, 0.0)
    with pytest.raises(DelayRangeError):
        rc_steering(rec, -2.0 * DT, 0.0)


def test_spectrum_quotient_properties(small_scene):
    _, records = simulate(small_scene)
    rec = records[0]
    basis = interference_basis(rec, small_scene.clutter_taps)
    tau, omega = rec.truth[:2]
    steer = rc_steering(rec, tau, omega)
    p = spectrum_value(rec.surveillance, basis, steer)
    assert p >= 0
    # scaling the steering vector leaves the quotient unchanged
    p2 = spectrum_value(rec.surveillance, basis, (2.3 - 0.4j) * steer)
    assert p2 == pytest.approx(p, rel=1e-12)
    # y orthogonal to the cleaned steering gives zero
    z = project_out(basis, steer)
    y_perp = rec.surveillance - z * (np.vdot(z, rec.surveillance) / np.vdot(z, z))
    assert spectrum_value(y_perp, basis, steer) <= 1e-16 * p


def test_spectrum_degenerate_steering_raises(small_scene):
    _, records = simulate(small_scene)
    rec = records[0]
    basis = interference_basis(rec, small_scene.clutter_taps)
    # zero Doppler at an in-clutter lattice delay lies inside the span
    steer = rc_steering(rec, 1.0 * DT, 0.0)
    with pytest.raises(DegenerateSteeringError):
        spectrum_value(rec.surveillance, basis, steer)


def test_reference_amplitude_invariance(small_scene):
    _, records = simulate(small_scene)
    rec = records[0]
    tau, omega = rec.truth[:2]
    basis = interference_basis(rec, small_scene.clutter_taps)
    p1 = spectrum_value(rec.surveillance, basis, rc_steering(rec, tau, omega))
    scaled = scene.NodeRecord(
        reference=(0.02 + 0.7j) * rec.reference,
        surveillance=rec.surveillance,
        n_indices=rec.n_indices,
        sample_interval=rec.sample_interval,
        max_delay_samples=rec.max_delay_samples,
        truth=rec.truth,
    )
    basis2 = interference_basis(scaled, small_scene.clutter_taps)
    p2 = spectrum_value(scaled.surveillance, basis2, rc_steering(scaled, tau, omega))
    assert abs(p1 - p2) <= 1e-10 * abs(p1)


def test_spectrum_equals_joint_least_squares_residual_small():
    scn = dd_scene(n_samples=64, master=512, max_delay=24, taps=3, tau_cells=5.4,
                   omega_cells=3.1)
    _, records = simulate(scn)
    rec = records[0]
    basis = interference_basis(rec, scn.clutter_taps)
    y = rec.surveillance
    cleaned_energy = np.linalg.norm(project_out(basis, y)) ** 2
    rng = np.random.default_rng(1)
    for _ in range(6):
        tau = rng.uniform(2, 7) * DT
        omega = rng.uniform(-4, 4) * doppler_cell(scn.n_samples)
        steer = rc_steering(rec, tau, omega)
        p = spectrum_value(y, basis, steer)
        design = np.column_stack([basis.columns, steer])
        coef, *_ = np.linalg.lstsq(design, y, rcond=None)
        residual = np.linalg.norm(y - design @ coef) ** 2
        assert abs((cleaned_energy - residual) - p) <= 1e-8 * max(p, 1e-30)


def test_grid_matches_pointwise_values(small_scene):
    _, records = simulate(small_scene)
    rec = records[0]
    basis = interference_basis(rec, small_scene.clutter_taps)
    tau_grid = np.array([4.0, 9.5, 14.2]) * DT
    omega_grid = np.array([-3.0, 0.5, 6.3]) * doppler_cell(small_scene.n_samples)
    surface = spectrum_grid(rec, basis, tau_grid, omega_grid)
    for i, tau in enumerate(tau_grid):
        for j, omega in enumerate(omega_grid):
            direct = spectrum_value(
                rec.surveillance, basis, rc_steering(rec, tau, omega)
            )
            assert surface.values[i, j] == pytest.approx(direct, rel=1e-9)


def test_grid_noise_free_peak_at_truth():
    scn = dd_scene(sc_var=0.0, tau_cells=14.25, omega_cells=6.0)
    _, records = simulate(scn)
    rec = records[0]
    basis = interference_basis(rec, scn.clutter_taps)
    cell = doppler_cell(scn.n_samples)
    tau_grid = np.arange(0, 30, 0.25) * DT
    omega_grid = np.arange(-10, 10.01, 0.25) * cell
    surface = spectrum_grid(rec, basis, tau_grid, omega_grid)
    i, j = np.unravel_index(np.nanargmax(surface.values), surface.values.shape)
    assert abs(tau_grid[i] - rec.truth[0]) <= 0.25 * DT + 1e-15
    assert abs(omega_grid[j] - rec.truth[1]) <= 0.25 * cell * (1 + 1e-12)
    assert np.all(surface.values[np.isfinite(surface.values)] >= 0)


def test_grid_null_noise_only_statistics():
    scn = dd_scene(n_samples=1024, master=4096, sc_snr_db=20.0)
    amps = (scene.NodeAmplitudes(rc=1.0, dpi=0.0, target=0.0, clutter=np.zeros(3)),)
    scn = scn.replace(amplitudes=amps, sc_noise_var=0.5, rc_noise_var=0.0)
    _, records = simulate(scn)
    rec = records[0]
    basis = interference_basis(rec, scn.clutter_taps)
    cell = doppler_cell(scn.n_samples)
    surface = spectrum_grid(
        rec,
        basis,
        np.arange(2, 30, 1.0) * DT,
        np.arange(-16, 16.01, 1.0) * cell,
    )
    vals = surface.values[np.isfinite(surface.values)]
    # cleaned-noise quotient is exponential with mean sc variance: the surface
    # max stays at the extreme-value scale, no dominant peak
    assert 0.5 * scn.sc_noise_var <= vals.mean() <= 2.0 * scn.sc_noise_var
    assert vals.max() <= scn.sc_noise_var * (np.log(vals.size) + 10)


def test_batch_split_consecutive_and_sparse(small_scene):
    _, records = simulate(small_scene)
    rec = records[0]
    assert batch_split(rec, 1, "consecutive") == [rec]
    for mode in ("consecutive", "sparse"):
        parts = batch_split(rec, 4, mode)
        assert len(parts) == 4
        rebuilt = np.empty_like(rec.surveillance)
        for part in parts:
            rebuilt[part.n_indices] = part.surveillance
        assert np.array_equal(rebuilt, rec.surveillance)
        assert all(part.reference is rec.reference for part in parts)
    with pytest.raises(ValueError):
        batch_split(rec, 5, "consecutive")


def test_frame_spectrum_reductions():
    scn = dd_scene(n_samples=512, omega_cells=5.5)
    _, records = simulate(scn)
    rec = records[0]
    tau, omega = rec.truth[:2]
    single = frame_spectrum(
        [rec], [interference_basis(rec, scn.clutter_taps)], tau, omega
    )
    direct = spectrum_value(
        rec.surveillance,
        interference_basis(rec, scn.clutter_taps),
        rc_steering(rec, tau, omega),
    )
    assert single == pytest.approx(direct, rel=1e-12)
    batches = batch_split(rec, 4, "sparse")
    bases = [interference_basis(b, scn.clutter_taps) for b in batches]
    total = frame_spectrum(batches, bases, tau, omega)
    parts = [
        spectrum_value(b.surveillance, basis, rc_steering(b, tau, omega))
        for b, basis in zip(batches, bases)
    ]
    assert total == pytest.approx(sum(parts), rel=1e-12)


def test_frame_spectrum_sparse_noise_free_peak():
    scn = dd_scene(sc_var=0.0, n_samples=512, omega_cells=4.0,
                   m_batches=4, batch_mode="sparse")
    _, records = simulate(scn)
    rec = records[0]
    batches = batch_split(rec, 4, "sparse")
    bases = [interference_basis(b, scn.clutter_taps) for b in batches]
    tau0, omega0 = rec.truth[:2]
    cell = doppler_cell(scn.n_samples)
    peak = frame_spectrum(batches, bases, tau0, omega0)
    for dt_, dw in [(0.5, 0.0), (-0.5, 0.0), (0.0, 0.5), (0.0, -0.5)]:
        off = frame_spectrum(batches, bases, tau0 + dt_ * DT, omega0 + dw * cell)
        assert off < peak


def test_migrating_rc_steering_tracks_echo():
    carrier = 2 * np.pi * 600e6
    scn = dd_scene(sc_var=0.0, n_samples=2048, master=8192, max_delay=48,
                   omega_cells=200.0, migration=True)
    wf, records = simulate(scn)
    rec = records[0]
    tau, omega = rec.truth[:2]
    mig = rc_steering(rec, tau, omega, migrating=True, carrier=carrier)
    exact = scn.amplitudes[0].rc * wfm.steering(
        wf,
        wfm.SteeringRequest(delay=tau, doppler=omega, times=rec.times,
                            migrating=True, carrier=carrier),
    )
    assert np.linalg.norm(mig - exact) <= 1e-4 * np.linalg.norm(exact)


def _per_sample_steering(record, tau, omega, migrating=False, carrier=None):
    """Reference-derived steering by its definition: every sample gets its own
    Kaiser-sinc taps, gathered from the reference record.  Positions are
    formed in extended precision so their fractional parts carry no rounding
    from the sample index."""
    w = eca.INTERP_HALFWIDTH
    n = record.n_indices.astype(np.longdouble)
    dt = np.longdouble(record.sample_interval)
    positions = record.max_delay_samples + n - np.longdouble(tau) / dt
    if migrating:
        positions = positions + np.longdouble(omega / carrier) * n
    base = np.floor(positions)
    frac = np.asarray(positions - base, dtype=float)
    offsets = frac[:, None] - np.arange(-w + 1, w + 1)
    x = offsets / w
    taps = np.sinc(offsets) * np.i0(eca.KAISER_BETA * np.sqrt(1 - x * x)) / np.i0(
        eca.KAISER_BETA
    )
    idx = base.astype(np.int64)[:, None] + np.arange(-w + 1, w + 1)
    delayed = np.sum(record.reference[idx] * taps, axis=1)
    return delayed * np.exp(1j * omega * record.times)


def _reference_frame_spectrum(batches, bases, tau, omega, migrating=False, carrier=None):
    total = 0.0
    for b, basis in zip(batches, bases):
        z = project_out(basis, _per_sample_steering(b, tau, omega, migrating, carrier))
        y_clean = project_out(basis, b.surveillance)
        total += abs(np.vdot(z, y_clean)) ** 2 / np.vdot(z, z).real
    return total


@pytest.mark.parametrize(
    "m_batches, mode, migration",
    [(1, "consecutive", False), (4, "consecutive", False), (4, "sparse", False),
     (4, "sparse", True), (1, "consecutive", True)],
)
def test_frame_spectrum_matches_per_batch_definition(m_batches, mode, migration):
    scn = dd_scene(n_samples=512, omega_cells=5.5, m_batches=m_batches,
                   batch_mode=mode, migration=migration)
    _, records = simulate(scn)
    rec = records[0]
    carrier = scn.nodes[0].carrier_angular_frequency
    batches = batch_split(rec, m_batches, mode)
    bases = [interference_basis(b, scn.clutter_taps) for b in batches]
    rng = np.random.default_rng(m_batches + 10 * migration)
    cell = doppler_cell(scn.n_samples)
    for _ in range(6):
        tau = rec.truth[0] + rng.uniform(-3, 3) * DT
        omega = rec.truth[1] + rng.uniform(-3, 3) * cell
        got = frame_spectrum(batches, bases, tau, omega, migration, carrier)
        want = _reference_frame_spectrum(batches, bases, tau, omega, migration, carrier)
        assert got == pytest.approx(want, rel=1e-10)


def test_rc_steering_long_record_matches_per_sample_definition():
    # at N=65,536 the float positions n - tau*Fs spread their fractional
    # parts by ~7e-12; the steering still shares the offset of tau
    scn = dd_scene(sc_var=0.0, n_samples=65536, master=262144, max_delay=64,
                   tau_cells=23.37, omega_cells=37.3)
    _, records = simulate(scn)
    rec = records[0]
    tau, omega = rec.truth[:2]
    positions = rec.max_delay_samples + (rec.n_indices - tau / DT)
    frac = positions - np.floor(positions)
    assert np.ptp(frac) > 1e-12
    got = rc_steering(rec, tau, omega)
    want = _per_sample_steering(rec, tau, omega)
    assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


def test_migrating_steering_at_zero_doppler_matches_per_sample_definition(small_scene):
    _, records = simulate(small_scene)
    rec = records[0]
    carrier = small_scene.nodes[0].carrier_angular_frequency
    for tau in (3.3 * DT, 9.0 * DT, 20.61 * DT):
        got = rc_steering(rec, tau, 0.0, migrating=True, carrier=carrier)
        want = _per_sample_steering(rec, tau, 0.0, migrating=True, carrier=carrier)
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


@pytest.mark.parametrize("migrating", [False, True])
def test_grid_cells_equal_spectrum_value(small_scene, migrating):
    _, records = simulate(small_scene)
    rec = records[0]
    carrier = small_scene.nodes[0].carrier_angular_frequency
    basis = interference_basis(rec, small_scene.clutter_taps)
    tau_grid = np.array([3.0, 7.75, 12.4]) * DT
    omega_grid = np.array([-2.5, 0.0, 1.0, 4.2]) * doppler_cell(small_scene.n_samples)
    surface = spectrum_grid(rec, basis, tau_grid, omega_grid, migrating, carrier)
    for i, tau in enumerate(tau_grid):
        for j, omega in enumerate(omega_grid):
            steer = rc_steering(rec, tau, omega, migrating, carrier)
            try:
                direct = spectrum_value(rec.surveillance, basis, steer)
            except DegenerateSteeringError:
                assert np.isnan(surface.values[i, j])
                continue
            assert surface.values[i, j] == pytest.approx(direct, rel=1e-10)


@pytest.mark.parametrize("sparse", [False, True])
@pytest.mark.parametrize("tau_step", [1.0, 0.25, 0.3])
def test_migrating_grid_matches_per_cell_definition(small_scene, tau_step, sparse, monkeypatch):
    # whole-sample rows share one set of taps, quarter-sample rows four, and
    # 0.3-sample rows ten; the 1e-3 rad/s column is degenerate at delays on
    # the interference lattice (0..3 samples).  The gather budget holds five
    # rows, so groups span several chunks.  A sparse batch view has every
    # fourth sample.
    _, records = simulate(small_scene)
    rec = batch_split(records[0], 4, "sparse")[1] if sparse else records[0]
    monkeypatch.setattr(eca, "GATHER_BUDGET_BYTES", 5 * 32 * 16 * rec.n_indices.size)
    carrier = small_scene.nodes[0].carrier_angular_frequency
    basis = interference_basis(rec, small_scene.clutter_taps)
    tau_grid = np.arange(0.0, 21.0, tau_step) * DT
    omega_grid = np.array([-7.5, -1.0, 0.0, 1e-3 / doppler_cell(small_scene.n_samples), 2.2])
    omega_grid = omega_grid * doppler_cell(small_scene.n_samples)
    surface = spectrum_grid(rec, basis, tau_grid, omega_grid, True, carrier)
    want = np.full(surface.values.shape, np.nan)
    for i, tau in enumerate(tau_grid):
        for j, omega in enumerate(omega_grid):
            steer = rc_steering(rec, tau, omega, True, carrier)
            try:
                want[i, j] = eca.projected_power(steer, basis.orthonormal, basis.y_clean)
            except DegenerateSteeringError:
                pass
    assert np.isnan(want[0, 3]) and not np.isnan(want[:, 4]).any()
    assert np.array_equal(np.isnan(surface.values), np.isnan(want))
    ok = ~np.isnan(want)
    assert np.all(np.abs(surface.values[ok] - want[ok]) <= 1e-10 * want[ok])


@pytest.mark.parametrize("sparse", [False, True])
def test_static_grid_matches_per_cell_definition(small_scene, sparse, monkeypatch):
    # 0.3-sample rows fall in ten tap groups, and the gather budget holds five
    # rows, so groups span several chunks; the Doppler bins are not uniform.
    # At zero Doppler the delays on the interference lattice (0..3 samples)
    # are degenerate.  No carrier: a static grid does not need one.
    _, records = simulate(small_scene)
    rec = batch_split(records[0], 4, "sparse")[1] if sparse else records[0]
    monkeypatch.setattr(eca, "GATHER_BUDGET_BYTES", 5 * 32 * 16 * rec.n_indices.size)
    basis = interference_basis(rec, small_scene.clutter_taps)
    tau_grid = np.arange(0.0, 21.0, 0.3) * DT
    omega_grid = np.array([-7.5, -1.0, 0.0, 0.4, 2.2, 9.05]) * doppler_cell(small_scene.n_samples)
    surface = spectrum_grid(rec, basis, tau_grid, omega_grid, carrier=None)
    want = np.full(surface.values.shape, np.nan)
    for i, tau in enumerate(tau_grid):
        for j, omega in enumerate(omega_grid):
            steer = rc_steering(rec, tau, omega)
            try:
                want[i, j] = eca.projected_power(steer, basis.orthonormal, basis.y_clean)
            except DegenerateSteeringError:
                pass
    assert np.isnan(want[[0, 10], 2]).all() and not np.isnan(want[:, [0, 4]]).any()
    assert np.array_equal(np.isnan(surface.values), np.isnan(want))
    ok = ~np.isnan(want)
    assert np.all(np.abs(surface.values[ok] - want[ok]) <= 1e-10 * want[ok])


@pytest.mark.parametrize("tau_samples", [-0.5, 26.0])
def test_static_grid_rejects_unsupported_delays(small_scene, tau_samples):
    _, records = simulate(small_scene)
    rec = records[0]
    basis = interference_basis(rec, small_scene.clutter_taps)
    tau_grid = np.array([5.0, tau_samples]) * DT
    omega_grid = np.array([0.0, 2.0]) * doppler_cell(small_scene.n_samples)
    with pytest.raises(DelayRangeError):
        spectrum_grid(rec, basis, tau_grid, omega_grid)


def test_tap_table_matches_kaiser_sinc_definition():
    f = np.concatenate([np.linspace(0.0, 1.0, 100_001)[:-1], [np.nextafter(1.0, 0.0)]])
    base, frac, taps = eca._sample_taps(f)
    assert np.all(base == 0) and np.array_equal(frac, f)
    w = eca.INTERP_HALFWIDTH
    want = eca._kaiser_sinc(f[:, None] - np.arange(-w + 1, w + 1))
    assert np.max(np.abs(taps - want)) <= 1e-14


@pytest.mark.parametrize("sparse", [False, True])
def test_migrating_grid_matches_per_sample_definition_across_whole_samples(small_scene, sparse):
    # at +-100 Doppler cells the delay drifts by ~4 samples over the record,
    # so the per-sample positions cross whole samples several times and each
    # row's windows split into several runs; the 1e-3 rad/s column is
    # degenerate at the delays 0 and 3 samples, on the interference lattice.
    # Double-precision positions put the drifting cells up to ~4e-13 off the
    # definition, while a tap-table column off by 1e-12 moves one of them by
    # >= 5e-12, so their bound is 1.5e-12.  The near-zero column keeps 1e-10:
    # next to the lattice its cleaned steering energy cancels.
    _, records = simulate(small_scene)
    rec = batch_split(records[0], 4, "sparse")[2] if sparse else records[0]
    carrier = small_scene.nodes[0].carrier_angular_frequency
    basis = interference_basis(rec, small_scene.clutter_taps)
    cell = doppler_cell(small_scene.n_samples)
    tau_grid = np.arange(0.0, 19.0, 0.75) * DT
    omega_grid = np.array([-100.0 * cell, 1e-3, 61.7 * cell, 100.0 * cell])
    drift = omega_grid[-1] / carrier * rec.n_indices[-1]
    assert drift > 4
    surface = spectrum_grid(rec, basis, tau_grid, omega_grid, True, carrier)
    want = np.full(surface.values.shape, np.nan)
    for i, tau in enumerate(tau_grid):
        for j, omega in enumerate(omega_grid):
            steer = _per_sample_steering(rec, tau, omega, True, carrier)
            try:
                want[i, j] = eca.projected_power(steer, basis.orthonormal, basis.y_clean)
            except DegenerateSteeringError:
                pass
    assert np.isnan(want[[0, 4], 1]).all() and not np.isnan(want[:, [0, 2, 3]]).any()
    assert np.array_equal(np.isnan(surface.values), np.isnan(want))
    ok = ~np.isnan(want)
    bound = np.array([1.5e-12, 1e-10, 1.5e-12, 1.5e-12]) * want
    assert np.all(np.abs(surface.values - want)[ok] <= bound[ok])


@pytest.mark.parametrize("omega_cells", [np.array([0.0, 2.0]), np.array([2.0])])
@pytest.mark.parametrize("tau_samples", [-0.5, 26.0])
def test_migrating_grid_rejects_unsupported_delays(small_scene, omega_cells, tau_samples):
    _, records = simulate(small_scene)
    rec = records[0]
    basis = interference_basis(rec, small_scene.clutter_taps)
    tau_grid = np.array([5.0, tau_samples]) * DT
    omega_grid = omega_cells * doppler_cell(small_scene.n_samples)
    carrier = small_scene.nodes[0].carrier_angular_frequency
    with pytest.raises(DelayRangeError):
        spectrum_grid(rec, basis, tau_grid, omega_grid, True, carrier)


def test_single_threaded_blas_sets_one_thread_and_restores():
    controls = eca._blas_thread_controls()
    before = [get() for get, _ in controls]
    with pytest.raises(RuntimeError):
        with eca.single_threaded_blas():
            assert [get() for get, _ in controls] == [1] * len(controls)
            raise RuntimeError
    assert [get() for get, _ in controls] == before


def test_interference_basis_rejects_taps_beyond_the_leading_guard():
    scn = dd_scene(sc_var=0.0, n_samples=64, master=512, max_delay=24, taps=3, tau_cells=5.4)
    _, records = simulate(scn)
    with pytest.raises(ValueError, match=r"n_taps \(30\).*max_delay_samples \(24\)"):
        interference_basis(records[0], 30)
    assert interference_basis(records[0], 24).columns.shape == (64, 25)


def test_kaiser_sinc_derivative_taps_match_differences():
    w = eca.INTERP_HALFWIDTH
    edge = w * np.sqrt(1 - 1 / eca.KAISER_BETA**2)  # where the window series takes over
    u = np.concatenate([np.linspace(-w, w, 641), [-0.25, 0.25, 1e-9, -edge, edge]])
    d1, d2 = eca._kaiser_sinc_derivatives(u)
    h = 1e-6
    inside = np.abs(u) < w - h
    fd1 = (eca._kaiser_sinc(u[inside] + h) - eca._kaiser_sinc(u[inside] - h)) / (2 * h)
    fd2 = (eca._kaiser_sinc_derivatives(u[inside] + h)[0]
           - eca._kaiser_sinc_derivatives(u[inside] - h)[0]) / (2 * h)
    assert np.max(np.abs(d1[inside] - fd1)) <= 1e-8
    assert np.max(np.abs(d2[inside] - fd2)) <= 1e-7
    # at |u| = W the kernel ends: one-sided second-order differences
    h = 1e-5
    for end in (-w, w):
        s = np.sign(end)
        points = np.array([end, end - s * h, end - 2 * s * h])
        taps = eca._kaiser_sinc(points)
        slopes = eca._kaiser_sinc_derivatives(points)[0]
        e1, e2 = eca._kaiser_sinc_derivatives(np.array([end]))
        assert e1[0] == pytest.approx(
            s * (3 * taps[0] - 4 * taps[1] + taps[2]) / (2 * h), abs=1e-9
        )
        assert e2[0] == pytest.approx(
            s * (3 * slopes[0] - 4 * slopes[1] + slopes[2]) / (2 * h), abs=1e-8
        )
    # the sinc limits at u = 0 (0 and -pi^2/3) with the window's curvature
    zero = np.array([0.0])
    window_curv = -(eca.KAISER_BETA / w) ** 2 * scipy_i1(eca.KAISER_BETA) / (
        eca.KAISER_BETA * scipy_i0(eca.KAISER_BETA)
    )
    assert eca._kaiser_sinc_derivatives(zero)[0][0] == 0.0
    assert eca._kaiser_sinc_derivatives(zero)[1][0] == pytest.approx(
        -np.pi**2 / 3 + window_curv, rel=1e-14
    )


@pytest.mark.parametrize(
    "m_batches, mode, migration",
    [(1, "consecutive", False), (1, "consecutive", True),
     (8, "sparse", False), (8, "consecutive", False)],
)
def test_frame_spectrum_derivatives_match_differences(m_batches, mode, migration):
    scn = dd_scene(n_samples=512, omega_cells=5.5, m_batches=m_batches,
                   batch_mode=mode, migration=migration)
    _, records = simulate(scn)
    rec = records[0]
    carrier = scn.nodes[0].carrier_angular_frequency
    batches = batch_split(rec, m_batches, mode)
    bases = [interference_basis(b, scn.clutter_taps) for b in batches]
    scales = np.array([DT, doppler_cell(scn.n_samples)])
    # 0.21 samples off the truth keeps every delayed position (fraction
    # 0.42-0.67 of a sample with the migrating drift) away from whole samples,
    # where the truncated kernel's derivatives jump
    point = np.array(rec.truth[:2]) + np.array([0.21, 0.37]) * scales
    value, gradient, hessian = eca.frame_spectrum_derivatives(
        batches, bases, point[0], point[1], migration, carrier
    )

    def spectrum(z):
        tau, omega = z * scales
        return frame_spectrum(batches, bases, tau, omega, migration, carrier)

    z0 = point / scales
    assert value == pytest.approx(spectrum(z0), rel=1e-12)
    h = 1e-4
    steps = h * np.eye(2)
    fd_grad = np.array([(spectrum(z0 + e) - spectrum(z0 - e)) / (2 * h) for e in steps])
    fd_hess = np.array([
        [(spectrum(z0 + a + b) - spectrum(z0 + a - b) - spectrum(z0 - a + b)
          + spectrum(z0 - a - b)) / (4 * h * h) for b in steps]
        for a in steps
    ])
    scaled_grad = gradient * scales
    scaled_hess = hessian * np.outer(scales, scales)
    assert np.allclose(scaled_hess, scaled_hess.T, rtol=1e-12)
    assert np.max(np.abs(scaled_grad - fd_grad)) <= 1e-6 * np.max(np.abs(fd_grad))
    assert np.max(np.abs(scaled_hess - fd_hess)) <= 1e-6 * np.max(np.abs(fd_hess))
