"""Property-based checks of the batch rule, the lagged-column gather and the
one-pass theory, over randomly drawn window lengths, batch counts, batch
modes and clutter tap counts (derandomized, so every run draws the same
examples)."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import dd_scene
from ecalab import analysis, eca, scene

PROPERTY = settings(derandomize=True, max_examples=30, deadline=None, database=None)

batch_counts = st.integers(1, 8)
batch_lengths = st.integers(16, 64)
modes = st.sampled_from(["consecutive", "sparse"])
tap_counts = st.integers(0, 5)


@PROPERTY
@given(batch_counts, st.integers(1, 64), modes)
def test_batch_slices_partition_the_window(m, q, mode):
    n = np.arange(m * q)
    parts = [n[sel] for sel in scene.batch_slices(n.size, m, mode)]
    assert len(parts) == m
    assert all(part.size == q for part in parts)
    assert np.array_equal(np.sort(np.concatenate(parts)), n)


@PROPERTY
@given(batch_counts, st.integers(1, 64), modes, st.integers(0, 2**32 - 1))
def test_batch_split_views_match_the_slices(m, q, mode, seed):
    rng = np.random.default_rng(seed)
    n = m * q
    record = scene.NodeRecord(
        reference=rng.standard_normal(n + 40) + 1j * rng.standard_normal(n + 40),
        surveillance=rng.standard_normal(n) + 1j * rng.standard_normal(n),
        n_indices=np.arange(n),
        sample_interval=1.0,
        max_delay_samples=8,
        truth=(0.0, 0.0, 0.0),
    )
    views = eca.batch_split(record, m, mode)
    for view, sel in zip(views, scene.batch_slices(n, m, mode), strict=True):
        assert np.array_equal(view.n_indices, record.n_indices[sel])
        assert np.array_equal(view.surveillance, record.surveillance[sel])
        assert view.reference is record.reference


@PROPERTY
@given(batch_counts, batch_lengths, modes, tap_counts)
def test_noise_free_interference_columns_are_scaled_true_columns(m, q, mode, taps):
    scn = dd_scene(sc_var=0.0, n_samples=m * q, taps=taps, max_delay=24, master=2048)
    wf = scene.scenario_waveform(scn)
    record = scene.synthesize_node(scn, wf, 0)
    rc = scn.amplitudes[0].rc
    for view in eca.batch_split(record, m, mode):
        lags = view.n_indices[:, None] - np.arange(taps + 1)
        true_columns = wf.time_series[lags % scn.master_length]
        assert np.array_equal(eca.interference_basis(view, taps).columns, rc * true_columns)


@PROPERTY
@given(batch_counts, batch_lengths, modes, tap_counts, st.booleans())
def test_one_pass_theory_matches_its_parts(m, q, mode, taps, migration):
    scn = dd_scene(n_samples=m * q, taps=taps, max_delay=24, master=2048, rc_snr_db=30.0,
                   m_batches=m, batch_mode=mode, migration=migration)
    wf = scene.scenario_waveform(scn)
    report = analysis.asymptotic_covariance(scn, wf)
    h, crb = analysis.hessian_and_crb(scn, wf)
    assert np.array_equal(report.h, h)
    assert np.array_equal(report.crb, crb)
    assert np.array_equal(report.q, analysis.excess_q(scn, wf))
