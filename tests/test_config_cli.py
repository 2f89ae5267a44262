import os

import numpy as np
import pytest
import yaml

from ecalab import cli, output, scene, validate
from ecalab.config import ConfigError, build_scenario, parse_config
from ecalab.seeds import derive_seed

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BISTATIC = os.path.join(ROOT, "scenarios", "bistatic_example.yaml")
MULTI = os.path.join(ROOT, "scenarios", "multistatic_example.yaml")


def minimal_cfg(**extra):
    cfg = {
        "waveform": {"bandwidth_hz": 16.0e6, "sample_rate_hz": 25.0e6, "master_length": 1024},
        "sampling": {"n_samples": 256, "max_delay_samples": 40},
        "carrier_hz": 600.0e6,
        "geometry": {"io_position": [0.0, 0.0], "rn_positions": [[8000.0, 0.0]]},
        "truth": [{"delay_s": 5.68e-7, "doppler_rad_s": 3.8e6}],
        "noise": {"sc_variance": 1.0},
    }
    cfg.update(extra)
    return cfg


def test_minimal_config_defaults():
    scn = build_scenario(minimal_cfg())
    assert scn.seed == 0
    assert scn.clutter_taps == 0
    assert scn.m_batches == 1
    assert scn.batch_mode == "consecutive"
    assert not scn.migration
    assert scn.weights == (1.0,)
    assert abs(scn.amplitudes[0].rc) == pytest.approx(1.0)
    assert abs(scn.amplitudes[0].target) == pytest.approx(1.0)


def test_unknown_key_rejected_with_path():
    cfg = minimal_cfg()
    cfg["waveform"]["bandwith_hz"] = 1.0
    with pytest.raises(ConfigError, match="waveform.bandwith_hz"):
        build_scenario(cfg)


def test_invariant_violation_names_keys():
    cfg = minimal_cfg(clutter={"taps": 100})
    with pytest.raises(ConfigError, match="clutter.taps.*max_delay_samples"):
        build_scenario(cfg)


def test_conflicting_noise_keys_rejected():
    cfg = minimal_cfg()
    cfg["noise"]["rc_variance"] = 1e-6
    cfg["noise"]["rc_snr_db"] = 60.0
    with pytest.raises(ConfigError, match="rc_variance.*rc_snr_db"):
        build_scenario(cfg)


def test_conflicting_amplitude_keys_rejected():
    cfg = minimal_cfg(
        amplitudes={"mode": "explicit", "target_amplitude": 1.0, "sc_snr_db": 10.0}
    )
    with pytest.raises(ConfigError, match="target_amplitude.*sc_snr_db"):
        build_scenario(cfg)


def test_snr_knobs_produce_requested_ratios():
    cfg = minimal_cfg(
        amplitudes={"mode": "explicit", "sc_snr_db": 12.0, "dpi_to_noise_db": 20.0},
        clutter={"taps": 2},
    )
    cfg["amplitudes"]["clutter_to_noise_db"] = 14.0
    cfg["noise"]["rc_snr_db"] = 60.0
    scn = build_scenario(cfg)
    amp = scn.amplitudes[0]
    assert abs(amp.target) ** 2 == pytest.approx(10 ** 1.2, rel=1e-12)
    assert abs(amp.dpi) ** 2 == pytest.approx(10 ** 2.0, rel=1e-12)
    assert np.linalg.norm(amp.clutter) ** 2 == pytest.approx(10 ** 1.4, rel=1e-12)
    assert scn.rc_noise_var == pytest.approx(10 ** -6.0, rel=1e-12)


def test_radar_equation_mode_via_config():
    cfg = minimal_cfg(
        target={"x": 500.0, "y": 400.0, "vx": 50.0, "vy": -60.0},
        amplitudes={
            "mode": "radar_equation",
            "radar_equation": {
                "transmit_power_w": 1.0e3,
                "rcs_m2": 0.02,
                "dpi_sidelobe_db": 30.0,
                "clutter_to_noise_db": 20.0,
                "reference_power_w": 1.0e-14,
            },
        },
        clutter={"taps": 2},
    )
    del cfg["truth"]
    scn = build_scenario(cfg)
    amp = scn.amplitudes[0]
    assert abs(amp.dpi) == pytest.approx(abs(amp.rc) / 10 ** 1.5, rel=1e-12)
    assert abs(amp.target) > 0


def test_parse_config_with_overrides(tmp_path):
    path = tmp_path / "scene.yaml"
    path.write_text(yaml.safe_dump(minimal_cfg()))
    scn, cfg = parse_config(path, ["noise.sc_variance=2.5", "seed=7"])
    assert scn.sc_noise_var == 2.5
    assert scn.seed == 7
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config(path, ["noise.bogus=1"])
    with pytest.raises(ConfigError, match="key=value"):
        parse_config(path, ["freeform"])


def test_example_scenarios_parse():
    for path in (BISTATIC, MULTI):
        scn, cfg = parse_config(path)
        assert scn.n_nodes >= 1


def test_seed_derivation_stable():
    assert derive_seed(5, "noise", 0, 3, "sc") == derive_seed(5, "noise", 0, 3, "sc")
    assert derive_seed(5, "noise", 0, 3, "sc") != derive_seed(5, "noise", 0, 3, "rc")
    assert derive_seed(5, "a") != derive_seed(6, "a")
    # frozen value: the derivation scheme is part of the reproducibility contract
    assert derive_seed(0, "waveform") == 4207871176989744790


def test_csv_round_trip_and_determinism(tmp_path):
    path = tmp_path / "table.csv"
    rows = [(0, 1 / 3, -1.2345678901234567e-12), (1, np.pi, 2.0**-52)]
    output.emit_csv(["i", "a_s", "b_m"], rows, path)
    header, back = output.parse_csv(path)
    assert header == ["i", "a_s", "b_m"]
    for row, orig in zip(back, rows):
        assert row[1] == orig[1] and row[2] == orig[2]
    data1 = path.read_bytes()
    output.emit_csv(["i", "a_s", "b_m"], rows, path)
    assert path.read_bytes() == data1
    assert b"\r" not in data1
    # header-only table
    output.emit_csv(["x"], [], path)
    assert path.read_text() == "x\n"
    with pytest.raises(ValueError):
        output.emit_csv(["x"], [(1, 2)], path)


def test_csv_array_path_writes_the_per_cell_bytes(tmp_path):
    specials = [np.nan, np.inf, -np.inf, -0.0, 5e-324, 1.7976931348623157e308, 0.1, 2.0, -7.0]
    rng = np.random.default_rng(3)
    n_rows = output.CSV_BLOCK_ROWS + 100  # a full block and a partial one
    table = rng.standard_normal((n_rows, 3)) * 10.0 ** rng.integers(-300, 300, (n_rows, 3))
    table.ravel()[: len(specials)] = specials
    table.ravel()[-len(specials):] = specials
    table[5] = [1.0, 1e16, 123.0]
    header = ["tau_s", "omega_rad_s", "value"]
    output.emit_csv(header, table, tmp_path / "array.csv")
    output.emit_csv(header, [tuple(row) for row in table], tmp_path / "cells.csv")
    data = (tmp_path / "array.csv").read_bytes()
    assert data == (tmp_path / "cells.csv").read_bytes()
    assert data.count(b"\n") == n_rows + 1
    assert data.startswith(b"tau_s,omega_rad_s,value\nnan,inf,-inf\n-0,")
    output.emit_csv(header, np.zeros((0, 3)), tmp_path / "empty.csv")
    assert (tmp_path / "empty.csv").read_text() == "tau_s,omega_rad_s,value\n"
    for bad in (np.zeros(3), np.zeros((2, 2))):
        with pytest.raises(ValueError):
            output.emit_csv(header, bad, tmp_path / "bad.csv")


def test_svg_curves(tmp_path):
    path = tmp_path / "plot.svg"
    series = [{"label": "mse", "x": [0.0, 1.0], "y": [1.0, 0.1]}]
    output.emit_svg_curves(series, path, x_label="snr", y_label="mse", log_y=True)
    text = path.read_text()
    assert text.count("<polyline") == 1
    assert "snr" in text and "mse" in text
    data1 = path.read_bytes()
    output.emit_svg_curves(series, path, x_label="snr", y_label="mse", log_y=True)
    assert path.read_bytes() == data1
    with pytest.raises(ValueError):
        output.emit_svg_curves([], path)
    with pytest.raises(ValueError):
        output.emit_svg_curves(
            [{"label": "bad", "x": [0, 1], "y": [0.0, -1.0]}], path, log_y=True
        )


def _run(args):
    return cli.main(args)


def test_cli_simulate_and_spectrum(tmp_path):
    out = tmp_path / "sim"
    rc = _run(["simulate", "--config", BISTATIC, "--out", str(out),
               "--set", "sampling.n_samples=256", "--set", "waveform.master_length=1024",
               "--set", "sampling.max_delay_samples=40",
               "--set", "truth=[{delay_s: 5.68e-7, doppler_rad_s: 3.8e6}]"])
    assert rc == 0
    header, rows = output.parse_csv(out / "node_0.csv")
    assert header == ["n", "ref_re", "ref_im", "surv_re", "surv_im"]
    scn, _ = parse_config(BISTATIC, ["sampling.n_samples=256",
                                     "waveform.master_length=1024",
                                     "sampling.max_delay_samples=40",
                                     "truth=[{delay_s: 5.68e-7, doppler_rad_s: 3.8e6}]"])
    assert len(rows) == scn.max_delay_samples + scn.n_samples + scene.REF_GUARD
    # round trip into spectrum via --records
    out2 = tmp_path / "spec"
    rc = _run(["spectrum", "--config", BISTATIC, "--out", str(out2),
               "--records", str(out), "--svg",
               "--set", "sampling.n_samples=256", "--set", "waveform.master_length=1024",
               "--set", "sampling.max_delay_samples=40",
               "--set", "truth=[{delay_s: 5.68e-7, doppler_rad_s: 3.8e6}]",
               "--set", "grids.tau_step_cells=1.0", "--set", "grids.omega_step_cells=1.0",
               "--set", "grids.omega_halfspan_cells=16.0"])
    assert rc == 0
    header, rows = output.parse_csv(out2 / "surface_node0.csv")
    assert header == ["tau_s", "omega_rad_s", "value"]
    vals = np.array([r[2] for r in rows if isinstance(r[2], float) and np.isfinite(r[2])])
    assert np.all(vals >= 0)
    assert (out2 / "surface_node0.svg").exists()
    # the reconstructed record reproduces the synthesized peak location
    tau_col = np.array([r[0] for r in rows])
    peak_tau = tau_col[int(np.nanargmax([r[2] if np.isfinite(r[2]) else -1 for r in rows]))]
    assert abs(peak_tau - 5.68e-7) <= 2 / 25e6


def test_cli_estimate_theory_sweep(tmp_path, capsys):
    overrides = ["sampling.n_samples=256", "waveform.master_length=1024",
                 "sampling.max_delay_samples=40",
                 "truth=[{delay_s: 5.68e-7, doppler_rad_s: 3.8e6}]",
                 "estimator.trials=3"]
    flat = []
    for o in overrides:
        flat.extend(["--set", o])
    out = tmp_path / "est"
    assert _run(["estimate", "--config", BISTATIC, "--out", str(out)] + flat) == 0
    header, rows = output.parse_csv(out / "estimates.csv")
    assert header[0] == "trial" and len(rows) == 3
    assert all(r[8] == 1 for r in rows)  # converged flag
    assert "3 of 3 trials converged" in capsys.readouterr().out

    out2 = tmp_path / "theory"
    assert _run(["theory", "--config", BISTATIC, "--out", str(out2)] + flat) == 0
    header, rows = output.parse_csv(out2 / "theory.csv")
    assert header == ["quantity", "row", "col", "value"]
    quantities = {r[0] for r in rows}
    assert {"h", "crb", "q", "asymptotic_cov", "efficiency_margin_db"} <= quantities

    out3 = tmp_path / "sweep"
    args = ["sweep", "--config", BISTATIC, "--out", str(out3), "--svg"] + flat
    args += ["--set", "sweep.values=[5.0, 10.0]", "--set", "sweep.trials=3"]
    assert _run(args) == 0
    header, rows = output.parse_csv(out3 / "sweep.csv")
    assert len(rows) == 2
    assert header[0] == "sc_snr_db"
    assert any(h.startswith("mse_tau") for h in header)
    assert (out3 / "sweep.svg").exists()
    # determinism of artifact bytes
    data1 = (out3 / "sweep.csv").read_bytes()
    assert _run(args) == 0
    assert (out3 / "sweep.csv").read_bytes() == data1


def test_cli_track(tmp_path):
    out = tmp_path / "track"
    args = ["track", "--config", MULTI, "--out", str(out),
            "--set", "sampling.n_samples=256", "--set", "waveform.master_length=2048",
            "--set", "track.trials_per_interval=2",
            "--set", "track.intervals=[{x: 10.0, y: 10.0, vx: 141.0, vy: 141.0}]"]
    assert _run(args) == 0
    header, rows = output.parse_csv(out / "track.csv")
    assert header == ["interval", "trial", "x_m", "y_m", "vx_m_s", "vy_m_s", "converged"]
    assert len(rows) == 2
    header2, rows2 = output.parse_csv(out / "ellipses.csv")
    assert len(rows2) == 2  # position and velocity blocks
    assert {r[1] for r in rows2} == {"position", "velocity"}


def test_cli_validate_runs_green(capsys):
    assert cli.main(["validate"]) == 0
    out = capsys.readouterr().out
    assert "FAIL" not in out
    assert out.count("PASS") == len(validate.ALL_CHECKS)


def test_cli_config_error_exit_code(tmp_path):
    bad = tmp_path / "bad.yaml"
    bad.write_text("nonsense_key: 1\n")
    assert cli.main(["theory", "--config", str(bad), "--out", str(tmp_path)]) == 2


def test_cli_simulate_waveform_export(tmp_path):
    out = tmp_path / "wf"
    rc = _run(["simulate", "--config", BISTATIC, "--out", str(out), "--export-waveform",
               "--set", "sampling.n_samples=256", "--set", "waveform.master_length=1024",
               "--set", "sampling.max_delay_samples=40",
               "--set", "truth=[{delay_s: 5.68e-7, doppler_rad_s: 3.8e6}]"])
    assert rc == 0
    header, rows = output.parse_csv(out / "waveform.csv")
    assert header == ["index", "re", "im"]
    assert len(rows) == 1024
    power = np.mean([r[1] ** 2 + r[2] ** 2 for r in rows])
    assert abs(power - 1.0) <= 0.2


def test_cli_seed_option_reseeds_the_whole_scene(tmp_path):
    small = ["--set", "sampling.n_samples=256", "--set", "waveform.master_length=1024",
             "--set", "sampling.max_delay_samples=40"]
    by_option, by_override = tmp_path / "option", tmp_path / "override"
    assert _run(["simulate", "--config", BISTATIC, "--out", str(by_option),
                 "--seed", "5", *small]) == 0
    assert _run(["simulate", "--config", BISTATIC, "--out", str(by_override),
                 "--set", "seed=5", *small]) == 0
    for name in ("truth.csv", "node_0.csv"):
        assert (by_option / name).read_bytes() == (by_override / name).read_bytes()


def test_cli_estimate_theta_mode_and_verbose(tmp_path, capsys):
    out = tmp_path / "est_theta"
    args = ["estimate", "--config", MULTI, "--out", str(out), "--verbose",
            "--set", "sampling.n_samples=256", "--set", "waveform.master_length=2048",
            "--set", "estimator.trials=2"]
    assert _run(args) == 0
    printed = capsys.readouterr().out
    assert "efficiency margin" in printed
    header, rows = output.parse_csv(out / "estimates.csv")
    assert len(rows) == 2
    x_col = header.index("x_m")
    assert all(np.isfinite(r[x_col]) for r in rows)


def test_cli_sweep_reports_mse_stderr(tmp_path):
    out = tmp_path / "sw"
    args = ["sweep", "--config", BISTATIC, "--out", str(out),
            "--set", "sampling.n_samples=256", "--set", "waveform.master_length=1024",
            "--set", "sampling.max_delay_samples=40",
            "--set", "truth=[{delay_s: 5.68e-7, doppler_rad_s: 3.8e6}]",
            "--set", "sweep.values=[10.0]", "--set", "sweep.trials=8"]
    assert _run(args) == 0
    header, rows = output.parse_csv(out / "sweep.csv")
    idx = header.index("mse_rel_stderr")
    assert rows[0][idx] == pytest.approx(np.sqrt(2 / 8))


SMALL = ["sampling.n_samples=256", "waveform.master_length=1024",
         "sampling.max_delay_samples=40", "truth=[{delay_s: 5.68e-7, doppler_rad_s: 3.8e6}]"]


def _capture(tmp_path, edit):
    """Simulate the small bistatic scene, pass the lines of its node-0
    capture through ``edit``, and run ``spectrum --records`` on the result."""
    sim = tmp_path / "sim"
    argv = ["--config", BISTATIC] + [a for item in SMALL for a in ("--set", item)]
    assert _run(["simulate", "--out", str(sim)] + argv) == 0
    path = sim / "node_0.csv"
    path.write_text("".join(edit(path.read_text().splitlines(keepends=True))))
    scn, _ = parse_config(BISTATIC, SMALL)
    code = _run(["spectrum", "--out", str(tmp_path / "spec"), "--records", str(sim),
                 "--set", "grids.tau_step_cells=4.0", "--set", "grids.omega_step_cells=4.0"]
                + argv)
    return scn, path, code


def _set_cell(line, column, value):
    cells = line.rstrip("\n").split(",")
    cells[column] = value
    return ",".join(cells) + "\n"


def test_truncated_capture_is_rejected_with_its_path(tmp_path, capsys):
    scn, path, code = _capture(tmp_path, lambda lines: lines[:-100])
    assert code == 2
    assert str(path) in capsys.readouterr().err
    with pytest.raises(ConfigError, match="expected 328 rows"):
        cli.read_node_record(path, scn, 0)


def test_capture_with_a_non_finite_sample_is_rejected(tmp_path, capsys):
    # line 7 holds reference sample n = -35, line 101 surveillance sample n = 59
    for line, column, fault in [(7, 1, "reference"), (101, 4, "surveillance")]:
        def edit(lines):
            lines[line - 1] = _set_cell(lines[line - 1], column, "nan")
            return lines

        scn, path, code = _capture(tmp_path, edit)
        assert code == 2
        assert f"{path}: line {line} " in capsys.readouterr().err
        with pytest.raises(ConfigError, match=f"{fault} value is not finite"):
            cli.read_node_record(path, scn, 0)


def test_capture_with_a_wrong_sample_index_is_rejected(tmp_path, capsys):
    def edit(lines):
        lines[50] = _set_cell(lines[50], 0, "7")
        return lines

    scn, path, code = _capture(tmp_path, edit)
    assert code == 2
    with pytest.raises(ConfigError, match=r"line 51 \(n = 9\): sample index out of sequence"):
        cli.read_node_record(path, scn, 0)
