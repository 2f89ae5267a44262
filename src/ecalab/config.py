"""Scenario configuration: YAML schema, strict validation, overrides.

The scenario file is a nested key-value tree (YAML, comments allowed).
Parsing is strict: unknown keys fail with the offending key path, every
scene invariant is checked at parse time, and command-line ``--set
key.path=value`` overrides are applied before validation.  The full schema
is documented in the README; the tree below is the authoritative list of
recognized keys.
"""

from __future__ import annotations

import math

import numpy as np
import yaml

from .geometry import SPEED_OF_LIGHT, NodeGeometry, TargetParams
from .scene import (
    AmplitudeModel,
    Scenario,
    amplitudes_from_radar_equation,
    draw_amplitudes,
)


class ConfigError(ValueError):
    """Configuration problem, annotated with the key path."""


# libyaml's safe loader where PyYAML was built with it (~8x faster on the
# example scenarios), else the pure-Python one; both build the same tree.
_LOADER = yaml.CSafeLoader if yaml.__with_libyaml__ else yaml.SafeLoader


# Recognized keys: dict for a subtree, None for a leaf value.
_SCHEMA = {
    "seed": None,
    "waveform": {"bandwidth_hz": None, "sample_rate_hz": None, "master_length": None},
    "sampling": {"n_samples": None, "max_delay_samples": None},
    "carrier_hz": None,
    "propagation_speed": None,
    "geometry": {"io_position": None, "rn_positions": None},
    "target": {"x": None, "y": None, "vx": None, "vy": None},
    "truth": None,
    "clutter": {"taps": None},
    "noise": {"sc_variance": None, "rc_variance": None, "rc_snr_db": None},
    "amplitudes": {
        "mode": None,
        "rc_amplitude": None,
        "dpi_amplitude": None,
        "dpi_to_noise_db": None,
        "target_amplitude": None,
        "sc_snr_db": None,
        "clutter_norm": None,
        "clutter_to_noise_db": None,
        "radar_equation": {
            "transmit_power_w": None,
            "tx_gain_db": None,
            "rx_gain_db": None,
            "rcs_m2": None,
            "dpi_sidelobe_db": None,
            "clutter_to_noise_db": None,
            "reference_power_w": None,
        },
    },
    "batching": {"count": None, "mode": None},
    "migration": None,
    "weights": None,
    "estimator": {
        "init": None,
        "mode": None,
        "trials": None,
        "max_iterations": None,
        "tolerance": None,
        "initial_step": None,
        "position_box": None,
        "speed_box": None,
    },
    "grids": {
        "tau_step_cells": None,
        "omega_step_cells": None,
        "omega_halfspan_cells": None,
    },
    "sweep": {"axis": None, "values": None, "trials": None},
    "track": {"trials_per_interval": None, "intervals": None},
}


def _check_keys(data, schema, path=""):
    if not isinstance(data, dict):
        raise ConfigError(f"{path or '<root>'}: expected a mapping")
    for key, value in data.items():
        here = f"{path}.{key}" if path else str(key)
        if key not in schema:
            raise ConfigError(f"unknown key '{here}'")
        sub = schema[key]
        if isinstance(sub, dict):
            _check_keys(value, sub, here)


def _get(cfg: dict, path: str, default=None, required: bool = False):
    node = cfg
    for part in path.split("."):
        if not isinstance(node, dict) or part not in node or node[part] is None:
            if required:
                raise ConfigError(f"missing required key '{path}'")
            return default
        node = node[part]
    return node


def _as_float(value, path: str) -> float:
    try:
        out = float(value)
    except (TypeError, ValueError):
        raise ConfigError(f"'{path}': expected a number, got {value!r}") from None
    if math.isnan(out):
        raise ConfigError(f"'{path}': value must not be NaN")
    return out


def _as_int(value, path: str) -> int:
    f = _as_float(value, path)
    if f != int(f):
        raise ConfigError(f"'{path}': expected an integer, got {value!r}")
    return int(f)


def _per_node(value, n_nodes: int, path: str) -> np.ndarray:
    if isinstance(value, (list, tuple)):
        if len(value) != n_nodes:
            raise ConfigError(f"'{path}': need one value per node ({n_nodes})")
        return np.array([_as_float(v, path) for v in value])
    return np.full(n_nodes, _as_float(value, path))


def apply_overrides(cfg: dict, overrides: list) -> dict:
    """Apply repeatable ``key.path=value`` overrides (values parsed as YAML)."""
    for item in overrides or []:
        if "=" not in item:
            raise ConfigError(f"override '{item}' is not of the form key=value")
        key, _, raw = item.partition("=")
        key = key.strip()
        try:
            value = yaml.load(raw, Loader=_LOADER)
        except yaml.YAMLError:
            raise ConfigError(f"override '{item}': unparseable value") from None
        node = cfg
        parts = key.split(".")
        schema = _SCHEMA
        for part in parts[:-1]:
            if part not in schema or not isinstance(schema[part], dict):
                raise ConfigError(f"override references unknown key '{key}'")
            schema = schema[part]
            node = node.setdefault(part, {})
        if parts[-1] not in schema:
            raise ConfigError(f"override references unknown key '{key}'")
        node[parts[-1]] = value
    return cfg


def _amplitudes(cfg: dict, n_nodes: int, nodes, target, sc_var: float, seed: int, taps: int):
    mode = _get(cfg, "amplitudes.mode", default="explicit")
    if mode == "explicit":
        for mag_key, db_key in [
            ("amplitudes.target_amplitude", "amplitudes.sc_snr_db"),
            ("amplitudes.dpi_amplitude", "amplitudes.dpi_to_noise_db"),
            ("amplitudes.clutter_norm", "amplitudes.clutter_to_noise_db"),
        ]:
            if _get(cfg, mag_key) is not None and _get(cfg, db_key) is not None:
                raise ConfigError(f"specify either '{mag_key}' or '{db_key}', not both")

        def magnitude(mag_key, db_key, default):
            mag = _get(cfg, mag_key)
            if mag is not None:
                return _per_node(mag, n_nodes, mag_key)
            db = _get(cfg, db_key)
            if db is None:
                return np.full(n_nodes, default)
            if sc_var <= 0:
                raise ConfigError(f"'{db_key}' needs a positive noise.sc_variance")
            return np.sqrt(sc_var * 10 ** (_per_node(db, n_nodes, db_key) / 10))

        rc = _per_node(_get(cfg, "amplitudes.rc_amplitude", default=1.0), n_nodes,
                       "amplitudes.rc_amplitude")
        dpi = magnitude("amplitudes.dpi_amplitude", "amplitudes.dpi_to_noise_db", 0.0)
        tgt = magnitude("amplitudes.target_amplitude", "amplitudes.sc_snr_db", 1.0)
        cn = magnitude("amplitudes.clutter_norm", "amplitudes.clutter_to_noise_db", 0.0)
        return draw_amplitudes(seed, n_nodes, taps, rc, dpi, tgt, cn)
    if mode == "radar_equation":
        base = "amplitudes.radar_equation"
        model = AmplitudeModel(
            transmit_power_w=_as_float(_get(cfg, f"{base}.transmit_power_w", required=True), base),
            tx_gain_db=_as_float(_get(cfg, f"{base}.tx_gain_db", default=0.0), base),
            rx_gain_db=_as_float(_get(cfg, f"{base}.rx_gain_db", default=0.0), base),
            rcs_m2=_as_float(_get(cfg, f"{base}.rcs_m2", required=True), base),
            dpi_sidelobe_db=_as_float(_get(cfg, f"{base}.dpi_sidelobe_db", default=30.0), base),
            clutter_to_noise_db=_as_float(
                _get(cfg, f"{base}.clutter_to_noise_db", default=-np.inf), base
            ),
            reference_power_w=_as_float(
                _get(cfg, f"{base}.reference_power_w", default=1.0), base
            ),
            wavelength_m=2 * np.pi * SPEED_OF_LIGHT / nodes[0].carrier_angular_frequency,
        )
        return tuple(
            amplitudes_from_radar_equation(model, node, target, sc_var, seed, k, taps)
            for k, node in enumerate(nodes)
        )
    raise ConfigError(f"amplitudes.mode must be 'explicit' or 'radar_equation', got {mode!r}")


def build_scenario(cfg: dict) -> Scenario:
    """Validated :class:`Scenario` from a parsed configuration tree."""
    _check_keys(cfg, _SCHEMA)
    seed = _as_int(_get(cfg, "seed", default=0), "seed")
    bandwidth = _as_float(_get(cfg, "waveform.bandwidth_hz", required=True), "waveform.bandwidth_hz")
    fs = _as_float(_get(cfg, "waveform.sample_rate_hz", required=True), "waveform.sample_rate_hz")
    master = _as_int(_get(cfg, "waveform.master_length", required=True), "waveform.master_length")
    n_samples = _as_int(_get(cfg, "sampling.n_samples", required=True), "sampling.n_samples")
    max_delay = _as_int(
        _get(cfg, "sampling.max_delay_samples", required=True), "sampling.max_delay_samples"
    )
    carrier_hz = _as_float(_get(cfg, "carrier_hz", required=True), "carrier_hz")
    c = _as_float(_get(cfg, "propagation_speed", default=SPEED_OF_LIGHT), "propagation_speed")
    io = _get(cfg, "geometry.io_position", required=True)
    rns = _get(cfg, "geometry.rn_positions", required=True)
    if not isinstance(rns, list) or not rns:
        raise ConfigError("'geometry.rn_positions': need a non-empty list of positions")
    try:
        nodes = tuple(
            NodeGeometry(
                io_position=tuple(float(v) for v in io),
                rn_position=tuple(float(v) for v in rn),
                carrier_angular_frequency=2 * np.pi * carrier_hz,
                propagation_speed=c,
            )
            for rn in rns
        )
    except (TypeError, ValueError) as err:
        raise ConfigError(f"'geometry': {err}") from None

    truth_cfg = _get(cfg, "truth")
    truth = None
    if truth_cfg is not None:
        if not isinstance(truth_cfg, list):
            raise ConfigError("'truth': need a list of {delay_s, doppler_rad_s} entries")
        truth = []
        for i, entry in enumerate(truth_cfg):
            extra = set(entry) - {"delay_s", "doppler_rad_s"}
            if extra:
                raise ConfigError(f"'truth[{i}]': unknown keys {sorted(extra)}")
            truth.append(
                (
                    _as_float(entry.get("delay_s"), f"truth[{i}].delay_s"),
                    _as_float(entry.get("doppler_rad_s"), f"truth[{i}].doppler_rad_s"),
                )
            )

    if _get(cfg, "target") is None and truth is None:
        raise ConfigError("need either 'target' or 'truth'")
    target = TargetParams(
        x=_as_float(_get(cfg, "target.x", default=1.0), "target.x"),
        y=_as_float(_get(cfg, "target.y", default=1.0), "target.y"),
        vx=_as_float(_get(cfg, "target.vx", default=0.0), "target.vx"),
        vy=_as_float(_get(cfg, "target.vy", default=0.0), "target.vy"),
    )

    taps = _as_int(_get(cfg, "clutter.taps", default=0), "clutter.taps")
    if taps > max_delay:
        raise ConfigError(
            f"'clutter.taps' ({taps}) must not exceed 'sampling.max_delay_samples' ({max_delay})"
        )
    sc_var = _as_float(_get(cfg, "noise.sc_variance", default=0.0), "noise.sc_variance")
    rc_var_cfg = _get(cfg, "noise.rc_variance")
    rc_snr_db = _get(cfg, "noise.rc_snr_db")
    if rc_var_cfg is not None and rc_snr_db is not None:
        raise ConfigError("specify either 'noise.rc_variance' or 'noise.rc_snr_db', not both")

    amplitudes = _amplitudes(cfg, len(nodes), nodes, target, sc_var, seed, taps)
    if rc_snr_db is not None:
        a2 = abs(amplitudes[0].rc) ** 2
        rc_var = a2 * 10 ** (-_as_float(rc_snr_db, "noise.rc_snr_db") / 10)
    else:
        rc_var = _as_float(rc_var_cfg if rc_var_cfg is not None else 0.0, "noise.rc_variance")

    weights_cfg = _get(cfg, "weights", default=1.0)
    weights = _per_node(weights_cfg, len(nodes), "weights")

    try:
        return Scenario(
            nodes=nodes,
            target=target,
            bandwidth=bandwidth,
            sample_rate=fs,
            master_length=master,
            n_samples=n_samples,
            max_delay_samples=max_delay,
            clutter_taps=taps,
            amplitudes=amplitudes,
            sc_noise_var=sc_var,
            rc_noise_var=rc_var,
            m_batches=_as_int(_get(cfg, "batching.count", default=1), "batching.count"),
            batch_mode=str(_get(cfg, "batching.mode", default="consecutive")),
            migration=bool(_get(cfg, "migration", default=False)),
            weights=weights,
            seed=seed,
            truth_delay_doppler=truth,
        )
    except ValueError as err:
        raise ConfigError(str(err)) from None


def parse_config(path, overrides: list = None):
    """Load, override, and validate a scenario file.

    Returns ``(scenario, cfg)`` where ``cfg`` is the full configuration tree
    (including estimator/grids/sweep/track sections for the subcommands).
    """
    with open(path, "r") as fh:
        text = fh.read()
    try:
        # a string, not the stream: libyaml reading a file object leaves
        # ~0.5 MB more resident
        cfg = yaml.load(text, Loader=_LOADER)
    except yaml.YAMLError as err:
        raise ConfigError(f"{path}: {err}") from None
    if cfg is None:
        cfg = {}
    if not isinstance(cfg, dict):
        raise ConfigError(f"{path}: scenario file must hold a key-value tree")
    cfg = apply_overrides(cfg, overrides)
    scenario = build_scenario(cfg)
    return scenario, cfg


def estimator_options(cfg: dict) -> dict:
    """Estimator keyword options from the config tree."""
    opts = {}
    if _get(cfg, "estimator.max_iterations") is not None:
        opts["max_iterations"] = _as_int(
            _get(cfg, "estimator.max_iterations"), "estimator.max_iterations"
        )
    if _get(cfg, "estimator.tolerance") is not None:
        opts["tolerance"] = _as_float(_get(cfg, "estimator.tolerance"), "estimator.tolerance")
    step = _get(cfg, "estimator.initial_step")
    if step is not None:
        if isinstance(step, (list, tuple)):
            opts["initial_step"] = np.array([_as_float(v, "estimator.initial_step") for v in step])
        else:
            opts["initial_step"] = _as_float(step, "estimator.initial_step")
    pos_box = _get(cfg, "estimator.position_box")
    speed_box = _get(cfg, "estimator.speed_box")
    if pos_box is not None and speed_box is not None:
        opts["search_box"] = {"position": pos_box, "speed": speed_box}
    return opts
