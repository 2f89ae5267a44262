"""Passive-radar estimation laboratory.

Simulates multistatic scenes with direct-path interference and clutter,
cancels the interference by orthogonal projection onto the reference
channel's span, estimates delay/Doppler and target state by maximizing the
cleaned cross-ambiguity spectra, and predicts the estimator's statistical
performance in closed form for validation against Monte Carlo experiments.
"""

from .analysis import (
    TheoryReport,
    asymptotic_covariance,
    confidence_ellipse,
    efficiency_margin,
    excess_q,
    hessian_and_crb,
    unambiguity_scan,
)
from .eca import (
    AmbiguitySurface,
    InterferenceBasis,
    batch_split,
    frame_spectrum,
    frame_spectrum_derivatives,
    interference_basis,
    project_out,
    rc_steering,
    spectrum_grid,
    spectrum_value,
)
from .estimator import EstimateReport, localize, peak_pick, refine
from .geometry import (
    SPEED_OF_LIGHT,
    DegenerateGeometryError,
    NodeGeometry,
    TargetParams,
    bistatic_delay,
    bistatic_delay_rate,
    delay_doppler_jacobian,
    doppler_from_rate,
    theta_to_delay_doppler,
)
from .montecarlo import SweepSpec, aggregate, apply_axis, run_trials, sweep, track
from .scene import (
    AmplitudeModel,
    NodeAmplitudes,
    NodeRecord,
    Scenario,
    amplitudes_from_radar_equation,
    clutter_matrix,
    draw_amplitudes,
    node_truth,
    scenario_waveform,
    simulate,
    snr_report,
    synthesize_node,
)
from .waveform import MasterWaveform, SteeringRequest, dft_vector, generate, steering

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
