"""Desk-scale workbench for random circuit sampling experiments: circuit
generation, exact and noisy state-vector simulation, linear-XEB fidelity
statistics, patch-wise gate calibration, and classical-cost estimation."""

from .calibration import split_grid_patches
from .circuit import (
    extract_subcircuit,
    load_circuit,
    make_elided,
    make_patch,
    save_circuit,
    standard_circuit,
    with_coupler_params,
)
from .errors import InputError, ResourceLimitError
from .gates import DEFAULT_FSIM, FsimParams, SingleQubitGate
from .samples import SampleSet, load_samples, save_samples
from .simulator import (
    NoiseModel,
    StateVector,
    apply_readout_error,
    apply_single,
    apply_two,
    predicted_fidelity,
    probabilities,
    run,
    sample_ideal,
    sample_noisy_speckle,
    sample_trajectory,
)
from .topology import (
    assign_patterns,
    build_grid,
    load_topology,
    pattern_sequence,
    sixty_qubit_grid,
)
from .xeb import (
    XebEstimate,
    bootstrap_xeb,
    combine_inverse_variance,
    ks_test,
    linear_xeb,
    measured_xeb,
    probabilities_of_samples,
    product_xeb,
    pt_cdf,
    xeb_sigma,
)

__version__ = "0.1.0"
