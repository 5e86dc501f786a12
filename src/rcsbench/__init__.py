"""Desk-scale workbench for random circuit sampling experiments: circuit
generation, exact and noisy state-vector simulation, linear-XEB fidelity
statistics, patch-wise gate calibration, and classical-cost estimation."""

from .calibration import (
    OptimizerConfig,
    PatchPartition,
    bfgs_minimize,
    calibrate_patches,
    loss,
    split_grid_patches,
)
from .circuit import (
    Circuit,
    Cycle,
    column_bipartition,
    extract_subcircuit,
    generate_random_circuit,
    load_circuit,
    make_elided,
    make_patch,
    row_bipartition,
    save_circuit,
    standard_circuit,
    with_coupler_params,
)
from .costmodel import (
    ContractionPath,
    CostReport,
    CutAnalysis,
    TensorNetwork,
    circuit_to_tn,
    estimate_sampling_cost,
    schmidt_values,
    sfa_cut,
    sfa_speedup,
    slice_network,
)
from .errors import InputError, ResourceLimitError
from .gates import DEFAULT_FSIM, FsimParams, SingleQubitGate, fsim_matrix, sq_matrix
from .samples import SampleSet, load_samples, save_samples
from .simulator import (
    NoiseModel,
    StateVector,
    apply_readout_error,
    apply_single,
    apply_two,
    predicted_fidelity,
    probabilities,
    reference_noise,
    run,
    sample_ideal,
    sample_noisy_speckle,
    sample_trajectory,
)
from .topology import (
    Coupler,
    GridTopology,
    QubitId,
    assign_patterns,
    build_grid,
    load_topology,
    pattern_sequence,
    save_topology,
    sixty_qubit_grid,
)
from .xeb import (
    ProbabilityRecord,
    XebEstimate,
    bootstrap_xeb,
    combine_inverse_variance,
    ks_test,
    linear_xeb,
    measured_xeb,
    probabilities_of_samples,
    product_xeb,
    pt_cdf,
    pt_pdf,
    speckle_purity,
    xeb_sigma,
)

__version__ = "0.1.0"
