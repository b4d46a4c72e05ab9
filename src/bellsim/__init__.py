"""Desk-scale simulation and analysis of detection-probability Bell tests.

Quantum predictions for non-maximally entangled photon pairs under lossy
detection, constructible local-realistic adversaries, a pulsed
Monte-Carlo experiment, coincidence counting under clock and event
windows, violation estimators with partition-based errors, optimization
of state and analyzer settings, and device-independent randomness
accounting with a concrete seeded extractor.
"""

__version__ = "0.2.0"

from .counting import (
    CHANNEL_ALICE,
    CHANNEL_BOB,
    CHANNEL_CLOCK,
    SETTING_LABELS,
    CountsTable,
    TimetagStream,
    WindowPolicy,
    clock_windowed_counts,
    event_windowed_counts,
    parse_timetags,
    serialize_timetags,
    windowed_counts,
)
from .eberhard import (
    OptimizationResult,
    SweepPoint,
    bprime_vs_r_sweep,
    critical_efficiency,
    optimize,
    sweep_to_csv,
    violation_interval,
)
from .engine import (
    BlockRecord,
    ExperimentConfig,
    blocks_from_csv,
    blocks_to_counts,
    blocks_to_csv,
    calibrate_source_rates,
    click_probabilities,
    expected_rates,
    setting_schedule,
    simulate_blocks,
    simulate_timetags,
    trial_settings,
)
from .errors import BellSimError, FormatError, NumericalError, ValidationError
from .lhv import (
    DriftModel,
    Emission,
    LhvClass,
    LhvStrategy,
    TimedEmissionSchedule,
    coincidence_loophole_schedule,
    coincidence_time_stream,
    counts_from_strategy,
    demo_strategy_82pct,
    demo_strategy_ideal,
    drifted_counts,
    max_deterministic_ch,
    max_deterministic_ch_ratio,
)
from .quantum import (
    DetectionModel,
    MeasurementSettings,
    PolarizationState,
    ch_prime_value,
    ch_value,
    chsh_value,
    coincidence_prob,
    concurrence,
    correlation_E,
    density_matrix_state,
    make_eberhard_state,
    singles_prob,
    visibility,
)
from .randomness import (
    B_QUANTUM_MAX,
    DireReport,
    dire_report,
    extractable_length,
    guessing_probability,
    hash_extract,
    min_entropy,
    pack_bits,
    read_extracted_bits,
    unpack_bits,
    write_extracted_bits,
)
from .stats import (
    REFERENCE_ACQUISITION_S,
    REFERENCE_R,
    REFERENCE_SIGMA_B,
    BellResult,
    SuperQuantumBound,
    bell_result,
    ch_from_counts,
    chprime_from_counts,
    distribution_floor,
    hacker_bound,
    partition_sigma,
    partition_sigma_sweep,
    partition_values,
    reference_run_counts,
    reference_settings,
    superquantum_bounds,
    violations_by_partition,
)
