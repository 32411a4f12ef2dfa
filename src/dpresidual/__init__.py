"""Differentially private release of state-estimation residual statistics.

Library and CLI for bad-data detection on linear(ized) measurement
models: least-squares residual laws, a chi-square noise mechanism with a
computable (epsilon, delta) guarantee over system-matrix neighborhoods,
its Gaussian large-system approximation, and full hypothesis-test
analytics validated by Monte Carlo.
"""

from .detection import (
    McValidation,
    RocCurve,
    TestSpec,
    monte_carlo_validate,
    pfa_pd,
    roc,
    sample_law,
    threshold,
)
from .dp_mechanism import (
    DeltaScanResult,
    InputPerturbation,
    Mechanism,
    NeighborhoodSpec,
    NoisyRelease,
    PrivacyParams,
    calibrate_gaussian_output_sigma,
    chi_square_release,
    delta_for_epsilon,
    delta_max_over_neighborhood,
    gaussian_leakage_probability,
    gaussian_mechanism_sigma,
    gaussian_output_release,
    input_perturbation_release,
    leakage,
)
from .estimation import (
    ChiMixture,
    GaussianApproximation,
    Regime,
    ResidualLaw,
    chi_mixture,
    cumulant,
    gaussian_law,
    normal_approx_bound,
    preferred_regime,
    residual_law,
    svd_projection,
    wls_estimate,
    wssr,
)
from .exceptions import (
    ConvergenceError,
    NoResidualError,
    NumericError,
    RankDeficiencyError,
    SchemaError,
    SingularUpdateError,
    ValidationFailure,
)
from .measurement_model import (
    AttackVector,
    MeasurementModel,
    NeighborPerturbation,
    Projection,
    StateVector,
    apply_neighbor,
    gsp_reduce,
    load_model_csv,
    neighbor_projection_update,
    projection_matrix,
    save_model_csv,
    simulate_measurements,
    stealth_attack,
)
from .special_functions import (
    Tolerance,
    bessel_i,
    gaussian_q,
    gaussian_q_inverse,
    log_bessel_i,
    marcum_q,
    noncentral_chisq_cdf,
    noncentral_chisq_sample,
    regularized_gamma_p,
    regularized_gamma_q,
    regularized_gamma_q_inverse,
)
from .streams import SeedStream, production_mode

__version__ = "0.1.0"
