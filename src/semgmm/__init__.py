"""EM and stochastic EM for Gaussian mixtures, with probabilistic proximity
bounds between the two algorithms' updates and an experiment harness."""

from .model import (
    Assignment,
    DataError,
    DataSet,
    DegeneracyError,
    InvalidModelError,
    MixtureModel,
    log_likelihood,
    validate,
)
from .estep import ResponsibilityMatrix, responsibilities
from .em import em_fit, em_m_step
from .rounds import SemConfig
from .sem import sample_assignment, sem_fit, sem_m_step
from .bounds import BoundReport, assemble_bounds, monte_carlo_violation_rate
from .synth import GenSpec, generate_mixture, initialize, sample_dataset
from .ingest import NormalizationRecord, load_csv, load_model, normalize, save_csv, save_model
from .harness import (
    ExperimentPlan,
    run_bound_experiment,
    run_compare_experiment,
    run_diff_experiment,
    run_likelihood_experiment,
    run_speed_experiment,
)

__version__ = "0.1.0"
