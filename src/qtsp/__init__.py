"""qtsp: travelling-salesman ground-state search.

Encodes TSP instances either as a quadratic objective over one-hot spins
or as a ring of N-level sites, and minimizes tour length by variational
Monte Carlo with complex-parameter neural ansatze.
"""

__version__ = "0.1.0"

from .encoding import (
    PenaltyConfig,
    default_penalties,
    dense_hamiltonian,
    exact_ground_valid_subspace,
    qubo_objective,
    qudit_diagonal_energy,
    ring_hamiltonian_element,
    tour_to_onehot,
    twobody_element,
)
from .errors import InvalidInstanceError, InvalidTourError, QtspError, SizeLimitError
from .harness import SweepSummary, report_convergence, sweep
from .instance import (
    Instance,
    brute_force_optimum,
    farthest_city_tour,
    linear_instance,
    load_instance,
    planted_optimum,
    tour_length,
)
from .nqs import (
    CnnParams,
    RbmParams,
    cnn_grad_log_psi,
    cnn_log_psi,
    init_params,
    rbm_grad_log_psi,
    rbm_log_psi,
)
from .sampler import ChainState, Sample, SamplerConfig, init_chains, mh_step, run_chains
from .vmc import (
    AdamState,
    RunRecord,
    StepStats,
    VmcConfig,
    adam_update,
    estimate_gradient,
    train,
)
