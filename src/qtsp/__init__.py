"""qtsp: travelling-salesman ground-state search.

Encodes TSP instances either as a quadratic objective over one-hot spins
or as a ring of N-level sites, and minimizes tour length by variational
Monte Carlo with complex-parameter neural ansatze.
"""

__version__ = "0.1.0"

# the names callers reach through `qtsp.`; the Hamiltonians (`qtsp.encoding`)
# load only where they are used, so training never imports them
from . import harness
from .errors import InvalidInstanceError, InvalidTourError, QtspError, SizeLimitError
from .instance import Instance, linear_instance, load_instance, planted_optimum, tour_length
from .vmc import RunRecord, VmcConfig, train
