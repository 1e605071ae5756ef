"""Two Hamiltonian pictures of the TSP.

Qubit picture: N^2 binary variables z[i, a] (city i sits at tour slot a),
with the quadratic objective whose distance term is the tour length and
whose squared constraint terms vanish exactly on permutation matrices.
Spins are the usual sigma = 2z - 1 relabelling.

Qudit picture: N ring-coupled N-level sites, configuration n = (n_1..n_N)
with n_a the city visited a-th. Diagonal elements of valid configurations
are tour lengths; everything else is pushed up by penalties p (global
variant) or p' (two-site variant).
"""

from __future__ import annotations

import csv
import io
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import SizeLimitError
from .instance import (
    Instance, TourLike, are_permutations, is_permutation, read_labels, read_tours, spin_columns,
    tour_length, tour_lengths,
)

DENSE_MAX_CITIES = 5
VALID_SUBSPACE_MAX_CITIES = 8


@dataclass(frozen=True)
class PenaltyConfig:
    """Energy penalties for invalid configurations; both must dominate
    every distance in the instance, and both are finite and >= 0."""

    p: float
    p_prime: float

    def __post_init__(self):
        for name, value in vars(self).items():
            if not 0 <= value < math.inf:  # NaN fails every comparison
                raise ValueError(f"penalty {name} must be finite and >= 0, got {value}")


def default_penalties(instance: Instance) -> PenaltyConfig:
    # 10 * N * max d: comfortably above any tour length
    scale = 10.0 * instance.n_cities * float(instance.dist.max())
    return PenaltyConfig(p=scale, p_prime=scale)


# ---------------------------------------------------------------------------
# one-hot spins
# ---------------------------------------------------------------------------

def tour_to_onehot(order: TourLike) -> np.ndarray:
    """Permutation matrix z with z[i-1, a-1] = 1 iff tour slot a holds city i."""
    (order,) = read_tours([order])
    return (order == np.arange(1, order.shape[0] + 1)[:, None]).astype(np.int64)


def tours_to_sigma(orders: np.ndarray) -> np.ndarray:
    """Map a (B, N) batch of tours to (B, N^2) spin vectors in {-1, +1}.

    Row-major flattening of the (city, slot) one-hot matrix: the input
    layout of the spin network, whose tour entries in `qtsp.nqs` read the
    up spins' columns instead of building this batch.
    """
    columns = spin_columns(orders)
    b, n = columns.shape
    sigma = np.full((b, n * n), -1.0)
    sigma[np.arange(b)[:, None], columns] = 1.0
    return sigma


def qubo_objective(instance: Instance, z: np.ndarray) -> float:
    """Quadratic objective over an arbitrary 0/1 matrix z.

    Distance term sum_{i,j,a} d_ij z[i,a] z[j,a+1] (slot index cyclic) plus
    squared one-city-per-slot and one-slot-per-city constraint terms, each
    with coefficient 1; both vanish on the valid-tour manifold.
    """
    z = np.asarray(z, dtype=float)
    n = instance.n_cities
    if z.shape != (n, n):
        raise ValueError(f"z must be {n}x{n}, got {z.shape}")
    z_next = np.roll(z, -1, axis=1)
    distance = float(np.einsum("ia,ij,ja->", z, instance.dist, z_next))
    per_slot = float(((z.sum(axis=0) - 1.0) ** 2).sum())
    per_city = float(((z.sum(axis=1) - 1.0) ** 2).sum())
    return distance + per_slot + per_city


# ---------------------------------------------------------------------------
# qudit ring
# ---------------------------------------------------------------------------

def qudit_diagonal_energy(instance: Instance, config: TourLike, pen: PenaltyConfig) -> float:
    """Diagonal element of the globally-penalized Hamiltonian: the cyclic
    tour length on valid configurations, the flat penalty p otherwise."""
    return tour_length(instance, config) if is_permutation(config, instance.n_cities) else pen.p


def twobody_element(
    instance: Instance, i: int, j: int, l: int, m: int, pen: PenaltyConfig
) -> float:
    """<i,j| D |l,m> = d_ij * delta_il * delta_jm + p' * (2 - delta_il - delta_jm)."""
    n = instance.n_cities
    for label in (i, j, l, m):
        if not 1 <= label <= n:
            raise ValueError(f"level {label} outside 1..{n}")
    d_il = 1.0 if i == l else 0.0
    d_jm = 1.0 if j == m else 0.0
    return float(instance.dist[i - 1, j - 1]) * d_il * d_jm + pen.p_prime * (2.0 - d_il - d_jm)


def ring_hamiltonian_element(
    instance: Instance, config_a: TourLike, config_b: TourLike, pen: PenaltyConfig
) -> float:
    """<n| sum_k D^(k,k+1) |m> for the periodic ring of two-site couplers.

    Each bond contributes its two-site element times identity deltas on all
    other sites, so elements vanish whenever the configurations differ on
    three or more sites (and on two sites unless both sit on one bond).
    """
    n = instance.n_cities
    a, b = (read_labels([config], n)[0] for config in (config_a, config_b))
    total = 0.0
    for k in range(n):
        k1 = (k + 1) % n
        rest = [s for s in range(n) if s != k and s != k1]
        if any(a[s] != b[s] for s in rest):
            continue
        total += twobody_element(instance, int(a[k]), int(a[k1]), int(b[k]), int(b[k1]), pen)
    return total


def _enumerate_basis(n: int) -> np.ndarray:
    """All N^N level tuples in lexicographic order, levels 1..N."""
    grids = np.meshgrid(*([np.arange(1, n + 1)] * n), indexing="ij")
    return np.stack([g.ravel() for g in grids], axis=1).astype(np.int64)


def dense_hamiltonian(instance: Instance, variant: str, pen: PenaltyConfig) -> np.ndarray:
    """Full N^N x N^N matrix over the lexicographic product basis.

    variant "eq2": tour length / p on the diagonal, p on every off-diagonal.
    variant "eq4": the sum over ring bonds (k, k+1) of the two-site coupler
    D^(k,k+1); nonzero on the diagonal, on single-site changes and on
    changes of both sites of one bond.
    """
    n = instance.n_cities
    if n > DENSE_MAX_CITIES:
        raise SizeLimitError(f"dense Hamiltonian limited to N <= {DENSE_MAX_CITIES}, got {n}")
    if variant not in ("eq2", "eq4"):
        raise ValueError(f"unknown variant {variant!r}; expected 'eq2' or 'eq4'")
    basis = _enumerate_basis(n)
    dim = basis.shape[0]

    if variant == "eq2":
        lengths = tour_lengths(instance, basis)
        valid = are_permutations(basis)
        h = np.full((dim, dim), pen.p)
        np.fill_diagonal(h, np.where(valid, lengths, pen.p))
        return h

    # coupler[i-1, j-1, l-1, m-1] = <i,j| D |l,m>
    labels = itertools.product(range(1, n + 1), repeat=4)
    coupler = np.array([twobody_element(instance, *ijlm, pen) for ijlm in labels])
    coupler = coupler.reshape((n,) * 4)
    cfg, level = basis - 1, np.arange(n)
    strides = n ** level[::-1]
    rows = np.arange(dim)
    h = np.zeros((dim, dim))
    # bonds in order k = 0..N-1, as the elementwise sum adds them; bond k
    # reaches the N^2 configurations that agree with the row off sites k, k+1
    for k in range(n):
        k1 = (k + 1) % n
        corner = rows - cfg[:, k] * strides[k] - cfg[:, k1] * strides[k1]
        cols = corner[:, None, None] + strides[k] * level[:, None] + strides[k1] * level
        h[rows[:, None, None], cols] += coupler[cfg[:, k], cfg[:, k1]]
    return h


def basis_labels(n: int) -> list[str]:
    return ["(" + ",".join(str(v) for v in cfg) + ")" for cfg in _enumerate_basis(n)]


def dense_to_csv(matrix: np.ndarray, n_cities: int) -> str:
    """Row-major CSV dump of a dense Hamiltonian, basis labels as header."""
    labels = basis_labels(n_cities)
    if matrix.shape != (len(labels), len(labels)):
        raise ValueError("matrix dimension does not match the N^N basis")
    out = io.StringIO()
    writer = csv.writer(out)
    writer.writerow(labels)
    for row in matrix:
        writer.writerow([repr(float(v)) for v in row])
    return out.getvalue()


def exact_ground_valid_subspace(instance: Instance) -> tuple[np.ndarray, float]:
    """Minimum diagonal energy over all N! valid configurations."""
    n = instance.n_cities
    if n > VALID_SUBSPACE_MAX_CITIES:
        raise SizeLimitError(
            f"valid-subspace scan limited to N <= {VALID_SUBSPACE_MAX_CITIES}, got {n}"
        )
    tours = np.array(list(itertools.permutations(range(1, n + 1))), dtype=np.int64)
    lengths = tour_lengths(instance, tours)
    i = int(np.argmin(lengths))  # the first minimum, in lexicographic order
    return tours[i].copy(), float(lengths[i])
