"""TSP instances, tour arithmetic and exact brute-force oracles.

Tour arithmetic is owned here: cyclic lengths (`tour_lengths`), the
permutation test (`are_permutations`) and the (city, slot) label map of
the one-hot spins (`spin_columns`).

Cities are labelled 1..N throughout the public API; a tour is a length-N
permutation of those labels and is always understood cyclically (the leg
from the last city back to the first is included in every length).
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import InvalidInstanceError, InvalidTourError, SizeLimitError

TourLike = Sequence[int] | np.ndarray

BRUTE_FORCE_MAX_CITIES = 12
# N * max d bounds every tour length; below sqrt(float max) ~ 1.3e154 the
# squared spread of a sample's lengths stays finite too
MAX_TOUR_LENGTH = 1e150
_BRUTE_FORCE_CHUNK = 200_000


@dataclass(frozen=True, eq=False)
class Instance:
    """A symmetric TSP instance.

    dist holds the pairwise distances (dist[i-1, j-1] is the distance
    between cities i and j); coords optionally carries 1-D positions for
    instances generated from a line layout.
    """

    dist: np.ndarray
    coords: np.ndarray | None = None

    def __post_init__(self):
        dist = np.asarray(self.dist, dtype=float)
        if dist.ndim != 2 or dist.shape[0] != dist.shape[1]:
            raise InvalidInstanceError(f"distance matrix must be square, got shape {dist.shape}")
        n = dist.shape[0]
        if n < 2:
            raise InvalidInstanceError("an instance needs at least 2 cities")
        if not np.all(np.isfinite(dist)):
            raise InvalidInstanceError("distances must be finite")
        if not np.array_equal(dist, dist.T):
            raise InvalidInstanceError("distance matrix must be symmetric")
        if np.any(np.diagonal(dist) != 0.0):
            raise InvalidInstanceError("distance matrix must have a zero diagonal")
        if np.any(dist < 0.0):
            raise InvalidInstanceError("distances must be non-negative")
        if dist.max() > MAX_TOUR_LENGTH / n:
            raise InvalidInstanceError(f"N * max distance must be at most {MAX_TOUR_LENGTH:g}, "
                                       f"got {n} * {dist.max():g}")
        object.__setattr__(self, "dist", dist)
        if self.coords is not None:
            coords = np.asarray(self.coords, dtype=float)
            if coords.shape != (n,):
                raise InvalidInstanceError("coords must list one position per city")
            if not np.all(np.isfinite(coords)):
                raise InvalidInstanceError("coords must be finite")
            object.__setattr__(self, "coords", coords)

    @property
    def n_cities(self) -> int:
        return self.dist.shape[0]


def linear_instance(n_cities: int) -> Instance:
    """Cities on a line at positions x_i = i, i = 1..N."""
    if n_cities < 2:
        raise InvalidInstanceError("linear instance needs n_cities >= 2")
    coords = np.arange(1, n_cities + 1, dtype=float)
    dist = np.abs(coords[:, None] - coords[None, :])
    return Instance(dist=dist, coords=coords)


def planted_optimum(n_cities: int) -> float:
    """Known optimal tour length for the linear layout: 2(N-1)."""
    if n_cities < 2:
        raise InvalidInstanceError("planted optimum defined for n_cities >= 2")
    return 2.0 * (n_cities - 1)


def are_permutations(orders: np.ndarray) -> np.ndarray:
    """Which rows of a (B, N) batch of integer labels are permutations of
    1..N, as a (B,) bool array.

    Counts each row's labels, those outside 1..N clipped into the bins 0
    and N + 1: N labels cover the N values 1..N only if each occurs once.
    One bincount over the batch, O(B·N), with no sort."""
    orders = np.asarray(orders)
    b, n = orders.shape
    bins = np.clip(orders, 0, n + 1, dtype=np.int64)
    bins += np.arange(0, b * (n + 2), n + 2)[:, None]  # row r counts from bin r·(N + 2)
    counts = np.bincount(bins.ravel(), minlength=b * (n + 2)).reshape(b, n + 2)
    return counts[:, 1:-1].all(axis=1)


def is_permutation(order: TourLike, n_cities: int) -> bool:
    """Whether order is a permutation of 1..n_cities, its labels checked as
    given: 2.0 is the label 2, and 1.5 is no label."""
    order = np.asarray(order)
    if order.shape != (n_cities,) or not np.all((order >= 1) & (order <= n_cities)):
        return False
    labels = order.astype(np.int64)  # in range, so the cast cannot overflow
    return bool(np.array_equal(labels, order) and are_permutations(labels[None])[0])


def spin_columns(orders: np.ndarray) -> np.ndarray:
    """The (B, N) indices of the up spins of a (B, N) batch of tours in the
    row-major (city, slot) spin layout: (city - 1) * N + slot. Raises
    ValueError naming a label outside 1..N."""
    orders = np.asarray(orders, dtype=np.int64)
    if orders.ndim != 2:
        raise ValueError(f"expected a (B, N) batch of tours, got shape {orders.shape}")
    n = orders.shape[1]
    if orders.size:
        lo, hi = orders.min(), orders.max()
        if lo < 1 or hi > n:
            raise ValueError(f"tour label {lo if lo < 1 else hi} outside 1..{n}")
    return (orders - 1) * n + np.arange(n)


def tour_length(instance: Instance, order: TourLike) -> float:
    """Cyclic tour length, closing leg included."""
    order = np.asarray(order)
    if not is_permutation(order, instance.n_cities):
        raise InvalidTourError(f"not a permutation of 1..{instance.n_cities}: {order.tolist()}")
    return float(tour_lengths(instance, order[None])[0])


def tour_lengths(instance: Instance, orders: np.ndarray) -> np.ndarray:
    """Cyclic lengths for a (B, N) batch of tours; no validity check. The
    one place a tour's legs are summed."""
    orders = np.asarray(orders, dtype=np.int64)
    nxt = np.roll(orders, -1, axis=1)
    return instance.dist[orders - 1, nxt - 1].sum(axis=1)


def brute_force_optimum(instance: Instance) -> tuple[np.ndarray, float]:
    """Globally shortest tour by exhaustive search.

    City 1 is fixed in the first slot and reflected duplicates are skipped,
    so (N-1)!/2 tours are scanned. Ties resolve to the lexicographically
    smallest tour. Guarded at N <= 12.
    """
    n = instance.n_cities
    if n > BRUTE_FORCE_MAX_CITIES:
        raise SizeLimitError(f"brute force limited to N <= {BRUTE_FORCE_MAX_CITIES}, got {n}")

    best_order: np.ndarray | None = None
    best_len = np.inf
    # Reflection canonicalization: keep tours whose second city is at most
    # the last (the same city only at N = 2, whose one tour is its own
    # reflection); lengths evaluated in vectorized chunks.
    rest = itertools.permutations(range(2, n + 1))
    canonical = (p for p in rest if p[0] <= p[-1])
    while True:
        chunk = list(itertools.islice(canonical, _BRUTE_FORCE_CHUNK))
        if not chunk:
            break
        tours = np.empty((len(chunk), n), dtype=np.int64)
        tours[:, 0] = 1
        tours[:, 1:] = chunk
        lengths = tour_lengths(instance, tours)
        i = int(np.argmin(lengths))
        if lengths[i] < best_len:
            best_len = float(lengths[i])
            best_order = tours[i].copy()
    assert best_order is not None
    return best_order, best_len


def farthest_city_tour(instance: Instance, start_city: int) -> np.ndarray:
    """Greedy start tour: repeatedly visit the unvisited city farthest
    from the most recently visited one, ties to the smallest label.

    Deliberately a bad tour; used as a reproducible chain initialization.
    """
    n = instance.n_cities
    if not 1 <= start_city <= n:
        raise InvalidTourError(f"start city {start_city} outside 1..{n}")
    order = [start_city]
    remaining = set(range(1, n + 1)) - {start_city}
    while remaining:
        cur = order[-1]
        # max distance, then smallest label on ties
        nxt = min(remaining, key=lambda c: (-instance.dist[cur - 1, c - 1], c))
        order.append(nxt)
        remaining.discard(nxt)
    return np.array(order, dtype=np.int64)


def instance_json(instance: Instance) -> str:
    """The instance file format that load_instance reads."""
    payload = {
        "n_cities": instance.n_cities,
        "coords": None if instance.coords is None else instance.coords.tolist(),
        "dist": instance.dist.tolist(),
    }
    return json.dumps(payload, indent=2) + "\n"


def load_instance(path: str | Path) -> Instance:
    """Read an instance from JSON, validating shape, symmetry and diagonal.
    Raises InvalidInstanceError naming the file on any malformed content."""
    try:
        payload = json.loads(Path(path).read_text())
        n = payload["n_cities"]
        if type(n) is not int:  # a bool is no city count, and 2.7 is not 2
            raise TypeError(f"n_cities must be an integer, got {n!r}")
        dist = np.asarray(payload["dist"], dtype=float)
        if dist.shape != (n, n):
            raise ValueError(f"dist shape {dist.shape} does not match n_cities={n}")
        coords = payload.get("coords")
        if coords is not None:
            coords = np.asarray(coords, dtype=float)
        return Instance(dist=dist, coords=coords)
    except (InvalidInstanceError, KeyError, TypeError, ValueError) as exc:
        raise InvalidInstanceError(f"malformed instance file {path}: {exc}") from exc
