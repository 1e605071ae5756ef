"""TSP instances, tour arithmetic and exact brute-force oracles.

Tour arithmetic is owned here: the label test and reader (`are_labels`,
`read_labels`), cyclic lengths (`tour_lengths`) and the permutation test
(`are_permutations`).

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
    """A symmetric TSP instance: its pairwise distances, dist[i-1, j-1]
    between cities i and j, which are all that a tour length reads."""

    dist: np.ndarray

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

    @property
    def n_cities(self) -> int:
        return self.dist.shape[0]


def linear_instance(n_cities: int) -> Instance:
    """Cities on a line at positions x_i = i, i = 1..N."""
    if n_cities < 2:
        raise InvalidInstanceError("linear instance needs n_cities >= 2")
    x = np.arange(1, n_cities + 1, dtype=float)
    return Instance(dist=np.abs(x[:, None] - x))


def planted_optimum(n_cities: int) -> float:
    """Known optimal tour length for the linear layout: 2(N-1)."""
    if n_cities < 2:
        raise InvalidInstanceError("planted optimum defined for n_cities >= 2")
    return 2.0 * (n_cities - 1)


def are_labels(orders: np.ndarray, n: int) -> np.ndarray:
    """Which entries of an array are labels 1..n, taken as given: 2.0 is
    the label 2, while 1.5, NaN, inf and non-numbers are none. Compares
    only, so nothing is cast and nothing warns."""
    if orders.dtype.kind not in "iuf":
        return np.zeros(orders.shape, dtype=bool)
    is_label = (orders >= 1) & (orders <= n)  # NaN fails both
    return is_label & (orders == np.floor(orders)) if orders.dtype.kind == "f" else is_label


def read_labels(orders: np.ndarray, n_cities: int | None = None) -> np.ndarray:
    """The int64 (B, N) batch of labels 1..N that orders holds, N = n_cities
    if given, else its width: the one reader of labels where they enter.
    Checks the shape, then every label as given, before any cast; raises
    InvalidTourError naming the first that fails. Repeats are labels."""
    orders = np.asarray(orders)
    if orders.ndim != 2 or n_cities not in (None, orders.shape[1]):
        raise InvalidTourError(f"expected a (B, {n_cities or 'N'}) batch of tours, "
                               f"got shape {orders.shape}")
    is_label = are_labels(orders, orders.shape[1])
    if not is_label.all():
        raise InvalidTourError(f"tour label {orders.flat[np.argmin(is_label)]} "
                               f"outside 1..{orders.shape[1]}")
    return orders.astype(np.int64, copy=False)


def are_permutations(orders: np.ndarray) -> np.ndarray:
    """Which rows of a (B, N) batch are permutations of 1..N, as a (B,) bool
    array: the one tour test. A row holding anything but labels, such as
    1.5, True or "1", is none. Counts each row's labels in one bincount,
    with what is no label in the bin 0: N entries cover 1..N only if each
    occurs once."""
    orders = np.asarray(orders)
    b, n = orders.shape
    numbers = orders if orders.dtype.kind in "iuf" else 0  # are_labels finds none in the rest
    bins = np.where(are_labels(orders, n), numbers, 0).astype(np.int64, copy=False)
    bins += np.arange(0, b * (n + 1), n + 1)[:, None]  # row r counts from bin r·(N + 1)
    counts = np.bincount(bins.ravel(), minlength=b * (n + 1)).reshape(b, n + 1)
    return counts[:, 1:].all(axis=1)


def read_tours(orders: np.ndarray, n_cities: int | None = None) -> np.ndarray:
    """read_labels of a batch whose every row is a tour, else InvalidTourError."""
    orders = read_labels(orders, n_cities)
    is_tour = are_permutations(orders)
    if not is_tour.all():
        raise InvalidTourError(f"not a permutation of 1..{orders.shape[1]}: "
                               f"{orders[np.argmin(is_tour)].tolist()}")
    return orders


def is_permutation(order: TourLike, n_cities: int) -> bool:
    """Whether order is one tour of 1..n_cities, its labels taken as given."""
    order = np.asarray(order)
    return order.shape == (n_cities,) and bool(are_permutations(order[None])[0])


def tour_length(instance: Instance, order: TourLike) -> float:
    """Cyclic tour length, closing leg included."""
    return float(tour_lengths(instance, read_tours([order], instance.n_cities))[0])


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
    """The instance file format that load_instance reads: n_cities and dist
    on one line of strict JSON. No indent: json's indenting encoder is
    Python code that leaves reference cycles on every call."""
    payload = {"n_cities": instance.n_cities, "dist": instance.dist.tolist()}
    return json.dumps(payload, allow_nan=False) + "\n"


def load_instance(path: str | Path) -> Instance:
    """Read an instance from JSON, validating shape, symmetry and diagonal;
    keys other than n_cities and dist, such as the coords of older files,
    are ignored. Raises InvalidInstanceError naming the file on malformed
    content, too deep a nesting and a non-number or out-of-range distance included."""
    try:
        payload = json.loads(Path(path).read_text())
        n = payload["n_cities"]
        if type(n) is not int:  # a bool is no city count, and 2.7 is not 2
            raise TypeError(f"n_cities must be an integer, got {n!r}")
        if bad := [d for row in payload["dist"] for d in row if type(d) not in (int, float)]:
            raise TypeError(f"distances must be JSON numbers, got {bad[0]!r}")
        dist = np.asarray(payload["dist"], dtype=float)
        if dist.shape != (n, n):
            raise ValueError(f"dist shape {dist.shape} does not match n_cities={n}")
        return Instance(dist=dist)
    except (InvalidInstanceError, KeyError, OverflowError, RecursionError, TypeError,
            ValueError) as exc:
        raise InvalidInstanceError(f"malformed instance file {path}: {exc}") from exc
