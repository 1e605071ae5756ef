import json
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from helpers import (
    OVERFLOWING_DISTANCES,
    exhaustive_optimum,
    random_symmetric_instance,
    random_tour,
    write_instance_file,
)
from qtsp import nqs
from qtsp.encoding import (
    PenaltyConfig, qudit_diagonal_energy, ring_hamiltonian_element, tour_to_onehot, tours_to_sigma,
)
from qtsp.errors import InvalidInstanceError, InvalidTourError, QtspError, SizeLimitError
from qtsp.instance import (
    MAX_TOUR_LENGTH,
    Instance,
    are_permutations,
    brute_force_optimum,
    farthest_city_tour,
    instance_json,
    is_permutation,
    linear_instance,
    load_instance,
    planted_optimum,
    read_labels,
    tour_length,
    tour_lengths,
)
from qtsp.vmc import local_energies


class TestLinearInstance:
    def test_coordinates_and_distances(self):
        inst = linear_instance(4)
        assert inst.dist[0, 3] == 3.0  # cities 1 and 4
        assert inst.dist[1, 1] == 0.0

    def test_two_cities(self):
        assert linear_instance(2).dist[0, 1] == 1.0

    def test_symmetry(self):
        inst = linear_instance(7)
        assert np.array_equal(inst.dist, inst.dist.T)

    def test_too_small(self):
        with pytest.raises(InvalidInstanceError):
            linear_instance(1)


class TestInstanceValidation:
    def test_rejects_asymmetric(self):
        d = np.array([[0.0, 1.0], [2.0, 0.0]])
        with pytest.raises(InvalidInstanceError):
            Instance(dist=d)

    def test_rejects_nonzero_diagonal(self):
        d = np.array([[1.0, 1.0], [1.0, 0.0]])
        with pytest.raises(InvalidInstanceError):
            Instance(dist=d)

    def test_rejects_negative(self):
        d = np.array([[0.0, -1.0], [-1.0, 0.0]])
        with pytest.raises(InvalidInstanceError):
            Instance(dist=d)

    def test_rejects_infinite(self):
        d = np.array([[0.0, np.inf, 1.0], [np.inf, 0.0, 1.0], [1.0, 1.0, 0.0]])
        with pytest.raises(InvalidInstanceError, match="finite"):
            Instance(dist=d)

    def test_rejects_nan_as_non_finite(self):
        d = np.array([[0.0, np.nan], [np.nan, 0.0]])
        with pytest.raises(InvalidInstanceError, match="finite"):
            Instance(dist=d)

    @pytest.mark.parametrize("name", OVERFLOWING_DISTANCES)
    def test_rejects_tour_lengths_that_overflow(self, tmp_path, name):
        dist = OVERFLOWING_DISTANCES[name]
        with pytest.raises(InvalidInstanceError, match=r"at most 1e\+150"):
            Instance(dist=dist)
        with pytest.raises(InvalidInstanceError, match="big.json"):
            load_instance(write_instance_file(tmp_path / "big.json", dist))

    @pytest.mark.parametrize("dist, message", [(np.zeros((2, 3)), "must be square"),
                                               (np.zeros((1, 1)), "at least 2 cities")],
                             ids=["non-square", "one-city"])
    def test_rejects_a_matrix_of_no_tour(self, dist, message):
        with pytest.raises(InvalidInstanceError, match=message):
            Instance(dist=dist)

    def test_accepts_tour_lengths_at_the_bound(self):
        inst = Instance(dist=MAX_TOUR_LENGTH / 4 * (1.0 - np.eye(4)))
        assert tour_length(inst, [1, 2, 3, 4]) == pytest.approx(MAX_TOUR_LENGTH)


def test_planted_optimum():
    assert planted_optimum(4) == 6.0
    assert planted_optimum(2) == 2.0
    assert planted_optimum(100) == 198.0


def test_planted_optimum_needs_two_cities():
    with pytest.raises(InvalidInstanceError, match="n_cities >= 2"):
        planted_optimum(1)


class TestTourLength:
    def test_planted_tour(self):
        assert tour_length(linear_instance(4), [1, 2, 3, 4]) == 6.0

    def test_crossing_tour(self):
        # legs 1-3, 3-2, 2-4, 4-1: 2 + 1 + 2 + 3
        assert tour_length(linear_instance(4), [1, 3, 2, 4]) == 8.0

    def test_out_and_back(self):
        assert tour_length(linear_instance(2), [1, 2]) == 2.0

    def test_rejects_non_permutation(self):
        with pytest.raises(InvalidTourError):
            tour_length(linear_instance(3), [1, 1, 2])
        with pytest.raises(InvalidTourError):
            tour_length(linear_instance(3), [1, 2])

    def test_invariant_under_rotation_and_reversal(self):
        rng = np.random.default_rng(11)
        for seed in range(5):
            inst = random_symmetric_instance(6, seed)
            tour = random_tour(6, rng)
            base = tour_length(inst, tour)
            for k in range(6):
                assert tour_length(inst, np.roll(tour, -k)) == pytest.approx(base, abs=1e-12)
            assert tour_length(inst, tour[::-1]) == pytest.approx(base, abs=1e-12)

    def test_is_its_row_of_the_batch_and_the_plain_cyclic_sum(self):
        rng = np.random.default_rng(5)
        for n in range(2, 13):
            inst = random_symmetric_instance(n, n, scale=9.0)
            tours = np.array([random_tour(n, rng) for _ in range(20)])
            batch = tour_lengths(inst, tours)
            for tour, row in zip(tours, batch):
                length = tour_length(inst, tour)
                assert length.hex() == float(row).hex()
                legs = [inst.dist[a - 1, b - 1] for a, b in zip(tour, np.roll(tour, -1))]
                assert length == pytest.approx(sum(legs), abs=1e-12)


@st.composite
def label_batches(draw):
    """(B, N) batches mixing permutations of 1..N with rows drawn from
    -2..N+2: zeros, N + 1, negatives and repeats. Half are int64; the other
    half are floats, some of whose entries are then no label: 1.5, NaN, inf."""
    n = draw(st.integers(1, 8))
    perm = st.permutations(range(1, n + 1))
    any_row = st.lists(st.integers(-2, n + 2), min_size=n, max_size=n)
    rows = draw(st.lists(st.one_of(perm, any_row), max_size=6))
    batch = np.array(rows, dtype=np.int64).reshape(len(rows), n)
    if draw(st.booleans()):
        batch = batch.astype(float)
        for i in draw(st.lists(st.integers(0, batch.size - 1), max_size=2)) if batch.size else ():
            batch.flat[i] = draw(st.sampled_from([1.5, n - 0.5, np.nan, np.inf, -np.inf]))
    return batch


class TestArePermutations:
    @settings(max_examples=200, deadline=None)
    @given(label_batches())
    def test_agrees_with_a_set_check_row_by_row(self, batch):
        n = batch.shape[1]
        expected = [set(row.tolist()) == set(range(1, n + 1)) for row in batch]
        assert are_permutations(batch).tolist() == expected

    def test_named_cases(self):
        batch = [[1, 3, 2, 4], [1, 1, 2, 3], [0, 2, 1, 3], [1, 2, 3, 5], [-1, 2, 3, 4], [4, 3, 2, 1],
                 [1, 2, 3, 10**12], [-10**12, 2, 3, 4], [10**12, -10**12, 1, 2]]
        assert are_permutations(batch).tolist() == [True, False, False, False, False, True,
                                                    False, False, False]
        assert are_permutations(np.zeros((0, 4), dtype=np.int64)).shape == (0,)


def _rows(entry):
    """A single-tour entry point applied to each row of a batch."""
    return lambda batch, n: [entry(row, n) for row in batch]


_PEN = PenaltyConfig(p=1e3, p_prime=1e3)
# name -> (what the entry point does with bad labels, how it is called on a (B, n) batch)
LABEL_ENTRY_POINTS = {
    "tour_length": ("tours", _rows(lambda row, n: tour_length(linear_instance(n), row))),
    "local_energies": ("tours", lambda batch, n: local_energies(linear_instance(n), batch)),
    "tour_to_onehot": ("tours", _rows(lambda row, n: tour_to_onehot(row))),
    "tours_to_sigma": ("labels", lambda batch, n: tours_to_sigma(batch)),
    "ring_hamiltonian_element": ("labels", _rows(
        lambda row, n: ring_hamiltonian_element(linear_instance(n), row, row, _PEN))),
    "rbm_tour_log_psi": ("labels", lambda batch, n: nqs.rbm_tour_log_psi(
        nqs.init_params("rbm", (n * n, 2), 0.1, 0), batch)),
    "rbm_tour_energy_gradient": ("labels", lambda batch, n: nqs.rbm_tour_energy_gradient(
        nqs.init_params("rbm", (n * n, 2), 0.1, 0), np.concatenate([batch, batch]),
        np.arange(2.0 * len(batch)))),
    "cnn_log_psi": ("labels", lambda batch, n: nqs.cnn_log_psi(
        nqs.init_params("cnn", (2, 2), 0.1, 0), batch)),
    "cnn_log_derivatives": ("labels", lambda batch, n: nqs.cnn_log_derivatives(
        nqs.init_params("cnn", (2, 2), 0.1, 0), batch)),
    "cnn_energy_gradient": ("labels", lambda batch, n: nqs.cnn_energy_gradient(
        nqs.init_params("cnn", (2, 2), 0.1, 0), np.concatenate([batch, batch]),
        np.arange(2.0 * len(batch)))),
    "is_permutation": ("answers", _rows(is_permutation)),
    "are_permutations": ("answers", lambda batch, n: are_permutations(batch).tolist()),
    "qudit_diagonal_energy": ("answers", _rows(
        lambda row, n: qudit_diagonal_energy(linear_instance(n), row, _PEN) != _PEN.p)),
}


class TestTheLabelRule:
    """Every entry point takes labels as given: 2.0 is the label 2, and 1.5,
    NaN, inf, a label outside 1..N or a batch of the wrong shape raise
    InvalidTourError, with no warning (warnings fail the test run). Repeats
    are refused only where tours are asked for; the tests answer instead."""

    @settings(max_examples=150, deadline=None)
    @given(label_batches())
    @pytest.mark.parametrize("name", LABEL_ENTRY_POINTS)
    def test_bad_labels_raise_or_answer(self, name, batch):
        rule, call = LABEL_ENTRY_POINTS[name]
        n = batch.shape[1]
        assume(n >= 2 and len(batch) >= 1)
        labels = all(x in range(1, n + 1) for x in batch.ravel().tolist())
        tours = [sorted(row.tolist()) == list(range(1, n + 1)) for row in batch]
        if rule == "answers":
            assert call(batch, n) == tours
        elif labels and (rule == "labels" or all(tours)):
            call(batch, n)
        else:
            with pytest.raises(InvalidTourError):
                call(batch, n)

    @pytest.mark.parametrize("name", [k for k, (rule, _) in LABEL_ENTRY_POINTS.items()
                                      if rule != "answers"])
    def test_a_batch_of_the_wrong_shape_raises(self, name):
        _, call = LABEL_ENTRY_POINTS[name]
        tours = np.array([[1, 2, 3], [3, 2, 1]])
        with pytest.raises(InvalidTourError):
            call(tours[None], 3)  # one axis too many: each row is a batch, not a tour
        if name in ("tour_length", "local_energies", "ring_hamiltonian_element",
                    "rbm_tour_log_psi", "rbm_tour_energy_gradient"):
            with pytest.raises(InvalidTourError):
                call(tours, 4)  # three labels where the instance or network has four cities

    def test_the_tests_answer_false_on_a_wrong_shape(self):
        assert not is_permutation([[1, 2, 3]], 3)
        assert qudit_diagonal_energy(linear_instance(4), [1, 2, 3], _PEN) == _PEN.p

    def test_a_bad_label_is_a_qtsp_error_and_a_value_error(self):
        with pytest.raises(QtspError, match="tour label 1.5 outside 1..3"):
            tours_to_sigma([[1.5, 2, 3]])
        assert issubclass(InvalidTourError, ValueError)

    def test_integral_floats_are_their_labels(self):
        assert read_labels([[1.0, 3.0, 2.0]]).tolist() == [[1, 3, 2]]
        assert read_labels([[1.0, 3.0, 2.0]]).dtype == np.int64
        assert local_energies(linear_instance(3), [[1.0, 3.0, 2.0]]).tolist() == [4.0]


class TestSpinColumns:
    def test_row_major_city_slot_layout(self):
        # up spins at (city - 1) * N + slot: (2, 0), (1, 1), (3, 2) are 3, 1, 8
        assert np.flatnonzero(tours_to_sigma([[2, 1, 3]])[0] == 1).tolist() == [1, 3, 8]

    def test_rejects_a_single_tour(self):
        with pytest.raises(ValueError, match="expected a"):
            tours_to_sigma([1, 2, 3])


class TestBruteForce:
    def test_linear_four(self):
        tour, length = brute_force_optimum(linear_instance(4))
        assert length == 6.0
        assert np.array_equal(tour, [1, 2, 3, 4])  # lexicographically smallest optimum

    def test_two_cities(self):
        _, length = brute_force_optimum(linear_instance(2))
        assert length == 2.0

    def test_three_cities_any_instance(self):
        inst = random_symmetric_instance(3, 5)
        _, length = brute_force_optimum(inst)
        expected = inst.dist[0, 1] + inst.dist[1, 2] + inst.dist[2, 0]
        assert length == pytest.approx(expected, abs=1e-12)

    def test_matches_planted(self):
        for n in range(2, 10):
            _, length = brute_force_optimum(linear_instance(n))
            assert length == planted_optimum(n)

    def test_matches_exhaustive_enumeration(self):
        # independent oracle without the first-city / reflection shortcuts
        for seed in range(3):
            inst = random_symmetric_instance(6, 100 + seed)
            _, length = brute_force_optimum(inst)
            assert length == pytest.approx(exhaustive_optimum(inst)[1], abs=1e-12)

    def test_returned_tour_has_returned_length(self):
        inst = random_symmetric_instance(7, 3)
        tour, length = brute_force_optimum(inst)
        assert tour_length(inst, tour) == pytest.approx(length, abs=1e-12)

    def test_size_guard(self):
        with pytest.raises(SizeLimitError):
            brute_force_optimum(linear_instance(13))


class TestFarthestCityTour:
    def test_linear_four(self):
        tour = farthest_city_tour(linear_instance(4), 1)
        assert np.array_equal(tour, [1, 4, 2, 3])
        assert tour_length(linear_instance(4), tour) == 8.0

    def test_two_cities(self):
        assert np.array_equal(farthest_city_tour(linear_instance(2), 1), [1, 2])

    def test_linear_five(self):
        inst = linear_instance(5)
        tour = farthest_city_tour(inst, 1)
        assert np.array_equal(tour, [1, 5, 2, 4, 3])
        assert tour_length(inst, tour) == 12.0

    def test_always_a_permutation(self):
        for seed in range(5):
            inst = random_symmetric_instance(8, seed)
            for start in (1, 3, 8):
                tour = farthest_city_tour(inst, start)
                assert sorted(tour) == list(range(1, 9))
                assert tour[0] == start

    def test_worse_than_planted_on_linear(self):
        for n in range(4, 10):
            inst = linear_instance(n)
            assert tour_length(inst, farthest_city_tour(inst, 1)) > planted_optimum(n)

    def test_bad_start_city(self):
        with pytest.raises(InvalidTourError):
            farthest_city_tour(linear_instance(4), 5)


class TestInstanceJson:
    def test_round_trip(self, tmp_path):
        inst = random_symmetric_instance(5, 9)
        path = tmp_path / "inst.json"
        path.write_text(instance_json(inst))
        loaded = load_instance(path)
        assert np.array_equal(loaded.dist, inst.dist)

    @pytest.mark.parametrize("coords", [[1.0, 2.0, 3.0, 4.0], None, "abc", [1, math.nan]],
                             ids=["list", "null", "string", "nan"])
    def test_a_coords_key_is_ignored(self, tmp_path, coords):
        """Older files also hold coords, written indented; whatever that key
        holds, the file loads to the distances of the same file without it."""
        inst = linear_instance(4)
        old, new = tmp_path / "old.json", tmp_path / "new.json"
        old.write_text(json.dumps({"n_cities": 4, "coords": coords, "dist": inst.dist.tolist()},
                                  indent=2))
        new.write_text(instance_json(inst))
        assert np.array_equal(load_instance(old).dist, load_instance(new).dist)
        assert np.array_equal(load_instance(new).dist, inst.dist)

    def test_rejects_shape_mismatch(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"n_cities": 3, "coords": null, "dist": [[0, 1], [1, 0]]}')
        with pytest.raises(InvalidInstanceError, match="bad.json"):
            load_instance(path)

    @pytest.mark.parametrize("text", [
        "not json",
        '{"n_cities": 2.7, "coords": null, "dist": [[0, 1], [1, 0]]}',
        '{"n_cities": true, "coords": null, "dist": [[0]]}',
        '{"coords": null, "dist": [[0, 1], [1, 0]]}',
        '[]',
        '{"n_cities": 2, "dist": [[0, true], [true, 0]]}',
        '{"n_cities": 2, "dist": [[0, "1"], ["1", 0]]}',
        json.dumps({"n_cities": 2, "dist": [[0, 10**400], [10**400, 0]]}),
    ], ids=["not-json", "fractional-n", "bool-n", "no-n", "list", "bool-distance",
            "string-distance", "401-digit-distance"])
    def test_malformed_file_is_named(self, tmp_path, text):
        path = tmp_path / "bad.json"
        path.write_text(text)
        with pytest.raises(InvalidInstanceError, match="bad.json"):
            load_instance(path)

    def test_rejects_asymmetric_file(self, tmp_path):
        path = tmp_path / "asym.json"
        path.write_text('{"n_cities": 2, "coords": null, "dist": [[0, 1], [2, 0]]}')
        with pytest.raises(InvalidInstanceError, match="asym.json"):
            load_instance(path)
