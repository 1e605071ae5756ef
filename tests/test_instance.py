import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from helpers import (
    OVERFLOWING_DISTANCES,
    exhaustive_optimum,
    random_symmetric_instance,
    random_tour,
    write_instance_file,
)
from qtsp.errors import InvalidInstanceError, InvalidTourError, SizeLimitError
from qtsp.instance import (
    MAX_TOUR_LENGTH,
    Instance,
    are_permutations,
    brute_force_optimum,
    farthest_city_tour,
    instance_json,
    linear_instance,
    load_instance,
    planted_optimum,
    spin_columns,
    tour_length,
    tour_lengths,
)


class TestLinearInstance:
    def test_coordinates_and_distances(self):
        inst = linear_instance(4)
        assert np.array_equal(inst.coords, [1.0, 2.0, 3.0, 4.0])
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

    def test_accepts_tour_lengths_at_the_bound(self):
        inst = Instance(dist=MAX_TOUR_LENGTH / 4 * (1.0 - np.eye(4)))
        assert tour_length(inst, [1, 2, 3, 4]) == pytest.approx(MAX_TOUR_LENGTH)


def test_planted_optimum():
    assert planted_optimum(4) == 6.0
    assert planted_optimum(2) == 2.0
    assert planted_optimum(100) == 198.0


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
    """(B, N) integer batches mixing permutations of 1..N with rows drawn
    from -2..N+2: zeros, N + 1, negatives and repeats."""
    n = draw(st.integers(1, 8))
    perm = st.permutations(range(1, n + 1))
    any_row = st.lists(st.integers(-2, n + 2), min_size=n, max_size=n)
    rows = draw(st.lists(st.one_of(perm, any_row), max_size=6))
    return np.array(rows, dtype=np.int64).reshape(len(rows), n)


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


class TestSpinColumns:
    def test_row_major_city_slot_layout(self):
        assert spin_columns([[2, 1, 3]]).tolist() == [[3, 1, 8]]

    def test_rejects_a_single_tour(self):
        with pytest.raises(ValueError, match="expected a"):
            spin_columns([1, 2, 3])


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
        assert loaded.coords is None

    def test_round_trip_with_coords(self, tmp_path):
        inst = linear_instance(4)
        path = tmp_path / "lin.json"
        path.write_text(instance_json(inst))
        loaded = load_instance(path)
        assert np.array_equal(loaded.coords, inst.coords)

    def test_rejects_shape_mismatch(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"n_cities": 3, "coords": null, "dist": [[0, 1], [1, 0]]}')
        with pytest.raises(InvalidInstanceError, match="bad.json"):
            load_instance(path)

    @pytest.mark.parametrize("text", [
        "not json",
        '{"n_cities": 2, "coords": "abc", "dist": [[0, 1], [1, 0]]}',
        '{"n_cities": 2.7, "coords": null, "dist": [[0, 1], [1, 0]]}',
        '{"n_cities": true, "coords": null, "dist": [[0]]}',
        '{"coords": null, "dist": [[0, 1], [1, 0]]}',
        '[]',
        '{"n_cities": 2, "coords": [1, NaN], "dist": [[0, 1], [1, 0]]}',
    ], ids=["not-json", "coords-string", "fractional-n", "bool-n", "no-n", "list", "coords-nan"])
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
