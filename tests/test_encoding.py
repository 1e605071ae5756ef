import csv
import io
import itertools

import numpy as np
import pytest

from helpers import exhaustive_optimum, random_symmetric_instance, random_tour
from qtsp.encoding import (
    PenaltyConfig,
    _enumerate_basis,
    basis_labels,
    default_penalties,
    dense_hamiltonian,
    dense_to_csv,
    exact_ground_valid_subspace,
    qubo_objective,
    qudit_diagonal_energy,
    ring_hamiltonian_element,
    tour_to_onehot,
    tours_to_sigma,
    twobody_element,
)
from qtsp.errors import InvalidTourError, SizeLimitError
from qtsp.instance import brute_force_optimum, is_permutation, linear_instance, tour_length

PEN = PenaltyConfig(p=1000.0, p_prime=1000.0)


class TestOneHot:
    def test_identity_permutation(self):
        assert np.array_equal(tour_to_onehot([1, 2]), np.eye(2, dtype=int))

    def test_four_city_example(self):
        z = tour_to_onehot([1, 3, 2, 4])
        assert z[2, 1] == 1  # city 3 in slot 2
        assert z[1, 2] == 1  # city 2 in slot 3
        assert np.array_equal(z.sum(axis=0), np.ones(4, dtype=int))
        assert np.array_equal(z.sum(axis=1), np.ones(4, dtype=int))

    def test_rejects_repeat(self):
        with pytest.raises(InvalidTourError):
            tour_to_onehot([1, 1])

    def test_round_trip(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            tour = random_tour(6, rng)
            assert np.array_equal(np.argmax(tour_to_onehot(tour), axis=0) + 1, tour)


class TestQuboObjective:
    def test_valid_tour_gives_length(self):
        inst = linear_instance(4)
        assert qubo_objective(inst, tour_to_onehot([1, 2, 3, 4])) == 6.0

    def test_all_zeros(self):
        # four constraint squares of 1 each, no distance term
        assert qubo_objective(linear_instance(2), np.zeros((2, 2))) == 4.0

    def test_doubled_row(self):
        z = np.zeros((2, 2))
        z[0, 0] = z[0, 1] = 1.0
        assert qubo_objective(linear_instance(2), z) == 2.0

    def test_shape_guard(self):
        with pytest.raises(ValueError):
            qubo_objective(linear_instance(3), np.zeros((2, 2)))


def test_is_permutation():
    assert is_permutation([1, 3, 2, 4], 4)
    assert not is_permutation([1, 1, 2, 3], 4)
    assert is_permutation(list(range(1, 9)), 8)
    assert not is_permutation([1, 3, 2, 4], 5)
    assert not is_permutation([0, 2, 1, 3], 4)
    assert not is_permutation([[1, 2, 3, 4]], 4)
    assert is_permutation([1.0, 3.0, 2.0, 4.0], 4)  # integral floats are labels
    assert not is_permutation([1.5, 3, 2, 4], 4)
    assert not is_permutation([1.0, 3.0, 2.0, np.nan], 4)
    assert not is_permutation([1.0, 3.0, 2.0, 1e300], 4)
    # the callers check the labels as given, before any cast
    with pytest.raises(InvalidTourError):
        tour_length(linear_instance(3), [1.5, 2, 3])
    with pytest.raises(InvalidTourError):
        tour_to_onehot([1.2, 2, 3])
    assert qudit_diagonal_energy(linear_instance(3), [1.9, 2, 3], PEN) == PEN.p


class TestQuditDiagonal:
    def test_valid_config(self):
        assert qudit_diagonal_energy(linear_instance(4), [1, 3, 2, 4], PEN) == 8.0

    def test_invalid_config_gets_penalty(self):
        assert qudit_diagonal_energy(linear_instance(4), [1, 1, 2, 3], PEN) == 1000.0

    def test_two_cities(self):
        assert qudit_diagonal_energy(linear_instance(2), [1, 2], PEN) == 2.0

    def test_valid_config_is_its_tour_length_bit_for_bit(self):
        rng = np.random.default_rng(8)
        for n in range(3, 9):
            inst = random_symmetric_instance(n, n, scale=9.0)
            for _ in range(20):
                tour = random_tour(n, rng)
                assert qudit_diagonal_energy(inst, tour, PEN).hex() == tour_length(inst, tour).hex()

    def test_cyclic_shift_invariance(self):
        inst = random_symmetric_instance(6, 2)
        rng = np.random.default_rng(3)
        for _ in range(10):
            cfg = random_tour(6, rng)
            base = qudit_diagonal_energy(inst, cfg, PEN)
            for k in range(6):
                assert qudit_diagonal_energy(inst, np.roll(cfg, -k), PEN) == pytest.approx(base, abs=1e-12)


class TestTwoBodyElement:
    def test_diagonal(self):
        assert twobody_element(linear_instance(4), 1, 2, 1, 2, PEN) == 1.0

    def test_one_mismatch(self):
        assert twobody_element(linear_instance(4), 1, 2, 1, 3, PEN) == 1000.0

    def test_two_mismatches(self):
        assert twobody_element(linear_instance(4), 1, 2, 3, 4, PEN) == 2000.0

    def test_label_guard(self):
        with pytest.raises(ValueError):
            twobody_element(linear_instance(4), 0, 2, 1, 2, PEN)

    @pytest.mark.parametrize("levels", [(1.5, 2, 1, 2), (1, 2, 1, 5), (1, np.nan, 1, 2),
                                        ("a", 2, 1, 2)])
    def test_a_level_that_is_no_label_is_an_invalid_tour(self, levels):
        """The four levels follow the label rule of qtsp.instance against N."""
        with pytest.raises(InvalidTourError, match="outside 1..4"):
            twobody_element(linear_instance(4), *levels, PEN)

    def test_an_integral_float_is_its_label(self):
        assert twobody_element(linear_instance(4), 1.0, 2.0, 1, 3.0, PEN) == 1000.0


class TestRingElement:
    def test_diagonal_is_tour_length(self):
        inst = linear_instance(4)
        assert ring_hamiltonian_element(inst, [1, 2, 3, 4], [1, 2, 3, 4], PEN) == 6.0

    def test_single_site_difference(self):
        inst = linear_instance(4)
        value = ring_hamiltonian_element(inst, [1, 2, 3, 4], [1, 2, 1, 4], PEN)
        assert value == 2 * PEN.p_prime

    def test_nonadjacent_two_site_difference_vanishes(self):
        inst = linear_instance(4)
        # sites 1 and 3 differ: no single bond covers both
        assert ring_hamiltonian_element(inst, [1, 2, 3, 4], [1, 4, 3, 2], PEN) == 0.0

    def test_bond_pair_difference_is_twice_penalty(self):
        # both differing sites on one bond: the coupler's double-mismatch
        # penalty survives, 2p' (not zero)
        inst = linear_instance(4)
        assert ring_hamiltonian_element(inst, [1, 2, 3, 4], [2, 1, 3, 4], PEN) == 2 * PEN.p_prime

    def test_three_site_difference_vanishes(self):
        inst = linear_instance(4)
        assert ring_hamiltonian_element(inst, [1, 2, 3, 4], [2, 3, 1, 4], PEN) == 0.0

    def test_diagonal_matches_tour_length_on_all_valid_configs(self):
        inst = linear_instance(4)
        for perm in itertools.permutations(range(1, 5)):
            cfg = np.array(perm)
            assert ring_hamiltonian_element(inst, cfg, cfg, PEN) == pytest.approx(
                tour_length(inst, cfg), abs=1e-12
            )


class TestDenseHamiltonian:
    def test_eq2_two_city_hand_matrix(self):
        # basis (1,1), (1,2), (2,1), (2,2); eq2 reads p and never p'
        expected = np.full((4, 4), 100.0)
        expected[1, 1] = expected[2, 2] = 2.0
        for pen in (PenaltyConfig(p=100.0, p_prime=100.0), PenaltyConfig(p=100.0, p_prime=7.0)):
            assert np.array_equal(dense_hamiltonian(linear_instance(2), "eq2", pen), expected)

    def test_eq4_two_city_single_site(self):
        for pen in (PenaltyConfig(p=100.0, p_prime=100.0), PenaltyConfig(p=100.0, p_prime=7.0)):
            h = dense_hamiltonian(linear_instance(2), "eq4", pen)
            # N=2 is the special ring where both bonds touch every site
            assert h[0, 2] == 2 * pen.p_prime  # (1,1) -> (2,1)

    def test_symmetric_both_variants(self):
        inst = random_symmetric_instance(3, 7)
        pen = default_penalties(inst)
        for variant in ("eq2", "eq4"):
            h = dense_hamiltonian(inst, variant, pen)
            assert np.array_equal(h, h.T)

    def test_valid_diagonal_entries_are_tour_lengths(self):
        inst = linear_instance(3)
        pen = default_penalties(inst)
        basis = _enumerate_basis(3)
        for variant in ("eq2", "eq4"):
            h = dense_hamiltonian(inst, variant, pen)
            for idx, cfg in enumerate(basis):
                if is_permutation(cfg, 3):
                    assert h[idx, idx] == pytest.approx(tour_length(inst, cfg), abs=1e-12)

    def test_eq4_matches_elementwise_oracle(self):
        # every entry against the direct bond-sum evaluation, with p = p' and p != p'
        small, large = random_symmetric_instance(3, 13), random_symmetric_instance(4, 13)
        for inst, pen in ((small, default_penalties(small)),
                          (large, PenaltyConfig(p=100.0, p_prime=7.0))):
            h = dense_hamiltonian(inst, "eq4", pen)
            basis = _enumerate_basis(inst.n_cities)
            full = np.array(
                [[ring_hamiltonian_element(inst, a, b, pen) for b in basis] for a in basis]
            )
            assert np.array_equal(h, full)

    def test_size_guard(self):
        with pytest.raises(SizeLimitError):
            dense_hamiltonian(linear_instance(6), "eq2", PEN)

    def test_unknown_variant(self):
        with pytest.raises(ValueError):
            dense_hamiltonian(linear_instance(2), "eq3", PEN)


class TestExactGroundValidSubspace:
    def test_linear_four(self):
        _, energy = exact_ground_valid_subspace(linear_instance(4))
        assert energy == 6.0

    def test_linear_three(self):
        _, energy = exact_ground_valid_subspace(linear_instance(3))
        assert energy == 4.0

    def test_agrees_with_brute_force(self):
        for seed in range(20):
            inst = random_symmetric_instance(5, seed)
            _, e_subspace = exact_ground_valid_subspace(inst)
            _, e_brute = brute_force_optimum(inst)
            assert e_subspace == pytest.approx(e_brute, abs=1e-12)

    def test_matches_the_per_permutation_loop_bit_for_bit(self):
        for n in range(3, 9):
            for seed in range(2):
                inst = random_symmetric_instance(n, seed, scale=9.0)
                tour, energy = exact_ground_valid_subspace(inst)
                loop_tour, loop_energy = exhaustive_optimum(inst)
                assert tour.tolist() == loop_tour.tolist()
                assert energy.hex() == loop_energy.hex()

    def test_size_guard(self):
        with pytest.raises(SizeLimitError):
            exact_ground_valid_subspace(linear_instance(9))


class TestEncodingEquivalence:
    def test_three_routes_agree(self):
        rng = np.random.default_rng(21)
        for n in (4, 6):
            inst = linear_instance(n)
            pen = default_penalties(inst)
            for _ in range(50):
                tour = random_tour(n, rng)
                length = tour_length(inst, tour)
                assert qubo_objective(inst, tour_to_onehot(tour)) == pytest.approx(length, abs=1e-12)
                assert qudit_diagonal_energy(inst, tour, pen) == pytest.approx(length, abs=1e-12)

    def test_tours_to_sigma_matches_single(self):
        rng = np.random.default_rng(2)
        tours = np.stack([random_tour(5, rng) for _ in range(8)])
        sig = tours_to_sigma(tours)
        for row, tour in zip(sig, tours):
            expected = (2 * tour_to_onehot(tour) - 1).reshape(-1)
            assert np.array_equal(row, expected)

    @pytest.mark.parametrize("tours,label", [([[0, 2, 3]], 0), ([[1, 2, 3], [3, 4, 1]], 4)])
    def test_tours_to_sigma_names_a_label_outside_one_to_n(self, tours, label):
        """Label 0 would otherwise index city N's spin."""
        with pytest.raises(ValueError, match=f"tour label {label} outside 1..3"):
            tours_to_sigma(tours)


def test_dense_to_csv_round_trips():
    inst = linear_instance(2)
    pen = PenaltyConfig(p=100.0, p_prime=100.0)
    h = dense_hamiltonian(inst, "eq2", pen)
    text = dense_to_csv(h, 2)
    rows = list(csv.reader(io.StringIO(text)))
    assert rows[0] == basis_labels(2) == ["(1,1)", "(1,2)", "(2,1)", "(2,2)"]
    values = np.array([[float(v) for v in row] for row in rows[1:]])
    assert np.array_equal(values, h)


def test_dense_to_csv_refuses_a_matrix_of_another_basis():
    with pytest.raises(ValueError, match="does not match the N\\^N basis"):
        dense_to_csv(np.zeros((4, 4)), 3)


def test_default_penalties_dominate_distances():
    inst = random_symmetric_instance(6, 1)
    pen = default_penalties(inst)
    assert pen.p > inst.dist.max()
    assert pen.p_prime > inst.dist.max()


@pytest.mark.parametrize("inst", [
    linear_instance(3), linear_instance(4),
    random_symmetric_instance(4, 0), random_symmetric_instance(4, 1),
], ids=["linear-3", "linear-4", "random-4-seed-0", "random-4-seed-1"])
def test_eq2_ground_energy_is_optimum_minus_p(inst):
    """The dense eq2 matrix is p everywhere off the diagonal, so the difference
    of two optimal tours is an eigenvector with eigenvalue optimum - p: its
    lowest eigenvalue is that, not the optimum itself."""
    pen = default_penalties(inst)
    lowest = np.linalg.eigvalsh(dense_hamiltonian(inst, "eq2", pen))[0]
    assert lowest == pytest.approx(brute_force_optimum(inst)[1] - pen.p, abs=1e-9)
