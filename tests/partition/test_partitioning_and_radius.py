"""Tests for the Partitioning object, representatives, and the radius/epsilon machinery."""

import numpy as np
import pytest

from repro.dataset.table import Table
from repro.errors import PartitioningError
from repro.paql.ast import ObjectiveDirection
from repro.partition.partitioning import Partitioning, PartitioningStats, densify_group_ids
from repro.partition.quadtree import QuadTreePartitioner
from repro.partition.radius import (
    approximation_factor,
    epsilon_for_omega,
    gamma_for_epsilon,
    omega_for_epsilon,
)
from repro.partition.representatives import (
    build_representative_table,
    centroid_moments,
    centroids_from_moments,
    compute_centroids,
    group_radii,
    null_aware_centroid,
    representative_table_from_centroids,
)
from repro.workloads.galaxy import galaxy_table


@pytest.fixture(scope="module")
def partitioned_galaxy():
    table = galaxy_table(400, seed=5)
    attributes = ["petroMag_r", "redshift", "petroFlux_r"]
    partitioning = QuadTreePartitioner(size_threshold=50).partition(table, attributes)
    return table, attributes, partitioning


class TestRepresentatives:
    def test_centroids_are_group_means(self):
        table = Table.from_dict({"x": [0.0, 2.0, 10.0, 14.0], "y": [1.0, 3.0, 5.0, 7.0]})
        group_ids = np.array([0, 0, 1, 1])
        centroids = compute_centroids(table, group_ids, ["x", "y"])
        assert centroids.tolist() == [[1.0, 2.0], [12.0, 6.0]]

    def test_centroids_ignore_nans(self):
        table = Table.from_dict({"x": [1.0, None, 5.0]})
        centroids = compute_centroids(table, np.array([0, 0, 0]), ["x"])
        assert centroids[0, 0] == pytest.approx(3.0)

    def test_representative_table_schema(self, partitioned_galaxy):
        table, attributes, partitioning = partitioned_galaxy
        representatives = build_representative_table(table, partitioning.group_ids, attributes)
        assert representatives.schema.names == ("gid",) + tuple(attributes)
        assert representatives.num_rows == partitioning.num_groups

    def test_group_radii_bound_member_distances(self):
        table = Table.from_dict({"x": [0.0, 4.0, 100.0]})
        group_ids = np.array([0, 0, 1])
        radii = group_radii(table, group_ids, ["x"])
        assert radii[0] == pytest.approx(2.0)
        assert radii[1] == pytest.approx(0.0)


class TestCentroidMoments:
    def test_sums_and_counts_per_group(self):
        table = Table.from_dict({"x": [0.0, 2.0, 10.0, 14.0], "y": [1.0, 3.0, 5.0, 7.0]})
        sums, counts = centroid_moments(table, np.array([0, 0, 1, 1]), ["x", "y"])
        assert sums.tolist() == [[2.0, 4.0], [24.0, 12.0]]
        assert counts.tolist() == [[2.0, 2.0], [2.0, 2.0]]

    def test_nulls_are_left_out_of_sums_and_counts(self):
        table = Table.from_dict({"x": [1.0, None, 5.0], "y": [2.0, 4.0, 6.0]})
        sums, counts = centroid_moments(table, np.array([0, 0, 1]), ["x", "y"])
        assert sums.tolist() == [[1.0, 6.0], [5.0, 6.0]]
        assert counts.tolist() == [[1.0, 2.0], [1.0, 1.0]]

    def test_explicit_group_count_pads_empty_groups(self):
        table = Table.from_dict({"x": [1.0, 3.0]})
        sums, counts = centroid_moments(table, np.array([0, 0]), ["x"], num_groups=3)
        assert sums.shape == counts.shape == (3, 1)
        assert sums[1:].tolist() == [[0.0], [0.0]]
        assert counts[1:].tolist() == [[0.0], [0.0]]

    def test_group_ids_must_cover_the_table(self):
        table = Table.from_dict({"x": [1.0, 3.0, 5.0]})
        with pytest.raises(PartitioningError):
            centroid_moments(table, np.array([0, 0]), ["x"])

    def test_moments_add_across_a_row_split(self):
        """Moments of a table are the sum of the moments of any row split — the
        property incremental maintenance relies on to patch centroids."""
        table = galaxy_table(120, seed=3)
        attributes = ["petroMag_r", "redshift"]
        group_ids = np.arange(table.num_rows) % 4
        whole = centroid_moments(table, group_ids, attributes, num_groups=4)
        head, tail = np.arange(50), np.arange(50, table.num_rows)
        first = centroid_moments(table.take(head), group_ids[head], attributes, num_groups=4)
        second = centroid_moments(table.take(tail), group_ids[tail], attributes, num_groups=4)
        np.testing.assert_allclose(whole[0], first[0] + second[0])
        np.testing.assert_array_equal(whole[1], first[1] + second[1])

    def test_groups_without_valid_values_centre_at_zero(self):
        sums = np.array([[6.0, 0.0], [0.0, 0.0]])
        counts = np.array([[3.0, 0.0], [0.0, 0.0]])
        assert centroids_from_moments(sums, counts).tolist() == [[2.0, 0.0], [0.0, 0.0]]

    def test_centroids_from_moments_match_compute_centroids(self, partitioned_galaxy):
        table, attributes, partitioning = partitioned_galaxy
        sums, counts = centroid_moments(table, partitioning.group_ids, attributes)
        np.testing.assert_allclose(
            centroids_from_moments(sums, counts),
            compute_centroids(table, partitioning.group_ids, attributes),
        )

    def test_null_aware_centroid_ignores_nans_and_pins_all_null_to_zero(self):
        chunk = np.array([[1.0, np.nan, 4.0], [3.0, np.nan, np.nan]])
        assert null_aware_centroid(chunk).tolist() == [2.0, 0.0, 4.0]

    def test_representative_table_from_centroids(self):
        centroids = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
        representatives = representative_table_from_centroids(centroids, ["x", "y"], "points")
        assert representatives.name == "points_representatives"
        assert representatives.schema.names == ("gid", "x", "y")
        assert representatives.column("gid").tolist() == [0, 1, 2]
        assert representatives.column("y").tolist() == [2.0, 4.0, 6.0]

    def test_partitioning_moments_back_its_centroids_and_representatives(self, partitioned_galaxy):
        _, attributes, partitioning = partitioned_galaxy
        sums, counts = partitioning.group_centroid_moments()
        assert partitioning.group_centroid_moments()[0] is sums  # memoised
        centroids = partitioning.group_centroids()
        np.testing.assert_allclose(centroids, centroids_from_moments(sums, counts))
        representatives = partitioning.representatives
        for j, attribute in enumerate(attributes):
            np.testing.assert_allclose(representatives.column(attribute), centroids[:, j])


class TestDensifyGroupIds:
    def test_dense_assignment_is_returned_unchanged(self):
        group_ids = np.array([1, 0, 2, 1], dtype=np.int64)
        dense, kept, remap = densify_group_ids(group_ids, 3)
        assert dense is group_ids
        assert kept.all()
        assert remap.tolist() == [0, 1, 2]

    def test_holes_are_compacted_in_gid_order(self):
        group_ids = np.array([4, 1, 4, 1, 2], dtype=np.int64)
        dense, kept, remap = densify_group_ids(group_ids, 5)
        assert dense.tolist() == [2, 0, 2, 0, 1]
        assert kept.tolist() == [False, True, True, False, True]
        assert remap.tolist() == [-1, 0, 1, -1, 2]

    def test_empty_assignment_retires_every_slot(self):
        dense, kept, remap = densify_group_ids(np.empty(0, dtype=np.int64), 2)
        assert dense.size == 0
        assert not kept.any()
        assert remap.tolist() == [-1, -1]


class TestPartitioningObject:
    def test_group_rows_partition_the_table(self, partitioned_galaxy):
        _, _, partitioning = partitioned_galaxy
        all_rows = np.concatenate(
            [partitioning.group_rows(g) for g in range(partitioning.num_groups)]
        )
        assert sorted(all_rows.tolist()) == list(range(partitioning.table.num_rows))

    def test_group_size_and_radius(self, partitioned_galaxy):
        _, _, partitioning = partitioned_galaxy
        for gid in range(partitioning.num_groups):
            assert partitioning.group_size(gid) == len(partitioning.group_rows(gid))
            assert partitioning.group_radius(gid) >= 0.0
        assert partitioning.max_radius() == max(
            partitioning.group_radius(g) for g in range(partitioning.num_groups)
        )

    def test_unknown_group_rejected(self, partitioned_galaxy):
        _, _, partitioning = partitioned_galaxy
        with pytest.raises(PartitioningError):
            partitioning.group_rows(9999)

    def test_mismatched_group_ids_rejected(self, small_numeric_table):
        stats = PartitioningStats(1, 5, 0.0, 0.0, 5, None, "manual")
        with pytest.raises(PartitioningError):
            Partitioning(small_numeric_table, np.zeros(3, dtype=np.int64), ["a"], stats)

    def test_table_with_gid_column(self, partitioned_galaxy):
        _, _, partitioning = partitioned_galaxy
        augmented = partitioning.table_with_gid()
        assert "gid" in augmented.schema
        assert augmented.column("gid").tolist() == partitioning.group_ids.tolist()

    def test_restricted_to_rows_preserves_size_condition(self, partitioned_galaxy):
        _, _, partitioning = partitioned_galaxy
        rng = np.random.default_rng(0)
        subset = np.sort(rng.choice(partitioning.table.num_rows, 150, replace=False))
        restricted = partitioning.restricted_to_rows(subset)
        assert restricted.table.num_rows == 150
        # Removing tuples can only shrink groups, never grow them.
        assert restricted.group_sizes().max() <= partitioning.group_sizes().max()
        # Group ids are densified.
        assert set(np.unique(restricted.group_ids)) == set(range(restricted.num_groups))

    def test_save_and_load_round_trip(self, partitioned_galaxy, tmp_path):
        table, _, partitioning = partitioned_galaxy
        partitioning.save(tmp_path / "part")
        loaded = Partitioning.load(tmp_path / "part", table)
        assert loaded.num_groups == partitioning.num_groups
        assert np.array_equal(loaded.group_ids, partitioning.group_ids)
        assert loaded.attributes == partitioning.attributes

    def test_load_with_wrong_table_rejected(self, partitioned_galaxy, tmp_path):
        table, attributes, partitioning = partitioned_galaxy
        partitioning.save(tmp_path / "part2")
        smaller = table.head(50)
        with pytest.raises(PartitioningError):
            Partitioning.load(tmp_path / "part2", smaller)


class TestRadiusFormula:
    def test_gamma_for_maximisation(self):
        assert gamma_for_epsilon(0.2, ObjectiveDirection.MAXIMIZE) == 0.2
        with pytest.raises(PartitioningError):
            gamma_for_epsilon(1.5, ObjectiveDirection.MAXIMIZE)

    def test_gamma_for_minimisation(self):
        assert gamma_for_epsilon(1.0, ObjectiveDirection.MINIMIZE) == pytest.approx(0.5)
        with pytest.raises(PartitioningError):
            gamma_for_epsilon(-0.1, ObjectiveDirection.MINIMIZE)

    def test_omega_uses_smallest_representative_magnitude(self, partitioned_galaxy):
        _, attributes, partitioning = partitioned_galaxy
        omega = omega_for_epsilon(
            partitioning.representatives, attributes, 0.5, ObjectiveDirection.MAXIMIZE
        )
        magnitudes = np.abs(partitioning.representatives.numeric_matrix(attributes))
        assert omega == pytest.approx(0.5 * magnitudes.min())

    def test_epsilon_omega_inverse_relationship(self, partitioned_galaxy):
        _, attributes, partitioning = partitioned_galaxy
        epsilon = 0.3
        omega = omega_for_epsilon(
            partitioning.representatives, attributes, epsilon, ObjectiveDirection.MAXIMIZE
        )
        recovered = epsilon_for_omega(
            partitioning.representatives, attributes, omega, ObjectiveDirection.MAXIMIZE
        )
        assert recovered == pytest.approx(epsilon)

    def test_epsilon_for_omega_minimisation_saturates(self, partitioned_galaxy):
        _, attributes, partitioning = partitioned_galaxy
        huge_omega = 1e12
        assert epsilon_for_omega(
            partitioning.representatives, attributes, huge_omega, ObjectiveDirection.MINIMIZE
        ) == float("inf")

    def test_approximation_factor(self):
        assert approximation_factor(0.0, ObjectiveDirection.MAXIMIZE) == 1.0
        assert approximation_factor(0.1, ObjectiveDirection.MAXIMIZE) == pytest.approx(0.9 ** 6)
        assert approximation_factor(0.1, ObjectiveDirection.MINIMIZE) == pytest.approx(1.1 ** 6)


class TestSaveLoadRoundTrip:
    """Satellite coverage for Partitioning.save/load (metadata, derivation, errors)."""

    def test_metadata_and_stats_equality(self, partitioned_galaxy, tmp_path):
        table, _, partitioning = partitioned_galaxy
        partitioning.save(tmp_path / "part")
        loaded = Partitioning.load(tmp_path / "part", table)
        assert loaded.stats == partitioning.stats
        assert loaded.attributes == partitioning.attributes
        assert loaded.version == partitioning.version
        assert loaded.maintenance == partitioning.maintenance
        assert np.allclose(
            loaded.representatives.numeric_matrix(loaded.attributes),
            partitioning.representatives.numeric_matrix(partitioning.attributes),
        )

    def test_restricted_to_rows_of_loaded_partitioning(self, partitioned_galaxy, tmp_path):
        table, _, partitioning = partitioned_galaxy
        partitioning.save(tmp_path / "part")
        loaded = Partitioning.load(tmp_path / "part", table)
        rng = np.random.default_rng(9)
        subset = np.sort(rng.choice(table.num_rows, 120, replace=False))
        restricted = loaded.restricted_to_rows(subset)
        expected = partitioning.restricted_to_rows(subset)
        assert restricted.table.num_rows == 120
        assert np.array_equal(restricted.group_ids, expected.group_ids)
        assert restricted.group_sizes().max() <= partitioning.group_sizes().max()

    def test_representatives_mismatch_rejected(self, partitioned_galaxy, tmp_path):
        table, attributes, partitioning = partitioned_galaxy
        directory = tmp_path / "part"
        partitioning.save(directory)
        # Corrupt the persisted representatives: drop half the groups.
        from repro.dataset.io import load_table, save_table

        persisted = load_table(directory / "representatives.npz")
        truncated = persisted.head(max(1, persisted.num_rows // 2))
        save_table(truncated, directory / "representatives.npz")
        with pytest.raises(PartitioningError, match="does not match"):
            Partitioning.load(directory, table)

    def test_maintained_partitioning_round_trips_version(self, tmp_path):
        from repro.partition.maintenance import PartitionMaintainer

        table = galaxy_table(300, seed=6)
        attributes = ["petroMag_r", "redshift"]
        partitioning = QuadTreePartitioner(size_threshold=40).partition(table, attributes)
        new_table, delta = table.append_rows(table.head(25))
        maintained, _ = PartitionMaintainer().maintain(partitioning, new_table, delta)
        maintained.save(tmp_path / "part")
        loaded = Partitioning.load(tmp_path / "part", new_table)
        assert loaded.version == 1
        assert loaded.maintenance.deltas_applied == 1
        assert loaded.maintenance.rows_inserted == 25
        assert np.array_equal(loaded.group_ids, maintained.group_ids)
