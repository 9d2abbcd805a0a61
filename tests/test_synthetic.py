"""Clustered synthetic libraries and the purity surrogate."""

import numpy as np
import pytest

from emodub.errors import ArgumentError
from emodub.retrieval import Metric, Mode
from emodub.synthetic import ClusterSpec, evaluate_purity, generate_clustered_library


class TestGeneration:
    def test_config_echo(self):
        lib = generate_clustered_library(ClusterSpec(n=200, clusters=4, seed=3))
        assert len(lib) == 200
        labels = {r.emotion_label for r in lib.records}
        assert labels == {f"cluster_{i}" for i in range(4)}

    def test_deterministic_per_seed(self):
        spec = ClusterSpec(n=40, clusters=3, seed=12)
        a = generate_clustered_library(spec)
        b = generate_clustered_library(spec)
        assert a == b
        c = generate_clustered_library(ClusterSpec(n=40, clusters=3, seed=13))
        assert a != c

    def test_centroid_separation_is_exact(self):
        spec = ClusterSpec(n=300, clusters=3, separation=6.0, dim=8, seed=1)
        lib = generate_clustered_library(spec)
        # empirical centroids should sit near the exact lattice points
        radius = 6.0 / np.sqrt(2.0)
        for label in range(3):
            members = [r.scene.values for r in lib.records if r.emotion_label == f"cluster_{label}"]
            centroid = np.mean(members, axis=0)
            want = np.zeros(8)
            want[label] = radius
            assert np.linalg.norm(centroid - want) < 0.5  # noise is sigma=1 / sqrt(100)

    def test_speaker_schemes(self):
        rr = generate_clustered_library(ClusterSpec(n=12, clusters=3, speakers=4, seed=0))
        assert {r.speaker_id for r in rr.records} == {f"speaker_{i}" for i in range(4)}
        pc = generate_clustered_library(
            ClusterSpec(n=12, clusters=3, seed=0, speaker_per_cluster=True)
        )
        for r in pc.records:
            assert r.speaker_id == f"speaker_{r.emotion_label.removeprefix('cluster_')}"

    def test_too_many_clusters_rejected(self):
        with pytest.raises(ArgumentError, match="clusters <= dim"):
            generate_clustered_library(ClusterSpec(n=10, clusters=9, dim=8))

    def test_bad_sizes_rejected(self):
        with pytest.raises(ArgumentError):
            generate_clustered_library(ClusterSpec(n=0))
        with pytest.raises(ArgumentError):
            generate_clustered_library(ClusterSpec(clusters=0))
        with pytest.raises(ArgumentError):
            generate_clustered_library(ClusterSpec(separation=-1.0))


class TestPurity:
    def test_well_separated_clusters_retrieve_pure(self):
        lib = generate_clustered_library(ClusterSpec(n=120, clusters=3, separation=8.0, seed=5))
        res = evaluate_purity(lib, k=3)
        assert res.purity > 0.97
        assert res.retrieved == 120 * 3 * 3

    def test_six_sigma_nearest_neighbor_purity(self):
        lib = generate_clustered_library(ClusterSpec(n=240, clusters=3, separation=6.0, seed=4))
        res = evaluate_purity(lib, k=1)
        assert res.purity >= 0.99

    def test_zero_separation_is_chance_level(self):
        lib = generate_clustered_library(ClusterSpec(n=150, clusters=3, separation=0.0, seed=6))
        res = evaluate_purity(lib, k=3)
        assert abs(res.purity - 1.0 / 3.0) < 0.1

    def test_purity_across_metrics(self):
        lib = generate_clustered_library(ClusterSpec(n=90, clusters=3, separation=8.0, seed=7))
        for metric in Metric:
            res = evaluate_purity(lib, k=1, metric=metric)
            assert res.purity > 0.95, metric

    def test_speaker_specific_on_per_cluster_speakers(self):
        # each cluster owned by one speaker: specific mode can only return
        # same-cluster records, so purity is exactly 1
        lib = generate_clustered_library(
            ClusterSpec(n=60, clusters=3, separation=4.0, seed=8, speaker_per_cluster=True)
        )
        specific = evaluate_purity(lib, k=3, mode=Mode.SPEAKER_SPECIFIC)
        agnostic = evaluate_purity(lib, k=3, mode=Mode.SPEAKER_AGNOSTIC)
        assert specific.purity == 1.0
        assert specific.purity >= agnostic.purity
