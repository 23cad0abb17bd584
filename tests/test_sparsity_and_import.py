"""Tests for sparsity/sharing analysis and the external-model importer."""

import json

import numpy as np
import pytest

from repro.model import (
    TMModel,
    analyze_sharing,
    analyze_sparsity,
    import_bit_matrix,
    import_model,
    import_state_dump,
)
from repro.model.importer import ImportError_
from repro.model.sparsity import _pairwise_overlap
from _fixtures import random_model


class TestSparsityReport:
    def test_counts_on_crafted_model(self):
        inc = np.zeros((1, 4, 8), dtype=bool)
        inc[0, 0, [0, 1]] = True
        inc[0, 1, 2] = True
        # clauses 2, 3 empty
        m = TMModel(include=inc, n_features=4)
        rep = analyze_sparsity(m)
        assert rep.total_includes == 3
        assert rep.empty_clauses == 2
        assert rep.includes_per_clause_max == 2
        assert rep.density == pytest.approx(3 / 32)

    def test_contradictory_counted(self):
        inc = np.zeros((1, 2, 8), dtype=bool)
        inc[0, 0, 0] = True
        inc[0, 0, 4] = True  # x0 & ~x0
        m = TMModel(include=inc, n_features=4)
        assert analyze_sparsity(m).contradictory_clauses == 1

    def test_per_class_density(self):
        m = random_model(n_classes=3, seed=11)
        rep = analyze_sparsity(m)
        assert len(rep.per_class_density) == 3
        assert np.isclose(np.mean(rep.per_class_density), rep.density, atol=1e-9)

    def test_summary_text(self):
        rep = analyze_sparsity(random_model())
        assert "density" in rep.summary()


class TestSharingReport:
    def test_duplicates_detected(self):
        inc = np.zeros((2, 4, 6), dtype=bool)
        inc[:, :, 0] = True  # all 8 clauses identical (x0)
        m = TMModel(include=inc, n_features=3)
        rep = analyze_sharing(m)
        assert rep.distinct_expressions == 1
        assert rep.total_nonempty_clauses == 8
        assert rep.duplicate_instances == 8
        assert rep.full_clause_sharing_ratio == pytest.approx(7 / 8)
        assert rep.inter_class_duplicates >= 1
        assert rep.intra_class_duplicates >= 1

    def test_no_duplicates(self):
        inc = np.zeros((1, 3, 8), dtype=bool)
        inc[0, 0, 0] = True
        inc[0, 1, 1] = True
        inc[0, 2, 2] = True
        m = TMModel(include=inc, n_features=4)
        rep = analyze_sharing(m)
        assert rep.duplicated_expressions == 0
        assert rep.full_clause_sharing_ratio == 0.0

    def test_literal_overlap_positive_for_trained_like(self):
        m = random_model(density=0.3, seed=4)
        rep = analyze_sharing(m)
        assert rep.pairwise_literal_overlap > 0.0


def _brute_overlap(model, max_pairs=20000, seed=7):
    """Per-pair Jaccard over Python sets, on the same sampled pairs."""
    inc = model.include.reshape(-1, model.n_literals)
    sets = [set(np.flatnonzero(row).tolist()) for row in inc if row.any()]
    n = len(sets)
    if n < 2:
        return 0.0, 0
    rng = np.random.default_rng(seed)
    n_pairs = min(max_pairs, n * (n - 1) // 2)
    ii = rng.integers(0, n, size=n_pairs)
    jj = rng.integers(0, n, size=n_pairs)
    jac, shared = [], 0
    for i, j in zip(ii.tolist(), jj.tolist()):
        if i == j:
            continue
        inter = len(sets[i] & sets[j])
        jac.append(inter / len(sets[i] | sets[j]))
        shared += inter > 0
    if not jac:
        return 0.0, 0
    return float(np.mean(jac)), shared


def _overlap_cases():
    rng = np.random.default_rng(3)
    sparse = rng.random((3, 12, 40)) < 0.15
    sparse[:, ::4] = False  # every fourth clause empty
    one = np.zeros((2, 5, 40), dtype=bool)
    one[1, 3, [0, 7, 21]] = True  # exactly one nonempty clause
    same = np.zeros((2, 6, 40), dtype=bool)
    same[:, :, [2, 9, 30]] = True  # every clause identical
    dense = rng.random((4, 30, 40)) < 0.4
    dense[0, :5] = False
    return {"sparse": sparse, "one_nonempty": one, "identical": same,
            "dense": dense, "all_empty": np.zeros((1, 4, 40), dtype=bool)}


class TestPairwiseOverlap:
    @pytest.mark.parametrize("case", sorted(_overlap_cases()))
    @pytest.mark.parametrize("max_pairs", [20000, 7])
    def test_matches_brute_force_exactly(self, case, max_pairs):
        m = TMModel(include=_overlap_cases()[case], n_features=20)
        got = _pairwise_overlap(m, max_pairs=max_pairs)
        assert got == _brute_overlap(m, max_pairs=max_pairs)

    def test_identical_clauses_overlap_fully(self):
        m = TMModel(include=_overlap_cases()["identical"], n_features=20)
        overlap, shared = _pairwise_overlap(m)
        assert overlap == 1.0 and shared > 0


class TestImporter:
    def test_state_dump(self):
        states = np.full((2, 2, 6), 5, dtype=np.int64)
        states[0, 0, 0] = 9  # include (> n_states = 5)
        m = import_state_dump(states, n_states=5)
        assert m.include[0, 0, 0]
        assert m.include.sum() == 1
        assert m.n_features == 3

    def test_state_dump_range_check(self):
        states = np.full((1, 1, 4), 20, dtype=np.int64)
        with pytest.raises(ImportError_):
            import_state_dump(states, n_states=5)

    def test_state_dump_odd_literals(self):
        with pytest.raises(ImportError_):
            import_state_dump(np.ones((1, 1, 5), dtype=np.int64), n_states=1)

    def test_bit_matrix_dense(self):
        bits = np.zeros((1, 2, 4), dtype=np.int64)
        bits[0, 1, 3] = 1
        m = import_bit_matrix(bits)
        assert m.include[0, 1, 3]

    def test_bit_matrix_strings(self):
        m = import_bit_matrix([["1000", "0010"]])
        assert m.n_features == 2
        assert m.include[0, 0, 0]
        assert m.include[0, 1, 2]

    def test_bit_matrix_rejects_non_binary(self):
        with pytest.raises(ImportError_):
            import_bit_matrix(np.full((1, 1, 4), 2))

    def test_feature_crosscheck(self):
        with pytest.raises(ImportError_):
            import_bit_matrix(np.zeros((1, 1, 4)), n_features=3)

    def test_import_native_file(self, tmp_path):
        m = random_model(seed=14)
        path = tmp_path / "native.json"
        m.save(path)
        clone = import_model(path)
        assert clone == m

    def test_import_state_file(self, tmp_path):
        states = np.full((1, 2, 4), 3, dtype=np.int64)
        states[0, 0, 1] = 6
        path = tmp_path / "dump.json"
        path.write_text(json.dumps({"states": states.tolist(), "n_states": 3}))
        m = import_model(path)
        assert m.include[0, 0, 1]

    def test_import_npy(self, tmp_path):
        states = np.full((1, 2, 4), 3, dtype=np.int64)
        states[0, 1, 0] = 6
        path = tmp_path / "dump.npy"
        np.save(path, states)
        m = import_model(str(path))
        assert m.include[0, 1, 0]

    def test_unknown_payload(self, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text(json.dumps({"hello": 1}))
        with pytest.raises(ImportError_):
            import_model(path)

    def test_imported_model_runs_inference(self):
        bits = np.zeros((2, 2, 6), dtype=np.int64)
        bits[0, 0, 0] = 1
        m = import_bit_matrix(bits)
        pred = m.predict(np.array([[1, 0, 0]], dtype=np.uint8))
        assert pred[0] == 0
