"""Tests for value-level dependence analysis."""

import numpy as np
import pytest

from repro.ir.accesses import ReadTable
from repro.ir.analysis import (
    CAT_ANTI,
    CAT_INTRA,
    CAT_NONE,
    CAT_TRUE,
    classify_reads,
    dependence_pairs,
    is_doall,
    summarize_dependences,
    uniform_distance,
    writer_map,
)
from repro.ir.loop import IrregularLoop
from repro.ir.subscript import IndirectSubscript
from repro.workloads.synthetic import chain_loop, random_irregular_loop
from repro.workloads.testloop import dependence_distances, make_test_loop


def build(write, read_lists, y_size):
    return IrregularLoop(
        n=len(write),
        y_size=y_size,
        write_subscript=IndirectSubscript(np.array(write)),
        reads=ReadTable.from_lists(
            [[(i, 1.0) for i in terms] for terms in read_lists]
        ),
    )


class TestWriterMap:
    def test_maps_written_elements(self):
        loop = build([2, 0, 4], [[], [], []], y_size=6)
        wm = writer_map(loop)
        np.testing.assert_array_equal(wm, [1, -1, 0, -1, 2, -1])


class TestClassification:
    def test_all_four_categories(self):
        # Iteration 0 writes 5; iteration 1 writes 3 and reads:
        #   5 -> TRUE (written by earlier it 0)
        #   3 -> INTRA (written by itself)
        #   7 -> ANTI (written by later it 2)
        #   1 -> NONE (never written)
        loop = build([5, 3, 7], [[], [5, 3, 7, 1], []], y_size=8)
        readers, writers, cats = classify_reads(loop)
        np.testing.assert_array_equal(readers, [1, 1, 1, 1])
        np.testing.assert_array_equal(writers, [0, 1, 2, -1])
        np.testing.assert_array_equal(
            cats, [CAT_TRUE, CAT_INTRA, CAT_ANTI, CAT_NONE]
        )

    def test_no_reads(self):
        loop = build([0, 1], [[], []], y_size=2)
        _, _, cats = classify_reads(loop)
        assert len(cats) == 0


class TestDependencePairs:
    def test_unique_sorted_pairs(self):
        loop = build(
            [0, 1, 2], [[], [0, 0], [0, 1]], y_size=3
        )  # duplicate read of 0 in iter 1
        pairs = dependence_pairs(loop)
        np.testing.assert_array_equal(pairs, [[0, 1], [0, 2], [1, 2]])

    def test_empty_when_independent(self):
        loop = build([0, 1], [[5], [6]], y_size=7)
        assert len(dependence_pairs(loop)) == 0

    @pytest.mark.parametrize("max_keyed_n", [None, 0])
    def test_matches_row_unique(self, monkeypatch, max_keyed_n):
        # The int64-key dedup and its 2-D fallback (forced by a zero key
        # limit) both reproduce np.unique over the rows, dtype included.
        from repro.ir import analysis

        if max_keyed_n is not None:
            monkeypatch.setattr(analysis, "_MAX_KEYED_N", max_keyed_n)
        for seed in range(5):
            loop = random_irregular_loop(300, max_terms=6, seed=seed)
            readers, writers, cats = classify_reads(loop)
            mask = cats == CAT_TRUE
            rows = np.stack([writers[mask], readers[mask]], axis=1)
            pairs = dependence_pairs(loop)
            assert pairs.dtype == np.int64
            np.testing.assert_array_equal(pairs, np.unique(rows, axis=0))


class TestDoall:
    def test_independent_loop(self):
        loop = build([0, 1], [[5], [6]], y_size=7)
        assert is_doall(loop)

    def test_anti_only_is_doall(self):
        # With write renaming, antidependencies don't order iterations.
        loop = build([0, 1], [[1], []], y_size=2)
        assert is_doall(loop)

    def test_true_dep_blocks_doall(self):
        loop = build([0, 1], [[], [0]], y_size=2)
        assert not is_doall(loop)


class TestUniformDistance:
    def test_chain_loop_has_uniform_distance(self):
        assert uniform_distance(chain_loop(50, 7)) == 7

    def test_mixed_distances_return_none(self):
        loop = build([0, 1, 2, 3], [[], [0], [0], []], y_size=4)
        assert uniform_distance(loop) is None  # distances 1 and 2

    def test_no_deps_returns_none(self):
        loop = build([0, 1], [[], []], y_size=2)
        assert uniform_distance(loop) is None


class TestSummary:
    def test_counts(self):
        loop = build([5, 3, 7], [[], [5, 3, 7, 1], [5]], y_size=8)
        s = summarize_dependences(loop)
        assert s.n == 3
        assert s.total_terms == 5
        assert s.true_terms == 2  # 5 read by its 1 and 2
        assert s.intra_terms == 1
        assert s.anti_terms == 1
        assert s.unwritten_terms == 1
        assert s.unique_true_edges == 2
        assert s.min_distance == 1
        assert s.max_distance == 2
        assert s.dependent_iterations == 2
        assert s.dependence_fraction == pytest.approx(2 / 3)

    def test_empty_loop_summary(self):
        loop = build([], [], y_size=0)
        s = summarize_dependences(loop)
        assert s.n == 0
        assert s.min_distance is None
        assert s.dependence_fraction == 0.0


class TestFigure4Structure:
    """The analysis must reproduce the paper's Figure-6 dependence facts."""

    @pytest.mark.parametrize("l", [1, 3, 5, 7, 9, 11, 13])
    def test_odd_l_has_no_dependencies_at_all(self, l):
        loop = make_test_loop(n=60, m=3, l=l)
        _, _, cats = classify_reads(loop)
        # Offsets are odd, writes are even: nothing is ever written.
        assert np.all(cats == CAT_NONE)

    @pytest.mark.parametrize("m,l", [(1, 4), (1, 8), (5, 6), (5, 14), (3, 12)])
    def test_even_l_distances_match_formula(self, m, l):
        loop = make_test_loop(n=100, m=m, l=l)
        pairs = dependence_pairs(loop)
        measured = sorted(set(int(r - w) for w, r in pairs))
        assert measured == sorted(set(dependence_distances(m, l)))

    def test_even_l_intra_iteration_term(self):
        # j = L/2 reads the element this iteration writes.
        loop = make_test_loop(n=50, m=3, l=4)  # j=2 is intra
        _, _, cats = classify_reads(loop)
        per_iter = cats.reshape(50, 3)
        # Interior iterations: j=1 true/none, j=2 intra, j=3 anti.
        assert np.all(per_iter[:, 1] == CAT_INTRA)
        assert np.all(per_iter[1:, 0] == CAT_TRUE)
        assert np.all(per_iter[:-1, 2] == CAT_ANTI)


class TestRandomLoops:
    @pytest.mark.parametrize("seed", range(5))
    def test_categories_are_consistent_with_definitions(self, seed):
        loop = random_irregular_loop(80, seed=seed)
        wm = writer_map(loop)
        readers, writers, cats = classify_reads(loop)
        for k in range(len(readers)):
            idx = loop.reads.index[k]
            assert writers[k] == wm[idx]
            if writers[k] == -1:
                assert cats[k] == CAT_NONE
            elif writers[k] < readers[k]:
                assert cats[k] == CAT_TRUE
            elif writers[k] == readers[k]:
                assert cats[k] == CAT_INTRA
            else:
                assert cats[k] == CAT_ANTI
