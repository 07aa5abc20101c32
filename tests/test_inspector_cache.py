"""Tests for the content-addressed inspector cache.

The cache's correctness story: equal dependence *content* (index arrays)
shares preprocessing, and any in-place mutation of that content changes the
fingerprint — a stale inspector result is unreachable by construction.
"""

import numpy as np
import pytest

from repro.backends.cache import (
    InspectorCache,
    build_inspector_record,
    loop_fingerprint,
)
from repro.backends.kernel import LOCAL, classify_terms
from repro.core.workspace import MAXINT
from repro.errors import InvalidLoopError
from repro.workloads.synthetic import chain_loop, random_irregular_loop
from repro.workloads.testloop import make_test_loop


class TestFingerprint:
    def test_distinct_objects_same_structure(self):
        a = make_test_loop(n=100, m=2, l=8)
        b = make_test_loop(n=100, m=2, l=8)
        assert a is not b
        assert loop_fingerprint(a) == loop_fingerprint(b)

    def test_different_structure_differs(self):
        a = make_test_loop(n=100, m=2, l=8)
        b = make_test_loop(n=100, m=2, l=6)
        assert loop_fingerprint(a) != loop_fingerprint(b)

    def test_coefficients_excluded(self):
        a = random_irregular_loop(80, seed=3)
        b = random_irregular_loop(80, seed=3)
        b.reads.coeff[:] = 2.0 * b.reads.coeff
        assert loop_fingerprint(a) == loop_fingerprint(b)

    def test_index_mutation_changes_fingerprint(self):
        loop = random_irregular_loop(80, seed=3)
        before = loop_fingerprint(loop)
        loop.reads.index[0] = (loop.reads.index[0] + 1) % loop.y_size
        assert loop_fingerprint(loop) != before

    def test_write_mutation_changes_fingerprint(self):
        loop = chain_loop(40, 2)
        before = loop_fingerprint(loop)
        # Swap two write targets: still injective, different content.
        loop.write[0], loop.write[1] = loop.write[1], loop.write[0]
        assert loop_fingerprint(loop) != before


class TestCacheBehavior:
    def test_hit_and_miss_counters(self):
        cache = InspectorCache()
        loop = make_test_loop(n=100, m=2, l=8)
        _, hit1 = cache.get_or_build(loop)
        _, hit2 = cache.get_or_build(loop)
        assert (hit1, hit2) == (False, True)
        assert cache.hits == 1 and cache.misses == 1
        assert len(cache) == 1
        assert loop in cache

    def test_structural_twin_hits(self):
        cache = InspectorCache()
        cache.get_or_build(make_test_loop(n=100, m=2, l=8))
        _, hit = cache.get_or_build(make_test_loop(n=100, m=2, l=8))
        assert hit is True

    def test_rescaled_coefficients_hit(self):
        cache = InspectorCache()
        loop = random_irregular_loop(80, seed=4)
        cache.get_or_build(loop)
        rescaled = random_irregular_loop(80, seed=4)
        rescaled.reads.coeff[:] = 3.0 * rescaled.reads.coeff
        _, hit = cache.get_or_build(rescaled)
        assert hit is True

    def test_index_mutation_misses(self):
        cache = InspectorCache()
        loop = random_irregular_loop(80, seed=4)
        cache.get_or_build(loop)
        loop.reads.index[5] = (loop.reads.index[5] + 1) % loop.y_size
        _, hit = cache.get_or_build(loop)
        assert hit is False
        assert cache.misses == 2

    def test_lru_eviction(self):
        cache = InspectorCache(capacity=2)
        loops = [make_test_loop(n=60, m=1, l=l) for l in (6, 7, 8)]
        for loop in loops:
            cache.get_or_build(loop)
        assert len(cache) == 2
        assert loops[0] not in cache  # least recently used, evicted
        assert loops[1] in cache and loops[2] in cache

    def test_lru_order_refreshed_by_hit(self):
        cache = InspectorCache(capacity=2)
        a, b, c = (make_test_loop(n=60, m=1, l=l) for l in (6, 7, 8))
        cache.get_or_build(a)
        cache.get_or_build(b)
        cache.get_or_build(a)  # refresh a; b becomes LRU
        cache.get_or_build(c)
        assert a in cache and c in cache and b not in cache

    def test_clear_keeps_counters(self):
        cache = InspectorCache()
        cache.get_or_build(make_test_loop(n=60, m=1, l=6))
        cache.clear()
        assert len(cache) == 0
        assert cache.misses == 1

    def test_capacity_validated(self):
        with pytest.raises(InvalidLoopError, match="capacity"):
            InspectorCache(capacity=0)

    def test_stats_shape(self):
        cache = InspectorCache(capacity=8)
        cache.get_or_build(make_test_loop(n=60, m=1, l=6))
        stats = cache.stats()
        assert stats["entries"] == 1
        assert stats["capacity"] == 8
        assert stats["bytes"] > 0


class TestRecordContents:
    def test_iter_array_matches_paper(self):
        loop = random_irregular_loop(60, seed=1)
        record = build_inspector_record(loop)
        expected = np.full(loop.y_size, MAXINT, dtype=np.int64)
        expected[loop.write] = np.arange(loop.n)
        assert np.array_equal(record.iter_array, expected)

    def test_exec_order_is_level_major_permutation(self):
        # The executor walks the schedule's order: every iteration once,
        # levels in order.
        loop = random_irregular_loop(60, seed=1)
        schedule = build_inspector_record(loop).schedule
        assert np.array_equal(np.sort(schedule.order), np.arange(loop.n))
        assert np.all(np.diff(schedule.levels[schedule.order]) >= 0)

    def test_codes_are_the_kernel_classification(self):
        # The Figure-5 compare of every term, in the schedule's order —
        # what kernel.classify_terms says with one iteration per strip.
        loop = random_irregular_loop(60, seed=2)
        record = build_inspector_record(loop)
        reads = loop.reads
        assert record.codes.dtype == np.int8
        assert np.array_equal(
            record.codes,
            classify_terms(
                reads.ptr, reads.index, record.iter_array,
                record.schedule.order, 1,
            ),
        )
        assert LOCAL not in record.codes
