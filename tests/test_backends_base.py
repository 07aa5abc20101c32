"""Tests for backend-shared order validation."""

import numpy as np
import pytest

from repro.backends.base import inverse_permutation, validate_execution_order
from repro.errors import ScheduleError
from repro.workloads.synthetic import chain_loop, random_irregular_loop
from repro.graph.levels import compute_levels


class TestInversePermutation:
    def test_inverts(self):
        order = np.array([2, 0, 1])
        pos = inverse_permutation(order)
        np.testing.assert_array_equal(pos, [1, 2, 0])

    def test_rejects_out_of_range(self):
        with pytest.raises(ScheduleError, match="out-of-range"):
            inverse_permutation(np.array([0, 3]))

    def test_rejects_duplicates(self):
        with pytest.raises(ScheduleError, match="not a permutation"):
            inverse_permutation(np.array([0, 0, 1]))


class TestValidateExecutionOrder:
    def test_natural_order_always_legal(self):
        loop = chain_loop(40, 1)
        validate_execution_order(loop, np.arange(40))

    def test_reversed_order_illegal_for_chain(self):
        loop = chain_loop(40, 2)
        with pytest.raises(ScheduleError, match="deadlock"):
            validate_execution_order(loop, np.arange(40)[::-1])

    def test_any_order_legal_without_true_deps(self):
        loop = random_irregular_loop(30, max_terms=0, seed=0)
        validate_execution_order(loop, np.arange(30)[::-1])

    def test_level_order_always_legal(self):
        for seed in range(4):
            loop = random_irregular_loop(60, seed=seed)
            order = compute_levels(loop).order
            validate_execution_order(loop, order)

    def test_error_names_the_violated_edge(self):
        loop = chain_loop(5, 1)
        order = np.array([0, 2, 1, 3, 4])  # 1 -> 2 violated
        with pytest.raises(ScheduleError, match="1 → 2|1 -> 2"):
            validate_execution_order(loop, order)
