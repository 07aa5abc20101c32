"""Property-based conformance of the multiprocessing backend.

The multiproc executor must agree with the sequential oracle on
*arbitrary* runtime dependence structures — not just the curated matrix
of ``test_conformance_matrix.py`` — under arbitrary chunk sizes, with
and without doconsider reordering, and on loops the symbolic engine
declines (where the runtime inspector is the only source of truth).

One 2-worker pool is shared across the whole module (hypothesis runs
dozens of examples; respawning processes per example would dominate the
runtime and hide session-reuse bugs rather than exercise them).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.backends import MultiprocRunner
from repro.core.doconsider import level_order
from repro.workloads.synthetic import chain_loop, random_irregular_loop


@pytest.fixture(scope="module")
def pool():
    runner = MultiprocRunner(workers=2)
    yield runner
    runner.close()


@pytest.fixture(scope="module")
def symbolic_pool():
    runner = MultiprocRunner(workers=2, analyze="symbolic")
    yield runner
    runner.close()


@given(
    n=st.integers(0, 60),
    seed=st.integers(0, 2000),
    max_terms=st.integers(0, 5),
    external=st.booleans(),
)
@settings(max_examples=40, deadline=None)
def test_random_loops_match_oracle(pool, n, seed, max_terms, external):
    loop = random_irregular_loop(
        n, max_terms=max_terms, seed=seed, external_init=external
    )
    result = pool.run(loop)
    assert np.array_equal(result.y, loop.run_sequential())


@given(
    n=st.integers(0, 60),
    seed=st.integers(0, 2000),
    chunk=st.integers(1, 80),
)
@settings(max_examples=30, deadline=None)
def test_any_chunk_size_matches_oracle(pool, n, seed, chunk):
    """Chunking is a schedule, not a semantics: every strip-mine size
    (including chunks larger than the loop) yields the oracle's values."""
    loop = random_irregular_loop(n, seed=seed)
    result = pool.run(loop, chunk=chunk)
    assert np.array_equal(result.y, loop.run_sequential())
    if n:
        assert result.extras["chunk"] == chunk


def test_nonpositive_chunk_rejected_before_any_broadcast(pool):
    """``chunk=0`` is a caller error, refused before the session is
    touched: the same pool serves the next run."""
    loop = chain_loop(40, 1)
    with pytest.raises(ValueError, match="chunk must be >= 1, got 0"):
        pool.run(loop, chunk=0)
    result = pool.run(loop, chunk=4)
    assert np.array_equal(result.y, loop.run_sequential())


@given(n=st.integers(0, 50), seed=st.integers(0, 2000))
@settings(max_examples=20, deadline=None)
def test_doconsider_order_matches_oracle(pool, n, seed):
    """A wavefront-sorted doconsider order changes which iterations wait,
    not what they compute."""
    loop = random_irregular_loop(n, seed=seed)
    order, _levels = level_order(loop)
    result = pool.run(loop, order=order)
    assert np.array_equal(result.y, loop.run_sequential())


@given(n=st.integers(0, 60), seed=st.integers(0, 2000))
@settings(max_examples=25, deadline=None)
def test_symbolically_declined_loops_match_oracle(symbolic_pool, n, seed):
    """Runtime-permutation loops make the symbolic engine decline
    (runtime-only verdict): the backend must fall back to the real
    inspector and still reproduce the oracle bitwise."""
    loop = random_irregular_loop(n, seed=seed)
    result = symbolic_pool.run(loop)
    assert np.array_equal(result.y, loop.run_sequential())
    if n > 1:  # a 1-iteration permutation is trivially proven injective
        assert result.extras["verdict"] == "runtime-only"
        assert not result.extras["inspector_elided"]


@given(
    n=st.integers(1, 80),
    distance=st.integers(1, 6),
)
@settings(max_examples=20, deadline=None)
def test_symbolically_proven_chains_match_oracle(symbolic_pool, n, distance):
    """Constant-distance chains are proven and the inspector is elided —
    the closed-form prefill must equal what the inspector would build."""
    loop = chain_loop(n, distance)
    result = symbolic_pool.run(loop)
    assert np.array_equal(result.y, loop.run_sequential())
    assert result.extras["inspector_elided"]
