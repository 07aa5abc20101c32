"""Happens-before race checker: one coverage rule over each runner's
placement — clean on real schedules, loud on corrupted ones, and the
placement it checks is the lane map the executor walks."""

import numpy as np
import pytest

import repro
from repro.backends import kernel
from repro.backends.base import level_placement
from repro.backends.hooks import HookedRunner, StaticValidate
from repro.backends.kernel import Placement
from repro.backends.simulated import SimulatedRunner, _Timing
from repro.graph.levels import compute_levels
from repro.ir.accesses import ReadTable
from repro.ir.analysis import dependence_pairs, writer_map
from repro.ir.loop import IrregularLoop
from repro.lint.hb import check_backend_schedule, check_dependence_coverage


@pytest.fixture
def fig4():
    return repro.make_test_loop(n=120, m=2, l=8)


@pytest.fixture
def irregular():
    return repro.random_irregular_loop(150, seed=3)


def placement_of(backend, loop, processors=8, **options):
    return repro.make_runner(backend, processors=processors).schedule_model(
        loop, **options
    )


# ----------------------------------------------------------------------
# Clean schedules are certified clean — all three backends
# ----------------------------------------------------------------------
@pytest.mark.parametrize("backend", ["vectorized", "threaded", "simulated"])
def test_backend_schedules_clean_on_figure4(fig4, backend):
    report = check_backend_schedule(fig4, backend, processors=8)
    assert report.passed
    assert report.checked_edges == len(dependence_pairs(fig4))
    assert report.checked_edges > 0
    assert "all covered" in report.summary()


@pytest.mark.parametrize("backend", ["vectorized", "threaded", "simulated"])
def test_backend_schedules_clean_on_irregular(irregular, backend):
    assert check_backend_schedule(irregular, backend, processors=8).passed


@pytest.mark.parametrize("kind", ["block", "cyclic", "dynamic", "guided"])
def test_simulated_clean_under_every_schedule_kind(fig4, kind):
    report = check_backend_schedule(
        fig4, "simulated", processors=8, schedule=kind, chunk=2
    )
    assert report.passed


def test_doconsider_order_is_clean_too(irregular):
    order = compute_levels(irregular).order
    placement = placement_of("threaded", irregular, order=order)
    assert check_dependence_coverage(irregular, placement).passed


def test_independent_loop_has_nothing_to_check():
    loop = repro.make_test_loop(n=64, m=2, l=7)
    report = check_backend_schedule(loop, "vectorized")
    assert report.passed and report.checked_edges == 0


def test_unknown_backend_rejected(fig4):
    with pytest.raises(ValueError, match="unknown backend"):
        check_backend_schedule(fig4, "quantum")


# ----------------------------------------------------------------------
# Corrupted schedules are flagged as races
# ----------------------------------------------------------------------
def test_swapped_level_pair_is_a_race(irregular):
    """The acceptance-criteria injection: swap one TRUE dependence pair
    across wavefront levels — the checker must report a race."""
    pairs = dependence_pairs(irregular)
    writer, reader = int(pairs[0, 0]), int(pairs[0, 1])
    levels = compute_levels(irregular).levels.copy()
    assert levels[writer] < levels[reader]
    levels[writer], levels[reader] = levels[reader], levels[writer]
    report = check_dependence_coverage(
        irregular, Placement.barriers(levels, "corrupted")
    )
    assert not report.passed
    flagged = {(r.writer, r.reader) for r in report.races}
    assert (writer, reader) in flagged
    assert "RACE" in report.summary()
    assert report.as_dict()["passed"] is False


def test_corrupted_iter_entry_is_a_race_on_threaded(irregular):
    """A stale inspector entry (iter pretends the element is unwritten)
    silently drops the executor's wait — the checker catches it."""
    pairs = dependence_pairs(irregular)
    # Pick a cross-worker edge so program order cannot cover it.
    threads = 8
    k = next(
        int(i)
        for i in range(len(pairs))
        if pairs[i, 0] % threads != pairs[i, 1] % threads
    )
    writer, reader = int(pairs[k, 0]), int(pairs[k, 1])
    bad_iter = writer_map(irregular).copy()
    bad_iter[irregular.write[writer]] = -1  # "never written"
    placement = placement_of("threaded", irregular, processors=threads)
    report = check_dependence_coverage(irregular, placement, iter_array=bad_iter)
    assert not report.passed
    assert any(r.writer == writer and r.reader == reader for r in report.races)


def test_corrupted_iter_entry_is_a_race_on_simulated(irregular):
    pairs = dependence_pairs(irregular)
    writer = int(pairs[0, 0])
    bad_iter = writer_map(irregular).copy()
    bad_iter[irregular.write[writer]] = -1
    placement = placement_of("simulated", irregular, schedule="dynamic")
    assert not check_dependence_coverage(
        irregular, placement, iter_array=bad_iter
    ).passed


def test_race_count_survives_truncation(irregular):
    # Destroy *every* level: far more races than max_races.
    levels = np.zeros(irregular.n, dtype=np.int64)
    report = check_dependence_coverage(
        irregular, Placement.barriers(levels, "flat"), max_races=5
    )
    assert not report.passed
    assert len(report.races) == 5
    assert "more races" in report.schedule_label


# ----------------------------------------------------------------------
# The rule's inputs
# ----------------------------------------------------------------------
def test_wait_codes_match_true_dependences(fig4):
    """At chunk 1 (a lane per strip of one) the kernel codes ``WAIT``
    exactly the terms that read a true dependence — the wait set the
    flag rule covers edges with."""
    reads = fig4.reads
    codes = kernel.classify_terms(
        reads.ptr, reads.index, writer_map(fig4), np.arange(fig4.n), 1
    )
    waited = codes == kernel.WAIT
    keys = np.unique(
        reads.iteration_of_term()[waited] * np.int64(fig4.y_size)
        + reads.index[waited]
    )
    pairs = dependence_pairs(fig4)
    expected = np.unique(
        pairs[:, 1] * np.int64(fig4.y_size) + fig4.write[pairs[:, 0]]
    )
    assert np.array_equal(keys, expected)


def test_level_happens_before_reads_executed_slices(fig4):
    placement = level_placement(fig4)
    schedule = compute_levels(fig4)
    assert np.array_equal(placement.cut, schedule.levels)
    assert placement.label == f"vectorized/levels({schedule.n_levels})"
    assert placement.lane is None and not placement.flags
    # The vectorized runner and the Runner default hand over the same.
    for backend in ("vectorized", "speculative"):
        other = placement_of(backend, fig4)
        assert np.array_equal(other.cut, placement.cut)
        assert other.label == placement.label


def _edges_loop(n: int, reads: dict) -> IrregularLoop:
    """``y[i]`` written by iteration ``i``; iteration ``r`` reads the
    elements ``reads[r]`` — so the true dependences are exactly
    ``w → r`` for ``w in reads[r]``."""
    table = ReadTable.from_lists(
        [[(w, 1.0) for w in reads.get(i, ())] for i in range(n)]
    )
    return IrregularLoop.from_arrays(np.arange(n), table, name="edges")


@pytest.mark.parametrize(
    "cut,uncovered",
    [
        # Distance groups of 4: covered iff the writer's group is earlier.
        (np.arange(8) // 4, {(4, 7), (5, 6)}),
        # Every iteration its own segment: everything is covered.
        (np.arange(8), set()),
        # One segment: nothing is.
        (np.zeros(8, dtype=np.int64), {(0, 4), (3, 4), (4, 7), (5, 6)}),
    ],
    ids=["group-elementwise", "sequential", "flat"],
)
def test_cut_rule(cut, uncovered):
    loop = _edges_loop(8, {4: (0, 3), 7: (4,), 6: (5,)})
    report = check_dependence_coverage(loop, Placement.barriers(cut, "cuts"))
    assert report.checked_edges == 4
    assert {(r.writer, r.reader) for r in report.races} == uncovered


# ----------------------------------------------------------------------
# Group-synchronous happens-before (the DistancePass's elided mode)
# ----------------------------------------------------------------------
def test_group_happens_before_covers_proven_distances():
    chain = repro.chain_loop(240, 8)
    placement = Placement.groups(chain.n, 8, "threaded")
    assert placement.label == "threaded/group(8)"
    assert np.array_equal(placement.cut, np.arange(240) // 8)
    report = check_dependence_coverage(chain, placement)
    assert report.passed
    assert report.checked_edges == len(dependence_pairs(chain))


def test_group_happens_before_races_when_the_group_is_oversized():
    # Distance 3 but groups of 8: same-group pairs share no barrier.
    report = check_dependence_coverage(
        repro.chain_loop(240, 3), Placement.groups(240, 8, "threaded")
    )
    assert not report.passed
    assert report.races


def test_group_happens_before_rejects_degenerate_groups():
    with pytest.raises(ValueError, match="group"):
        Placement.groups(10, 0, "threaded")


@pytest.mark.parametrize("backend", ["threaded", "multiproc", "vectorized"])
def test_check_backend_schedule_group_mode(backend):
    chain = repro.chain_loop(240, 8)
    report = check_backend_schedule(chain, backend, group=8)
    assert report.passed
    assert report.schedule_label == f"{backend}/group(8)"
    # Undersized bound: the same entry point must report the races.
    bad = check_backend_schedule(repro.chain_loop(240, 3), backend, group=8)
    assert not bad.passed


def test_check_backend_schedule_group_mode_rejections():
    chain = repro.chain_loop(60, 4)
    with pytest.raises(ValueError, match="natural"):
        check_backend_schedule(
            chain, "threaded", group=4, order=np.arange(60)
        )
    with pytest.raises(ValueError, match="simulated"):
        check_backend_schedule(chain, "simulated", group=4)
    with pytest.raises(ValueError, match="group size must be >= 1"):
        check_backend_schedule(chain, "vectorized", group=0)


def test_schedule_model_leaves_the_cache_alone():
    """A validated cold run still reports its one cache miss: the
    placement is computed beside the runner's cache, never through it."""
    loop = repro.random_irregular_loop(150, seed=3)
    cache = repro.InspectorCache()
    runner = repro.make_runner(
        spec=repro.PlanSpec(backend="vectorized", validate="static"), cache=cache
    )
    result = runner.run(loop)
    assert result.extras["cache_hit"] is False
    assert cache.stats()["misses"] == 1 and cache.stats()["hits"] == 0


# ----------------------------------------------------------------------
# What is checked is what runs
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def multiproc_runner():
    runner = repro.MultiprocRunner(workers=2)
    yield runner
    runner.close()


def _iterations(positions, order):
    return positions if order is None else np.asarray(order)[positions]


def _lanes_walked(backend, runner, monkeypatch, loop, options):
    """Run ``runner`` under ``validate="static"`` and return the result
    with ``{lane: iterations}`` as its executor walked them."""
    walked: dict = {}
    order = options.get("order")
    if backend == "threaded":
        lane_positions = kernel.lane_positions

        def spy(lo, hi, chunk, workers, wid):
            positions = lane_positions(lo, hi, chunk, workers, wid)
            walked[wid] = _iterations(positions, order)
            return positions

        monkeypatch.setattr(kernel, "lane_positions", spy)
    elif backend == "multiproc":
        broadcast = runner._broadcast

        def spy(message):
            phase, _key, opts = message
            if phase == "executor":
                for wid in range(opts["workers"]):
                    positions = kernel.lane_positions(
                        *opts["window"], opts["chunk"], opts["workers"], wid
                    )
                    walked.setdefault(wid, []).append(
                        _iterations(positions, order)
                    )
            return broadcast(message)

        monkeypatch.setattr(runner, "_broadcast", spy)
    elif backend == "simulated":
        deal, phase = _Timing.deal, SimulatedRunner._phase

        def spy_deal(self, lanes, processors):
            # A static schedule: the recurrence's record, dealt to lanes.
            for lane in np.unique(lanes):
                walked[int(lane)] = _iterations(np.flatnonzero(lanes == lane), order)
            return deal(self, lanes, processors)

        def spy_phase(self, name, schedule, timing, **kwargs):
            # A dynamic schedule: the engine's claims, each its own lane.
            if name == "executor" and schedule.is_dynamic:
                claim = schedule.claim

                def spy_claim():
                    got = claim()
                    if got is not None:
                        walked[len(walked)] = _iterations(np.arange(*got), order)
                    return got

                monkeypatch.setattr(schedule, "claim", spy_claim)
            return phase(self, name, schedule, timing, **kwargs)

        monkeypatch.setattr(_Timing, "deal", spy_deal)
        monkeypatch.setattr(SimulatedRunner, "_phase", spy_phase)
    result = HookedRunner(runner, [StaticValidate]).run(loop, **options)
    if backend == "multiproc":
        walked = {w: np.concatenate(parts) for w, parts in walked.items()}
    return result, walked


CHAIN = repro.chain_loop(96, 4)
IRREGULAR = repro.random_irregular_loop(120, seed=3)
DOCONSIDER = compute_levels(IRREGULAR).order

RUNS = (
    [
        ("threaded", IRREGULAR, {}),
        ("threaded", IRREGULAR, {"order": DOCONSIDER}),
        ("threaded", CHAIN, {"group_sync": 4}),
        ("threaded", CHAIN, {"group_sync": 4, "order": np.arange(96)}),
    ]
    + [
        ("multiproc", IRREGULAR, {"chunk": c, "order": o})
        for c in (None, 1, 5)
        for o in (None, DOCONSIDER)
    ]
    + [
        # Aligned with the strips; not a multiple; under the default 12.
        ("multiproc", CHAIN, {"group_sync": 4, "chunk": 2}),
        ("multiproc", CHAIN, {"group_sync": 4, "chunk": 3}),
        ("multiproc", CHAIN, {"group_sync": 4}),
    ]
    + [
        ("simulated", IRREGULAR, {"schedule": k, "chunk": c, "order": o})
        for k in (None, "block", "cyclic", "dynamic", "guided")
        for c in (None, 3)
        for o in (None, DOCONSIDER)
    ]
    + [
        ("vectorized", IRREGULAR, {"order": DOCONSIDER}),
        ("vectorized", CHAIN, {"group_sync": 4}),
    ]
)


def _run_id(run):
    backend, loop, options = run
    shown = {
        k: "doconsider" if v is DOCONSIDER else "natural" if k == "order" else v
        for k, v in options.items()
    }
    return f"{backend}-{loop.name}-" + ",".join(f"{k}={v}" for k, v in shown.items())


@pytest.mark.parametrize("run", RUNS, ids=[_run_id(r) for r in RUNS])
def test_what_is_checked_is_what_runs(run, monkeypatch, multiproc_runner):
    backend, loop, options = run
    runner = (
        multiproc_runner
        if backend == "multiproc"
        else repro.make_runner(backend, processors=3)
    )
    processors = 2 if backend == "multiproc" else 3
    placement = runner.schedule_model(loop, **options)
    result, walked = _lanes_walked(backend, runner, monkeypatch, loop, options)
    assert np.array_equal(result.y, loop.run_sequential())

    # validate="static" reports exactly what lint --backend reports.
    check = dict(options, group=options.get("group_sync"))
    check.pop("group_sync", None)
    if check["group"] is not None and check.get("order") is not None:
        check["group"] = None  # refused in doconsider order: flags run
    assert result.extras["race_check"] == check_backend_schedule(
        loop, backend, processors=processors, **check
    ).as_dict()
    assert result.extras["race_check"]["passed"]

    grouped = result.extras.get("distance_group")
    if placement.lane is None:
        # Barriers only: the levels, or the distance groups that ran.
        assert not placement.flags
        expected = (
            level_placement(loop)
            if grouped is None
            else Placement.groups(loop.n, grouped, backend)
        )
        assert placement.label == expected.label
        assert np.array_equal(placement.cut, expected.cut)
        return
    assert grouped is None and placement.flags
    assert np.array_equal(placement.cut, np.zeros(loop.n))
    # Every iteration walked once, each on the lane the placement says,
    # in increasing position order.
    assert sorted(np.concatenate(list(walked.values())).tolist()) == list(
        range(loop.n)
    )
    for lane, its in walked.items():
        assert (placement.lane[its] == lane).all(), (lane, its)
        assert (np.diff(placement.pos[its]) > 0).all()
