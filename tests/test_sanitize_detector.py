"""Sanitizer core: vector clocks, shadow capture, and the detector.

The logs here are hand-built, event by event, so each test pins one
protocol-violation kind to the exact replay behaviour that produces it.
The substrate is ``chain_loop(4, 1)`` — iteration ``i`` writes element
``i`` and reads element ``i-1``, so the required triples are exactly
``(i-1, i, i-1)`` for ``i in 1..3`` — split over two block lanes:
lane 0 runs iterations 0..1, lane 1 runs 2..3, and the only cross-lane
edge is the post of token 1 acquired before iteration 2's read.
"""

import numpy as np
import pytest

from repro.backends import kernel
from repro.backends.kernel import ACC, LOCAL, OLD, WAIT
from repro.sanitize import ShadowCapture, detect
from repro.sanitize.detector import MAX_REPORTED, required_pairs
from repro.sanitize.events import SRC_NEW, SRC_OLD
from repro.sanitize.vclock import VectorClock
from repro.workloads.synthetic import chain_loop


class TestVectorClock:
    def test_missing_components_are_zero(self):
        vc = VectorClock()
        assert vc.get("t0") == 0
        assert not vc.covers("t0", 1)
        assert vc.covers("t0", 0)
        assert len(vc) == 0

    def test_advance_is_monotone(self):
        vc = VectorClock()
        vc.advance("t0", 5)
        vc.advance("t0", 3)  # no regression
        assert vc.get("t0") == 5
        assert vc.covers("t0", 5) and not vc.covers("t0", 6)

    def test_join_is_componentwise_max(self):
        a = VectorClock({"x": 1, "y": 7})
        b = VectorClock({"x": 4, "z": 2})
        a.join(b)
        assert a.as_dict() == {"x": 4, "y": 7, "z": 2}
        assert b.as_dict() == {"x": 4, "z": 2}  # join mutates only self

    def test_copy_is_independent(self):
        a = VectorClock({"x": 1})
        b = a.copy()
        b.advance("x", 9)
        assert a.get("x") == 1 and b.get("x") == 9
        assert a == VectorClock({"x": 1})
        assert a != b


class TestShadowCapture:
    def test_lane_returns_the_live_list(self):
        cap = ShadowCapture()
        events = cap.lane("t0")
        events.append(("w", 0, 0))
        assert cap.lanes["t0"] == [("w", 0, 0)]
        assert cap.lane("t0") is events

    def test_ingest_pid_tags_the_lane(self):
        cap = ShadowCapture()
        cap.ingest(0, [("w", 0, 0)], pid=111)
        cap.ingest(0, [("w", 1, 1)], pid=222)
        assert set(cap.lanes) == {(111, 0), (222, 0)}
        assert cap.meta["pids"] == [111, 222]

    def test_total_events_counts_a_span_by_its_reads_and_writes(self):
        cap = ShadowCapture()
        codes = np.array([OLD, ACC, WAIT, LOCAL], dtype=np.int8)
        cap.lane(0).extend([("p", 3), ("s", np.arange(2), codes)])
        # Two writes, and a read per term the accumulator does not serve.
        assert cap.total_events() == 1 + 2 + 3


@pytest.fixture
def chain4():
    return chain_loop(4, 1)


def conforming_log(chain4) -> ShadowCapture:
    """Two block lanes over chain(4,1), one cross-lane post/wait edge."""
    cap = ShadowCapture()
    cap.lane(0).extend(
        [
            ("w", 0, 0),
            ("p", 0),
            ("r", 1, 0, SRC_NEW),  # same-lane: program order covers it
            ("w", 1, 1),
            ("p", 1),
        ]
    )
    cap.lane(1).extend(
        [
            ("a", 1),
            ("r", 2, 1, SRC_NEW),
            ("w", 2, 2),
            ("p", 2),
            ("r", 3, 2, SRC_NEW),  # same-lane again
            ("w", 3, 3),
            ("p", 3),
        ]
    )
    return cap


class TestRequiredPairs:
    def test_chain_triples(self, chain4):
        assert required_pairs(chain4) == [(0, 1, 0), (1, 2, 1), (2, 3, 2)]

    def test_independent_loop_has_none(self):
        from repro.ir.accesses import ReadTable
        from repro.ir.loop import IrregularLoop
        from repro.ir.subscript import IndirectSubscript

        loop = IrregularLoop(
            n=4,
            y_size=4,
            write_subscript=IndirectSubscript(np.array([2, 0, 3, 1])),
            reads=ReadTable.from_lists([[], [], [], []]),
        )
        assert required_pairs(loop) == []


class TestDetectGeneralPath:
    def test_conforming_log_is_clean(self, chain4):
        report = detect(conforming_log(chain4), chain4)
        assert report.ok
        assert report.pairs_checked == 3
        assert report.lanes == 2
        assert report.events == 12
        assert "clean" in report.summary()

    def test_missing_acquire_is_no_hb_edge(self, chain4):
        cap = conforming_log(chain4)
        cap.lanes[1].remove(("a", 1))
        report = detect(cap, chain4)
        assert report.counts == {"no-hb-edge": 1}
        v = report.violations[0]
        assert (v.writer, v.reader, v.element) == (1, 2, 1)
        assert (v.writer_lane, v.reader_lane) == (0, 1)
        assert "no witnessed post/wait" in v.detail

    def test_same_lane_program_order_reversal_is_flagged(self, chain4):
        cap = conforming_log(chain4)
        # Lane 1 reads element 2 (iteration 3) *before* writing it.
        cap.lanes[1] = [
            ("a", 1),
            ("r", 2, 1, SRC_NEW),
            ("r", 3, 2, SRC_NEW),
            ("w", 2, 2),
            ("p", 2),
            ("w", 3, 3),
            ("p", 3),
        ]
        report = detect(cap, chain4)
        assert report.counts == {"no-hb-edge": 1}
        assert "program order reversed" in report.violations[0].detail

    def test_stale_read_is_flagged_regardless_of_edges(self, chain4):
        cap = conforming_log(chain4)
        i = cap.lanes[1].index(("r", 2, 1, SRC_NEW))
        cap.lanes[1][i] = ("r", 2, 1, SRC_OLD)
        report = detect(cap, chain4)
        assert report.counts == {"stale-read": 1}
        assert "untouched input value" in report.violations[0].detail

    def test_missing_read_and_write_only_in_full_mode(self, chain4):
        cap = conforming_log(chain4)
        cap.lanes[1].remove(("r", 2, 1, SRC_NEW))
        cap.lanes[0].remove(("w", 1, 1))
        full = detect(cap, chain4)
        assert full.counts == {"missing-read": 1}
        partial = detect(cap, chain4, partial=True)
        assert partial.ok

    def test_missing_write_with_surviving_read(self, chain4):
        cap = conforming_log(chain4)
        cap.lanes[0].remove(("w", 1, 1))
        full = detect(cap, chain4)
        assert full.counts == {"missing-write": 1}
        assert detect(cap, chain4, partial=True).ok

    def test_unexpected_new_read_only_in_full_mode(self, chain4):
        cap = conforming_log(chain4)
        cap.lanes[0].append(("r", 1, 3, SRC_NEW))  # no true dep (1, 3)
        full = detect(cap, chain4)
        assert full.counts == {"unexpected-new-read": 1}
        assert "corrupt iter array" in full.violations[0].detail
        assert detect(cap, chain4, partial=True).ok

    def test_unposted_acquire_stalls_and_is_named(self, chain4):
        cap = conforming_log(chain4)
        i = cap.lanes[1].index(("a", 1))
        cap.lanes[1][i] = ("a", 99)
        report = detect(cap, chain4)
        # The stall is broken and the rest of the log still checked: the
        # forced advance grants no knowledge, so the read behind the
        # bogus acquire also loses its edge.
        assert report.counts == {"unsatisfied-acquire": 1, "no-hb-edge": 1}
        stall = next(
            v for v in report.violations if v.kind == "unsatisfied-acquire"
        )
        assert stall.token == 99
        assert stall.reader_lane == 1

    def test_first_post_wins(self, chain4):
        """Re-posting a token must not grant later acquirers knowledge
        beyond the first post: lane 0 posts token 1 *before* writing
        element 1, and the later legitimate-looking re-post is ignored,
        so iteration 2's read has no witnessed edge."""
        cap = ShadowCapture()
        cap.lane(0).extend(
            [
                ("w", 0, 0),
                ("p", 0),
                ("r", 1, 0, SRC_NEW),
                ("p", 1),  # premature: the write has not happened
                ("w", 1, 1),
                ("p", 1),  # the honest post; first one already won
            ]
        )
        cap.lane(1).extend(
            [
                ("a", 1),
                ("r", 2, 1, SRC_NEW),
                ("w", 2, 2),
                ("p", 2),
                ("r", 3, 2, SRC_NEW),
                ("w", 3, 3),
                ("p", 3),
            ]
        )
        report = detect(cap, chain4)
        assert report.counts == {"no-hb-edge": 1}
        assert report.violations[0].element == 1

    def test_barrier_orders_all_lanes(self, chain4):
        """With no post/wait edges at all, a barrier between the writes
        and the reads is the only ordering — and it is sufficient."""
        cap = ShadowCapture()
        cap.lane(0).extend(
            [("w", 0, 0), ("w", 1, 1), ("b", 0), ("r", 1, 0, SRC_NEW)]
        )
        cap.lane(1).extend(
            [
                ("w", 2, 2),
                ("w", 3, 3),
                ("b", 0),
                ("r", 2, 1, SRC_NEW),
                ("r", 3, 2, SRC_NEW),
            ]
        )
        assert detect(cap, chain4).ok

    def test_skipped_barrier_is_unsatisfied(self, chain4):
        cap = ShadowCapture()
        cap.lane(0).extend(
            [("w", 0, 0), ("w", 1, 1), ("b", 0), ("r", 1, 0, SRC_NEW)]
        )
        # Lane 1 never arrives at generation 0.
        cap.lane(1).extend(
            [
                ("w", 2, 2),
                ("w", 3, 3),
                ("r", 2, 1, SRC_NEW),
                ("r", 3, 2, SRC_NEW),
            ]
        )
        report = detect(cap, chain4)
        assert report.counts["unsatisfied-barrier"] == 1
        assert report.counts["no-hb-edge"] == 1  # (1, 2, 1) lost its edge
        stall = next(
            v for v in report.violations if v.kind == "unsatisfied-barrier"
        )
        assert "1/2 lane(s) arrived" in stall.detail

    def test_a_second_arrival_opens_a_new_rendezvous(self, chain4):
        """A lane that arrives at a generation already released waits for
        everyone again, instead of rewinding the lanes of the first
        rendezvous (which replayed the same events forever)."""
        cap = ShadowCapture()
        cap.lane(0).extend(
            [("w", 0, 0), ("w", 1, 1), ("b", 0), ("r", 1, 0, SRC_NEW),
             ("b", 0)]
        )
        cap.lane(1).extend(
            [("b", 0), ("r", 2, 1, SRC_NEW), ("w", 2, 2), ("r", 3, 2, SRC_NEW),
             ("w", 3, 3)]
        )
        report = detect(cap, chain4)
        assert report.counts == {"unsatisfied-barrier": 1}
        assert report.violations[0].reader_lane == 0

    def test_span_events_expand_on_the_general_path(self, chain4):
        wait = np.array([WAIT], dtype=np.int8)
        cap = ShadowCapture()
        cap.lane(0).extend([("s", np.array([0, 1]), wait), ("p", 1)])
        cap.lane(1).extend(
            [("a", 1), ("s", np.array([3, 2]), np.repeat(wait, 2))]
        )
        report = detect(cap, chain4)
        # (2,3,2) is same-lane, but the span walks 3 before 2.
        assert report.counts == {"no-hb-edge": 1}
        assert report.violations[0].element == 2
        assert "program order reversed" in report.violations[0].detail
        assert report.events == (2 + 1 + 1) + (1 + 2 + 2)

    def test_a_span_event_reports_as_its_expanded_tuples(self, chain4):
        """The span event and the tuples ``run_span`` logs for the same
        walk give the same report, violations included."""
        its = np.array([0, 2, 1, 3])  # reads 1 before 2 writes it
        wait = np.full(3, WAIT, dtype=np.int8)
        span, tuples = ShadowCapture(), ShadowCapture()
        span.lane(0).append(("s", its, wait))
        r, y = chain4.reads, np.zeros(chain4.y_size)
        kernel.run_span(
            its, wait, chain4.write, r.ptr, r.index, r.coeff, None, y, y, y,
            events=tuples.lane(0),
        )
        # The first two iterations as tuples, the rest as a span.
        mixed = ShadowCapture()
        mixed.lane(0).extend(tuples.lanes[0][:3])
        mixed.lane(0).append(("s", its[2:], wait[1:]))
        for partial in (False, True):
            a = detect(span, chain4, partial=partial).as_dict()
            assert a == detect(tuples, chain4, partial=partial).as_dict()
            assert a == detect(mixed, chain4, partial=partial).as_dict()
            assert a["counts"] == {"no-hb-edge": 1}

    def test_sync_only_log_is_uninstrumented_note_in_full_mode(self, chain4):
        cap = ShadowCapture()
        cap.lane(0).extend([("p", 0), ("p", 1)])
        report = detect(cap, chain4)
        assert report.ok
        assert report.pairs_checked == 0
        assert any("uninstrumented" in n for n in report.notes)

    def test_sync_only_log_still_replays_under_partial(self, chain4):
        """A run that stalled before its first access must not be
        mistaken for an uninstrumented one: the blocked acquire is the
        whole story."""
        cap = ShadowCapture()
        cap.lane(0).extend([("a", 7)])
        report = detect(cap, chain4, partial=True)
        assert report.counts == {"unsatisfied-acquire": 1}
        assert report.violations[0].token == 7

    def test_violations_are_capped_but_counted(self):
        chain = chain_loop(60, 1)
        cap = ShadowCapture()
        # Evens and odds on separate lanes with no synchronization at
        # all: every one of the 59 required pairs is cross-lane and
        # unordered.
        for lane in (0, 1):
            events = cap.lane(lane)
            for i in range(lane, 60, 2):
                if i > 0:
                    events.append(("r", i, i - 1, SRC_NEW))
                events.append(("w", i, i))
                events.append(("p", i))
        report = detect(cap, chain)
        assert report.total_violations == 59
        assert len(report.violations) == MAX_REPORTED
        assert "and" in report.summary()  # "... and N more"

    def test_report_as_dict_is_json_shaped(self, chain4):
        import json

        cap = conforming_log(chain4)
        cap.lanes[1].remove(("a", 1))
        d = detect(cap, chain4).as_dict()
        json.dumps(d)  # no numpy scalars or tuples leak through
        assert d["ok"] is False
        assert d["total_violations"] == 1
        assert d["violations"][0]["kind"] == "no-hb-edge"
        assert "summary" in d


class TestDetectLevelFastPath:
    """Logs of one lane per wavefront level, chained by handoff tokens,
    once had a fast path of their own; they go through the one replay."""

    def levels_log(self, chain4, *, drop_link=None, merge=False):
        """Chain(4,1) as wavefront levels: level k runs iteration k,
        chained by synthetic tokens -(k+1)."""
        cap = ShadowCapture()
        groups = [[0, 1], [2, 3]] if merge else [[0], [1], [2], [3]]
        for k, iters in enumerate(groups):
            events = cap.lane(k)
            if k > 0:
                events.append(("a", -k))
            events += [("r", i, i - 1, SRC_NEW) for i in iters if i > 0]
            events += [("w", i, i) for i in iters]
            if k + 1 < len(groups) and drop_link != k:
                events.append(("p", -(k + 1)))
        return cap

    def test_intact_chain_is_clean(self, chain4):
        report = detect(self.levels_log(chain4), chain4)
        assert report.ok
        assert report.pairs_checked == 3

    def test_broken_chain_link_loses_downstream_edges(self, chain4):
        report = detect(self.levels_log(chain4, drop_link=1), chain4)
        # Level 2 waits for the dropped post, level 3 for level 2's: the
        # stall names both, and neither's read keeps its edge.
        assert report.counts == {"unsatisfied-acquire": 2, "no-hb-edge": 2}
        # The (1, 2, 1) pair crosses the broken link.
        bad = next(v for v in report.violations if v.kind == "no-hb-edge")
        assert (bad.writer, bad.reader, bad.element) == (1, 2, 1)

    def test_merged_levels_are_unordered(self, chain4):
        report = detect(self.levels_log(chain4, merge=True), chain4)
        assert report.counts == {"no-hb-edge": 2}
