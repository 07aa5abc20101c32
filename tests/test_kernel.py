"""The executor kernel: one Figure-5 term rule, one scalar evaluator.

``classify_terms`` is checked against a per-term Python loop that spells
the rule out; ``run_span`` — both of its bodies, the Python walk and the
compiled one — against the sequential oracle (bitwise) and
against shadow-event lists captured from the per-backend executors this
kernel replaced.  The last class pins the counters and per-lane shadow
logs of the threaded and multiproc backends to the values those
executors produced, and two structural checks keep the rule and the
chunk default from being re-derived elsewhere.
"""

from __future__ import annotations

import contextlib
import hashlib
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import PlanSpec, make_runner, parallelize
from repro.backends import MultiprocRunner, ThreadedRunner, kernel, native
from repro.backends.base import inverse_permutation
from repro.backends.kernel import ACC, LOCAL, OLD, WAIT
from repro.core.doconsider import level_order
from repro.errors import InvalidLoopError
from repro.ir.analysis import writer_map
from repro.ir.loop import INIT_EXTERNAL
from repro.sanitize.shadow import ShadowCapture
from repro.workloads.synthetic import chain_loop, random_irregular_loop
from repro.workloads.testloop import make_test_loop
from tests.conftest import assert_same_bits
from tests.strategies import loop_params

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"

needs_native = pytest.mark.skipif(
    native.describe().startswith("python"),
    reason=f"no compiled run_span body: {native.describe()}",
)

#: Both bodies of ``run_span``; the compiled one needs a compiler.
BODIES = ["python", pytest.param("native", marks=needs_native)]


@contextlib.contextmanager
def forced(body):
    """Callback-free spans of any length run on ``body``: the cut-off is
    the only thing between a flat-array span and the compiled walk."""
    saved = kernel._NATIVE_FROM
    kernel._NATIVE_FROM = 0 if body == "native" else 1 << 62
    kernel.take_tally()
    try:
        yield
    finally:
        kernel._NATIVE_FROM = saved


def ran_on(body) -> bool:
    """Whether every span since the last ask ran on ``body``."""
    n_native, n_python, _reason = kernel.take_tally()
    return (n_python == 0) if body == "native" else (n_native == 0)


def brute_force_codes(loop, iter_arr, its, chunk, pos):
    """The rule, one term at a time."""
    if pos is None:
        pos = np.arange(loop.n)
    codes = []
    for i in its:
        for k in range(loop.reads.ptr[i], loop.reads.ptr[i + 1]):
            writer = int(iter_arr[loop.reads.index[k]])
            if writer == i:
                codes.append(ACC)
            elif not 0 <= writer < i:
                codes.append(OLD)
            elif (
                pos[writer] // chunk == pos[i] // chunk
                and pos[writer] < pos[i]
            ):
                codes.append(LOCAL)
            else:
                codes.append(WAIT)
    return np.array(codes, dtype=np.int8)


def span_args(loop):
    init = loop.init_values if loop.init_kind == INIT_EXTERNAL else None
    reads = loop.reads
    return loop.write, reads.ptr, reads.index, reads.coeff, init


class TestClassifyTerms:
    @given(
        n=st.integers(0, 50),
        seed=st.integers(0, 2000),
        chain=st.booleans(),
        reorder=st.booleans(),
        size=st.sampled_from(["1", "3", "n"]),
        sentinel=st.sampled_from([-1, np.iinfo(np.int64).max]),
    )
    @settings(max_examples=120, deadline=None)
    def test_matches_the_per_term_loop(
        self, n, seed, chain, reorder, size, sentinel
    ):
        loop = (
            chain_loop(n, 1 + seed % 4)
            if chain and n
            else random_irregular_loop(n, seed=seed)
        )
        chunk = max(n, 1) if size == "n" else int(size)
        iter_arr = writer_map(loop)
        iter_arr[iter_arr < 0] = sentinel  # both "unwritten" spellings
        order = level_order(loop)[0] if reorder else np.arange(n)
        pos = inverse_permutation(order) if reorder else None
        reads = loop.reads
        # Every strip on its own, and one lane's strips in one call.
        spans = [order[lo:lo + chunk] for lo in range(0, n, chunk)]
        spans.append(order[kernel.lane_positions(0, n, chunk, 2, 1)])
        for its in spans:
            got = kernel.classify_terms(
                reads.ptr, reads.index, iter_arr, its, chunk, pos
            )
            want = brute_force_codes(loop, iter_arr, its.tolist(), chunk, pos)
            assert got.dtype == np.int8
            assert np.array_equal(got, want)

    def test_single_position_strips_have_no_local_terms(self):
        loop = random_irregular_loop(80, seed=9)
        reads = loop.reads
        codes = kernel.classify_terms(
            reads.ptr, reads.index, writer_map(loop), np.arange(80), 1
        )
        assert LOCAL not in codes and WAIT in codes

    def test_placement_is_strips_dealt_round_robin(self):
        pos = np.arange(10)
        assert kernel.lane_of(pos, 3, 2).tolist() == [0, 0, 0, 1, 1, 1, 0, 0, 0, 1]
        assert kernel.lane_positions(0, 10, 3, 2, 1).tolist() == [3, 4, 5, 9]
        assert kernel.lane_positions(4, 9, 1, 3, 2).tolist() == [5, 8]
        assert [kernel.default_chunk(n, 2) for n in (0, 1, 8, 9, 200)] == [
            1, 1, 1, 2, 25,
        ]


class TestRunSpan:
    @pytest.mark.parametrize(
        "loop",
        [
            random_irregular_loop(200, seed=3),
            random_irregular_loop(120, seed=8, external_init=True),
            chain_loop(150, 2),
            random_irregular_loop(0, seed=1),
        ],
        ids=lambda loop: loop.name,
    )
    def test_whole_loop_as_one_span_is_the_oracle_bitwise(self, loop):
        n = loop.n
        its = np.arange(n)
        reads = loop.reads
        codes = kernel.classify_terms(
            reads.ptr, reads.index, writer_map(loop), its, max(n, 1)
        )
        assert WAIT not in codes  # one strip: program order covers all
        y, ynew = loop.y0.copy(), np.zeros(loop.y_size)
        calls = []
        cur = kernel.run_span(
            its, codes, *span_args(loop), y, ynew, ynew,
            wait=calls.append, post=lambda w: None,
        )
        assert cur == len(codes) and not calls
        y[loop.write] = ynew[loop.write]
        assert np.array_equal(y, loop.run_sequential())

    def test_cursor_resumes_a_lane_across_calls(self):
        loop = chain_loop(40, 3)
        its = np.arange(40)
        reads = loop.reads
        codes = kernel.classify_terms(
            reads.ptr, reads.index, writer_map(loop), its, 1
        )
        y, ynew = loop.y0.copy(), np.zeros(loop.y_size)
        cur = 0
        for lo in range(0, 40, 7):
            # wait=None: the sequential walk already ordered every write.
            cur = kernel.run_span(
                its[lo:lo + 7], codes, *span_args(loop), y, ynew, ynew,
                cur=cur,
            )
        y[loop.write] = ynew[loop.write]
        assert np.array_equal(y, loop.run_sequential())

    # Shadow events of thread 1 of 2 and of worker 1's first chunk
    # (chunk=3, 2 workers) on random_irregular_loop(12, seed=2), captured
    # from the per-backend executors before the kernel replaced them.
    THREADED_LANE = [
        ("r", 1, 13, 0), ("w", 1, 18), ("p", 18), ("a", 7), ("r", 3, 7, 1),
        ("a", 7), ("r", 3, 7, 1), ("r", 3, 0, 0), ("w", 3, 10), ("p", 10),
        ("a", 6), ("r", 5, 6, 1), ("a", 10), ("r", 5, 10, 1), ("w", 5, 11),
        ("p", 11), ("r", 7, 15, 0), ("r", 7, 19, 0), ("a", 6),
        ("r", 7, 6, 1), ("a", 18), ("r", 7, 18, 1), ("w", 7, 17), ("p", 17),
        ("r", 9, 9, 0), ("w", 9, 16), ("p", 16), ("a", 2), ("r", 11, 2, 1),
        ("a", 9), ("r", 11, 9, 1), ("a", 2), ("r", 11, 2, 1), ("a", 19),
        ("r", 11, 19, 1), ("w", 11, 12), ("p", 12),
    ]
    MULTIPROC_CHUNK = [
        ("a", 7), ("r", 3, 7, 1), ("a", 7), ("r", 3, 7, 1), ("r", 3, 0, 0),
        ("w", 3, 10), ("p", 10), ("r", 4, 3, 0), ("a", 6), ("r", 4, 6, 1),
        ("w", 4, 2), ("p", 2), ("a", 6), ("r", 5, 6, 1), ("r", 5, 10, 1),
        ("w", 5, 11), ("p", 11),
    ]

    @pytest.mark.parametrize(
        "its,chunk,expected",
        [
            (np.arange(1, 12, 2), 1, THREADED_LANE),
            (np.arange(3, 6), 3, MULTIPROC_CHUNK),
        ],
        ids=["threaded-lane", "multiproc-chunk"],
    )
    def test_event_list_equals_the_old_executors(self, its, chunk, expected):
        loop = random_irregular_loop(12, seed=2)
        reads = loop.reads
        codes = kernel.classify_terms(
            reads.ptr, reads.index, writer_map(loop), its, chunk
        )
        ynew = np.zeros(loop.y_size)
        events: list = []
        kernel.run_span(
            its, codes, *span_args(loop), loop.y0, ynew, ynew,
            wait=lambda idx: None, post=lambda w: None, events=events,
        )
        assert events == expected
        # Plain ints: the log crosses a process boundary by pickle.
        assert all(type(x) in (int, str) for ev in events for x in ev)


def sequential_spans(loop, chunk, cuts, old=None):
    """The whole loop in natural order as spans cut at ``cuts``, under
    ``classify_terms`` codes for strips of ``chunk`` (``LOCAL`` and
    ``WAIT`` both resolve to the one renamed buffer): ``(cursor, y)``."""
    n, reads = loop.n, loop.reads
    its = np.arange(n)
    codes = kernel.classify_terms(
        reads.ptr, reads.index, writer_map(loop), its, chunk
    )
    old = loop.y0.copy() if old is None else old
    ynew = np.zeros(loop.y_size)
    cur = 0
    bounds = [0, *sorted(c for c in cuts if c < n), n]
    for lo, hi in zip(bounds, bounds[1:]):
        cur = kernel.run_span(
            its[lo:hi], codes, *span_args(loop), old, ynew, ynew, cur=cur
        )
    assert cur == len(codes)
    y = old.copy()
    y[loop.write] = ynew[loop.write]
    return cur, y


SPECIALS = (np.nan, -np.nan, np.inf, -np.inf, -0.0, 0.0, 1e308, 5e-324)


def seed_specials(loop, seed, share):
    """Overwrite about ``share`` of the loop's values and coefficients
    with NaN / inf / signed zeros / overflow-prone magnitudes, in place."""
    rng = np.random.default_rng(seed)
    for values in (loop.y0, loop.reads.coeff, loop.init_values):
        if values is not None and len(values):
            hit = rng.random(len(values)) < share
            values[hit] = rng.choice(SPECIALS, size=int(hit.sum()))
    return loop


class TestBothBodies:
    """One property suite, two bodies: the compiled walk is the Python
    walk in another language."""

    @pytest.mark.parametrize("body", BODIES)
    @given(
        params=loop_params,
        size=st.sampled_from(["1", "3", "n"]),
        cuts=st.lists(st.integers(0, 80), max_size=4),
    )
    @settings(max_examples=60, deadline=None)
    def test_spans_equal_the_oracle_bit_for_bit(self, body, params, size, cuts):
        loop = random_irregular_loop(**params)
        chunk = max(loop.n, 1) if size == "n" else int(size)
        with forced(body):
            _cur, y = sequential_spans(loop, chunk, cuts)
            assert ran_on(body)
        oracle = loop.run_sequential()
        assert np.array_equal(y.view(np.uint64), oracle.view(np.uint64))

    @pytest.mark.parametrize("body", BODIES)
    @given(
        params=loop_params,
        seed=st.integers(0, 10_000),
        share=st.sampled_from([0.02, 0.2]),
    )
    @settings(max_examples=60, deadline=None)
    def test_nan_inf_and_signed_zero(self, body, params, seed, share):
        loop = seed_specials(random_irregular_loop(**params), seed, share)
        with forced(body), np.errstate(all="ignore"):
            _cur, y = sequential_spans(loop, max(loop.n, 1), ())
            assert_same_bits(y, loop.run_sequential())

    @pytest.mark.parametrize("body", BODIES)
    @given(seed=st.integers(0, 10_000), share=st.sampled_from([0.01, 0.1]))
    @settings(max_examples=25, deadline=None)
    def test_vectorized_walk_on_special_values(self, body, seed, share):
        loop = seed_specials(random_irregular_loop(400, seed=seed), seed, share)
        with forced(body), np.errstate(all="ignore"):
            result = make_runner("vectorized").run(loop)
            assert ran_on(body)
            assert_same_bits(result.y, loop.run_sequential())

    @pytest.mark.parametrize("body", BODIES)
    def test_cursor_and_values_agree_across_a_lane_walk(self, body):
        # A lane of two under WAIT codes with published values in ``new``
        # and a separate ``out``: same cursor, same bits on either body.
        loop = random_irregular_loop(300, seed=11)
        its = np.arange(1, loop.n, 2)
        reads = loop.reads
        codes = kernel.classify_terms(
            reads.ptr, reads.index, writer_map(loop), its, 1
        )
        runs = {}
        for which in ("python", body):
            new = np.arange(loop.y_size, dtype=np.float64)
            out = np.zeros(loop.y_size)
            with forced(which):
                cur = kernel.run_span(
                    its, codes, *span_args(loop), loop.y0, new, out
                )
                assert ran_on(which)
            runs[which] = cur, out
        assert runs[body][0] == runs["python"][0] == len(codes)
        assert np.array_equal(
            runs[body][1].view(np.uint64), runs["python"][1].view(np.uint64)
        )


def test_c_text_uses_the_generated_term_codes_only():
    text = native.c_source()
    for name in ("OLD", "LOCAL", "WAIT", "ACC"):
        assert f"#define {name} {getattr(kernel, name)}\n" in text
        assert re.search(rf"case {name}:", text)
    # The hand-written part holds no define and no literal code.
    assert "#define" not in native._C_TEMPLATE
    assert not re.search(r"case\s+-?\d|codes\[[^\]]*\]\s*[=!]=\s*\d", text)
    assert len(re.findall(r"\bcase\b", text)) == 4


@needs_native
class TestNativeEntry:
    """What the compiled body refuses, and how."""

    @staticmethod
    def _operands(loop):
        n = loop.n
        its = np.arange(n)
        reads = loop.reads
        codes = kernel.classify_terms(
            reads.ptr, reads.index, writer_map(loop), its, n
        )
        return {
            "its": its, "codes": codes, "write": loop.write.copy(),
            "ptr": reads.ptr.copy(), "index": reads.index.copy(),
            "coeff": reads.coeff.copy(), "init": None,
            "old": loop.y0.copy(), "new": np.zeros(loop.y_size),
        }

    @staticmethod
    def _call(ops, cur=0, out=None):
        out = ops["new"] if out is None else out
        return kernel.run_span(
            ops["its"], ops["codes"], ops["write"], ops["ptr"], ops["index"],
            ops["coeff"], ops["init"], ops["old"], ops["new"], out, cur=cur,
        )

    def _broken(self, what):
        loop = random_irregular_loop(64, seed=4)
        ops = self._operands(loop)
        ptr = ops["ptr"]
        bad = next(i for i in range(32, loop.n) if ptr[i + 1] > ptr[i] > 0)
        k = int(ptr[bad])  # the first term of iteration ``bad``
        if what == "index-too-large":
            ops["index"][k] = loop.y_size
        elif what == "index-negative":
            ops["index"][k] = -1
        elif what == "its-too-large":
            ops["its"] = ops["its"].copy()
            ops["its"][bad] = loop.n
        elif what == "its-negative":
            ops["its"] = ops["its"].copy()
            ops["its"][bad] = -1
        elif what == "write-too-large":
            ops["write"][bad] = loop.y_size
        elif what == "codes-too-short":
            ops["codes"] = ops["codes"][: k + 1].copy()
        elif what == "ptr-decreasing":
            ptr[bad + 1] = k - 1
        elif what == "ptr-past-the-end":
            ptr[bad + 1] = len(ops["index"]) + 1
        return loop, ops, bad

    @pytest.mark.parametrize(
        "what",
        [
            "index-too-large", "index-negative", "its-too-large",
            "its-negative", "write-too-large", "codes-too-short",
            "ptr-decreasing", "ptr-past-the-end",
        ],
    )
    def test_out_of_bounds_operand_is_a_structured_error(self, what):
        loop, ops, bad = self._broken(what)
        y = ops["old"]
        before = y.copy()
        with forced("native"), pytest.raises(
            InvalidLoopError, match=rf"span position {bad} \(iteration"
        ):
            self._call(ops)
        # The caller's y is the ``old`` operand: bitwise untouched, and
        # the renamed buffer holds exactly the iterations before the bad one.
        assert np.array_equal(y.view(np.uint64), before.view(np.uint64))
        good = self._operands(loop)
        with forced("native"):
            kernel.run_span(
                good["its"][:bad], good["codes"], *span_args(loop),
                good["old"], good["new"], good["new"],
            )
        assert np.array_equal(ops["new"], good["new"])

    def test_inconsistent_lengths_and_negative_cursor(self):
        loop = random_irregular_loop(64, seed=4)
        for change in (
            {"cur": -1},
            {"ptr": lambda a: a[:-1].copy()},
            {"coeff": lambda a: a[:-1].copy()},
            {"old": lambda a: a[:-1].copy()},
        ):
            ops = self._operands(loop)
            cur = change.pop("cur", 0)
            for name, shorten in change.items():
                ops[name] = shorten(ops[name])
            with forced("native"), pytest.raises(
                InvalidLoopError, match="inconsistent operands"
            ):
                self._call(ops, cur=cur)

    @pytest.mark.parametrize(
        "change,reason",
        [
            (lambda ops: ops.update(its=ops["its"].astype(np.int32)),
             "non-array-operand"),
            (lambda ops: ops.update(index=ops["index"].astype(np.int32)),
             "non-array-operand"),
            (lambda ops: ops.update(
                coeff=TestRunSpanOperands._strided(ops["coeff"])),
             "non-array-operand"),
            (lambda ops: ops.update(old=memoryview(ops["old"])),
             "non-array-operand"),
            (lambda ops: None, None),
        ],
        ids=["int32-its", "int32-index", "strided", "memoryview", "flat"],
    )
    def test_other_operand_forms_take_the_python_body_and_say_so(
        self, change, reason
    ):
        loop = random_irregular_loop(64, seed=4)
        want = self._operands(loop)
        with forced("python"):
            self._call(want)
        ops = self._operands(loop)
        change(ops)
        with forced("native"):
            cur = self._call(ops)
            assert kernel.take_tally() == (
                (1, 0, None) if reason is None else (0, 1, reason)
            )
        assert cur == len(want["codes"])
        assert np.array_equal(ops["new"], want["new"])

    def test_read_only_inputs_run_compiled_a_read_only_out_does_not(self):
        loop = random_irregular_loop(64, seed=4)
        ops = self._operands(loop)
        for name in ("its", "codes", "write", "ptr", "index", "coeff", "old"):
            ops[name] = TestRunSpanOperands._read_only(ops[name])
        with forced("native"):
            self._call(ops)
            assert kernel.take_tally() == (1, 0, None)
            frozen = TestRunSpanOperands._read_only(ops["new"])
            with pytest.raises(TypeError):  # the Python walk's own refusal
                self._call(ops, out=frozen)
            assert kernel.take_tally() == (0, 1, "non-array-operand")

    def test_short_spans_and_callback_spans_keep_the_python_body(self):
        loop = random_irregular_loop(64, seed=4)
        ops = self._operands(loop)
        span = (
            ops["codes"], *span_args(loop), ops["old"], ops["new"], ops["new"],
        )
        kernel.take_tally()
        kernel.run_span(ops["its"][: kernel._NATIVE_FROM - 1], *span)
        assert kernel.take_tally() == (0, 1, "short-span")
        kernel.run_span(ops["its"][: kernel._NATIVE_FROM], *span)
        assert kernel.take_tally() == (1, 0, None)
        kernel.run_span(ops["its"], *span, post=lambda w: None)
        assert kernel.take_tally() == (0, 1, "blocking-span")
        kernel.run_span(ops["its"], *span, wait=lambda idx: None)
        assert kernel.take_tally() == (0, 1, "blocking-span")
        kernel.run_span(ops["its"], *span, events=[])
        assert kernel.take_tally() == (0, 1, "sanitize")

    def test_the_foreign_call_releases_the_gil(self):
        # With forced switches turned off, a thread that only yields
        # voluntarily can advance between two reads by the calling thread
        # only if the caller let go of the lock in between — which between
        # these two reads nothing but the compiled span does.
        import sys
        import threading
        import time

        loop = chain_loop(200_000, 1)
        ops = self._operands(loop)
        ticks, stop = [0], threading.Event()

        def spin():
            while not stop.is_set():
                ticks[0] += 1
                time.sleep(0)  # hand the lock back to whoever wants it

        thread = threading.Thread(target=spin, daemon=True)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1000.0)
        try:
            thread.start()
            moved = 0
            for _ in range(200):
                before = ticks[0]
                self._call(ops)
                moved += ticks[0] - before
                if moved:
                    break
        finally:
            sys.setswitchinterval(interval)
            stop.set()
            thread.join(timeout=10)
        assert not thread.is_alive()
        assert moved and kernel.take_tally()[1] == 0


class TestRunSpanOperands:
    """``run_span`` walks ndarray operands through memoryviews and lets
    anything else through: whatever the caller holds, the values, the
    cursor and the shadow events are the same."""

    @staticmethod
    def _run(loop, convert, convert_new=None, out=None):
        """One lane of two (cyclic) over ``convert``-ed operands; ``new``
        (which doubles as ``out`` unless one is given) may be converted
        differently, since the walk writes it."""
        its = np.arange(1, loop.n, 2)
        reads = loop.reads
        codes = kernel.classify_terms(
            reads.ptr, reads.index, writer_map(loop), its, 1
        )
        inputs = [codes, *span_args(loop), loop.y0]
        inputs = [None if a is None else convert(a) for a in inputs]
        # "Published" values, distinct per element.
        new = (convert_new or convert)(np.arange(loop.y_size, dtype=np.float64))
        out = new if out is None else out
        events: list = []
        cur = kernel.run_span(
            its, *inputs, new, out,
            wait=lambda idx: None, post=lambda w: None, events=events,
        )
        return cur, events, [float(out[w]) for w in loop.write[its].tolist()]

    @staticmethod
    def _read_only(a):
        a = a.copy()
        a.setflags(write=False)
        return a

    @staticmethod
    def _strided(a):
        wide = np.zeros(2 * len(a), dtype=a.dtype)
        wide[::2] = a
        view = wide[::2]
        assert len(a) < 2 or not view.flags.c_contiguous
        return view

    @staticmethod
    def _int32(a):
        return a.astype(np.int32) if a.dtype == np.int64 else a

    @pytest.mark.parametrize(
        "loop",
        [
            random_irregular_loop(60, seed=4),
            random_irregular_loop(60, seed=6, external_init=True),
            chain_loop(40, 2),
        ],
        ids=lambda loop: loop.name,
    )
    def test_every_operand_form_gives_the_same_walk(self, loop):
        want = self._run(loop, lambda a: a)
        assert want[0] > 0 and want[1]
        assert self._run(loop, memoryview) == want
        assert self._run(loop, self._strided) == want
        assert self._run(loop, self._int32) == want
        # A separate write buffer: an array or the speculative dict.
        apart = self._run(loop, lambda a: a, out=np.zeros(loop.y_size))
        assert self._run(loop, lambda a: a, out={}) == apart
        # Everything the walk only reads may be read-only.
        assert self._run(loop, self._read_only, lambda a: a) == want
        # Plain ints: the log crosses a process boundary by pickle.
        assert all(type(x) in (int, str) for ev in want[1] for x in ev)

    def test_a_view_reads_the_live_buffer(self):
        # A value published by another lane after entry must be seen:
        # the wait callback stands in for the writer's post.
        loop = chain_loop(2, 1)
        reads = loop.reads
        codes = kernel.classify_terms(
            reads.ptr, reads.index, writer_map(loop), np.array([1]), 1
        )
        ynew = np.zeros(2)

        def wait(idx):
            ynew[idx] = 7.0  # lands while run_span holds its views

        kernel.run_span(
            np.array([1]), codes, *span_args(loop), loop.y0, ynew, ynew,
            wait=wait,
        )
        assert ynew[1] == loop.y0[1] + 0.5 * 7.0


def _counters(result, names):
    counters = result.telemetry.metrics.as_dict()["counters"]
    return {name: counters.get(name) for name in names}


def _log_digest(runner, loop, **options):
    """Per-lane shadow logs of one bare run, pid-independent."""
    capture = runner._san_capture = ShadowCapture()
    try:
        runner.run(loop, **options)
    finally:
        runner._san_capture = None
    lanes: dict = {}
    for key, events in capture.lanes.items():
        lanes.setdefault(key[1] if isinstance(key, tuple) else key, []).extend(
            events
        )
    blob = repr(sorted(lanes.items())).encode()
    return hashlib.sha256(blob).hexdigest()[:16], sum(map(len, lanes.values()))


class TestSameBehaviourAsTheOldExecutors:
    """Counters and per-lane shadow logs, 2 lanes, pinned to the values
    the per-backend executors produced at the parent commit."""

    FLAG = ("flag_checks", "flag_sets", "iterations", "inspector_iterations")
    GROUP = FLAG + ("sync_elisions", "group_barriers")
    LOOPS = {
        "chain": lambda: chain_loop(200, 1),
        "random": lambda: random_irregular_loop(150, seed=5),
    }

    @pytest.fixture(scope="class")
    def runners(self):
        pool = MultiprocRunner(workers=2)
        yield {"threaded": ThreadedRunner(threads=2), "multiproc": pool}
        pool.close()

    @pytest.mark.parametrize(
        "backend,name,flag_checks,digest",
        [
            ("threaded", "chain", 199, ("cb26564129877744", 802)),
            ("threaded", "random", 138, ("e351a9f66cc3be61", 729)),
            ("multiproc", "chain", 7, ("9094b9b7ab8a5e82", 606)),
            ("multiproc", "random", 128, ("5d575b251ca3077b", 715)),
        ],
    )
    def test_flag_mode(self, runners, backend, name, flag_checks, digest):
        loop = self.LOOPS[name]()
        spec = PlanSpec(backend=backend, processors=2, observe=True)
        result = make_runner(spec=spec).run(loop)
        assert np.array_equal(result.y, loop.run_sequential())
        counters = _counters(result, self.GROUP)
        assert counters == {
            "flag_checks": flag_checks,
            "flag_sets": loop.n,
            "iterations": loop.n,
            "inspector_iterations": loop.n,
            "sync_elisions": None,
            "group_barriers": None,
        }
        assert _log_digest(runners[backend], loop) == digest

    @pytest.mark.parametrize(
        "backend,digest",
        [
            ("threaded", ("0f080e6b6255cb27", 729)),
            ("multiproc", ("a4d86fcb700e5cc4", 720)),
        ],
    )
    def test_doconsider_order(self, runners, backend, digest):
        loop = self.LOOPS["random"]()
        order = level_order(loop)[0]
        assert _log_digest(runners[backend], loop, order=order) == digest

    @pytest.mark.parametrize(
        "backend,chunk,digest",
        [
            ("threaded", None, ("bea2ddb6e75a2a63", 160)),
            ("multiproc", 2, ("6a32902e2e45e76f", 156)),
        ],
    )
    def test_group_mode(self, runners, backend, chunk, digest):
        loop = chain_loop(64, 4)
        spec = PlanSpec(
            backend=backend, processors=2, chunk=chunk,
            analyze="symbolic", observe=True,
        )
        result, _plan = parallelize(loop, spec=spec)
        assert np.array_equal(result.y, loop.run_sequential())
        assert result.extras["distance_group"] == 4
        # 64 posts never set + 60 waits never performed; 16 barriers.
        assert _counters(result, self.GROUP) == {
            "flag_checks": 0,
            "flag_sets": 0,
            "iterations": 64,
            "inspector_iterations": 0,
            "sync_elisions": 124,
            "group_barriers": 16,
        }
        options = {"group_sync": 4}
        if chunk is not None:
            options["chunk"] = chunk
        assert _log_digest(runners[backend], loop, **options) == digest


class TestOneRuleOnePlace:
    def test_figure5_compare_lives_in_no_backend(self):
        """The simulator was the last backend with its own ``iter``-vs-``i``
        compare; it executes :func:`kernel.classify_terms` codes now."""
        hits = {
            path.name
            for path in (SRC / "backends").glob("*.py")
            if re.search(r"writer (==|<) i\b", path.read_text())
        }
        assert hits == set()
        assert "classify_terms(" in (SRC / "backends/simulated.py").read_text()

    def test_the_simulator_has_one_dealer_and_one_result_builder(self):
        text = (SRC / "backends/simulated.py").read_text()
        assert text.count("def factory_for") == 1
        assert text.count("RunResult(") == 1
        for gone in (
            "_uniform_phase", "_weighted_phase", "run_wavefront_preprocessing"
        ):
            assert gone not in text

    def test_the_forwarding_facades_are_gone(self):
        import repro

        for module, name in (
            ("classic", "ClassicDoacross"),
            ("doall_runner", "DoallRunner"),
            ("stripmine", "StripminedDoacross"),
            ("linear", "LinearDoacross"),
        ):
            assert not (SRC / "core" / f"{module}.py").exists()
            assert name not in repro.__all__ and not hasattr(repro, name)

    def test_chunk_default_formula_occurs_once(self):
        hits = [
            str(path.relative_to(SRC))
            for path in SRC.rglob("*.py")
            for line in path.read_text().splitlines()
            if re.search(r"// \(4 \* \w*\.?(workers|processors)\)", line)
        ]
        assert hits == ["backends/kernel.py"]


def _duplicate_and_accumulator_loop(n: int = 12):
    """Iteration ``i`` writes ``i`` and reads ``i`` (its accumulator)
    twice and ``i - 1`` twice (element ``n``, never written, for 0)."""
    from repro.ir.accesses import ReadTable
    from repro.ir.loop import IrregularLoop
    from repro.ir.subscript import IndirectSubscript

    prev = [n] + list(range(n - 1))
    return IrregularLoop(
        n=n,
        y_size=n + 1,
        write_subscript=IndirectSubscript(np.arange(n)),
        reads=ReadTable.from_lists(
            [[(i, 0.5), (p, 0.25), (i, 1.0), (p, 0.25)]
             for i, p in zip(range(n), prev)]
        ),
        name="duplicates-and-accumulators",
    )


class TestSpanEvents:
    """``span_events`` is the NumPy twin of the shadow log ``run_span``
    writes without ``wait`` and ``post``: row for row the same events, and
    the same sanitizer report."""

    @pytest.mark.parametrize(
        "loop",
        [
            random_irregular_loop(150, seed=3),
            random_irregular_loop(90, seed=8, external_init=True),
            random_irregular_loop(0, seed=1),
            chain_loop(60, 1),
            chain_loop(72, 3),
            make_test_loop(80, 5, 7),
            make_test_loop(80, 5, 8),
            _duplicate_and_accumulator_loop(),
        ],
        ids=lambda loop: loop.name,
    )
    def test_the_twin_is_the_walk(self, loop):
        from repro.backends.cache import build_inspector_record
        from repro.sanitize import detect

        reads, iter_arr = loop.reads, writer_map(loop)
        record = build_inspector_record(loop)
        levels = np.split(record.schedule.order, record.schedule.level_ptr[1:-1])
        orders = {
            "natural": np.arange(loop.n),
            "level-major": record.schedule.order,
            "reversed-levels": np.concatenate(levels[::-1]),
        }
        spans = [("record", record.schedule.order, record.codes)]
        for name, order in orders.items():
            pos = inverse_permutation(order)
            for chunk in (1, 4):
                codes = kernel.classify_terms(
                    reads.ptr, reads.index, iter_arr, order, chunk, pos
                )
                spans.append((f"{name}/chunk={chunk}", order, codes))
        seen = set()
        for label, its, codes in spans:
            seen.update(np.unique(codes).tolist())
            logged: list = []
            y = loop.y0.copy()
            kernel.run_span(
                its, codes, *span_args(loop), y, np.zeros_like(y),
                np.zeros_like(y), events=logged,
            )
            cols = kernel.span_events(
                its, codes, loop.write, reads.ptr, reads.index
            )
            twin = [
                ("w", i, e) if s == -1 else ("r", i, e, s)
                for i, e, s in zip(*(c.tolist() for c in cols))
            ]
            assert twin == logged, label
            as_span, as_tuples = ShadowCapture(), ShadowCapture()
            as_span.lane(0).append(("s", its, codes))
            as_tuples.lane(0).extend(logged)
            for partial in (False, True):
                assert (
                    detect(as_span, loop, partial=partial).as_dict()
                    == detect(as_tuples, loop, partial=partial).as_dict()
                ), label
        if loop.name == "duplicates-and-accumulators":
            assert seen == {OLD, LOCAL, WAIT, ACC}
