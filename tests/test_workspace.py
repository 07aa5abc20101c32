"""Tests for the reusable doacross workspace."""

import numpy as np

from repro.core.workspace import MAXINT, DoacrossWorkspace


class TestWorkspace:
    def test_starts_clean(self):
        ws = DoacrossWorkspace(10)
        assert ws.is_clean()
        assert ws.y_size == 10
        assert ws.invocations == 0

    def test_dirty_detection(self):
        ws = DoacrossWorkspace(5)
        ws.iter_arr[3] = 7
        assert not ws.is_clean()
        np.testing.assert_array_equal(ws.dirty_indices(), [3])

    def test_ensure_size_grows_preserving_state(self):
        ws = DoacrossWorkspace(4)
        ws.iter_arr[1] = 9
        ws.ynew[2] = 3.5
        ws.ensure_size(8)
        assert ws.y_size == 8
        assert ws.iter_arr[1] == 9
        assert ws.ynew[2] == 3.5
        assert np.all(ws.iter_arr[4:] == MAXINT)

    def test_ensure_size_never_shrinks(self):
        ws = DoacrossWorkspace(10)
        ws.ensure_size(3)
        assert ws.y_size == 10

    def test_scratch_bytes(self):
        ws = DoacrossWorkspace(100)
        assert ws.scratch_bytes() == 100 * 8 + 100 * 8

    def test_maxint_is_int64_max(self):
        assert MAXINT == np.iinfo(np.int64).max


class TestDirtyWorkspaceGuard:
    """A dirty workspace (skipped postprocessing) must fail loudly, not
    silently misclassify reads."""

    def _dirty_runner(self):
        from repro.core.doacross import PreprocessedDoacross

        ws = DoacrossWorkspace(64)
        ws.iter_arr[7] = 3  # stale entry
        return PreprocessedDoacross(processors=4, workspace=ws)

    def test_run_rejects_dirty_workspace(self):
        import pytest

        from repro.errors import InvalidLoopError
        from repro.workloads.testloop import make_test_loop

        runner = self._dirty_runner()
        with pytest.raises(InvalidLoopError, match="dirty"):
            runner.run(make_test_loop(n=20, m=1, l=3))

    def test_stripmine_rejects_dirty_workspace(self):
        import pytest

        from repro.errors import InvalidLoopError
        from repro.workloads.testloop import make_test_loop

        runner = self._dirty_runner()
        with pytest.raises(InvalidLoopError, match="dirty"):
            runner.run_stripmined(make_test_loop(n=20, m=1, l=3), block=5)

    def test_amortized_rejects_dirty_workspace(self):
        import pytest

        from repro.errors import InvalidLoopError
        from repro.workloads.testloop import make_test_loop

        runner = self._dirty_runner()
        with pytest.raises(InvalidLoopError, match="dirty"):
            runner.run_amortized(make_test_loop(n=20, m=1, l=3), 2)
