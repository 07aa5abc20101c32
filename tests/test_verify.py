"""Tests for the cross-strategy verification tool."""

from repro.core.verify import verify_loop
from repro.workloads.synthetic import chain_loop, random_irregular_loop
from repro.workloads.testloop import make_test_loop


class TestVerifyLoop:
    def test_random_loop_passes(self):
        report = verify_loop(random_irregular_loop(60, seed=3))
        assert report.passed
        names = {c.strategy for c in report.ran}
        assert "preprocessed-doacross" in names
        assert "doconsider-doacross" in names
        assert "stripmined-doacross" in names

    def test_linear_skipped_for_indirect_writes(self):
        report = verify_loop(
            random_irregular_loop(40, seed=1), include_threaded=False
        )
        linear = next(
            c for c in report.checks if c.strategy == "linear-doacross"
        )
        assert linear.skipped
        assert "affine" in linear.skipped_reason

    def test_linear_runs_for_affine_writes(self):
        report = verify_loop(
            make_test_loop(n=60, m=2, l=6), include_threaded=False
        )
        linear = next(
            c for c in report.checks if c.strategy == "linear-doacross"
        )
        assert not linear.skipped
        assert report.passed

    def test_classic_runs_for_chain_loops(self):
        report = verify_loop(chain_loop(80, 3), include_threaded=False)
        classic = next(
            c for c in report.checks if c.strategy == "classic-doacross"
        )
        assert not classic.skipped
        assert report.passed

    def test_doall_runs_only_when_independent(self):
        dep = verify_loop(chain_loop(40, 1), include_threaded=False)
        doall_dep = next(c for c in dep.checks if c.strategy == "doall")
        assert doall_dep.skipped

        free = verify_loop(
            random_irregular_loop(40, max_terms=0, seed=0),
            include_threaded=False,
        )
        doall_free = next(c for c in free.checks if c.strategy == "doall")
        assert not doall_free.skipped
        assert free.passed

    def test_threaded_included_on_request(self):
        report = verify_loop(
            random_irregular_loop(30, seed=5), include_threaded=True, threads=2
        )
        assert any(c.strategy.startswith("threaded") for c in report.checks)
        assert report.passed

    def test_summary_format(self):
        report = verify_loop(
            make_test_loop(n=30, m=1, l=4), include_threaded=False
        )
        s = report.summary()
        assert "PASS" in s
        assert "preprocessed-doacross: ok" in s
        assert "skipped" in s  # doall is skipped here

    def test_detects_injected_mismatch(self):
        """A corrupted check must flip the verdict (the tool can fail)."""
        from repro.core.verify import StrategyCheck

        report = verify_loop(
            random_irregular_loop(20, seed=2), include_threaded=False
        )
        report.checks.append(
            StrategyCheck(strategy="bogus", max_abs_diff=1.0, passed=False)
        )
        assert not report.passed
        assert "MISMATCH" in report.summary()

    def test_amortized_check_runs_two_instances(self, monkeypatch):
        """The ``amortized-doacross(x2)`` check compares two composed
        instances against the oracle applied twice: a run that stops after
        the first instance fails it."""
        from repro.core.doacross import PreprocessedDoacross

        one_instance = PreprocessedDoacross.run_amortized

        def run_amortized(self, loop, instances, **kw):
            return one_instance(self, loop, 1, **kw)

        loop = random_irregular_loop(60, seed=4)
        assert verify_loop(loop, include_threaded=False).passed
        monkeypatch.setattr(PreprocessedDoacross, "run_amortized", run_amortized)
        report = verify_loop(loop, include_threaded=False)
        (amortized,) = [
            c for c in report.checks if c.strategy == "amortized-doacross(x2)"
        ]
        assert not amortized.passed
        assert not report.passed

    def test_empty_loop(self):
        report = verify_loop(
            random_irregular_loop(0, seed=0), include_threaded=False
        )
        assert report.passed
