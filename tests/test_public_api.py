"""Public API surface tests: what a downstream user imports must exist,
be documented, and stay stable."""

import inspect

import pytest

import repro
import repro.backends
import repro.bench
import repro.core
import repro.graph
import repro.ir
import repro.machine
import repro.sparse
import repro.workloads


ALL_PACKAGES = [
    repro,
    repro.core,
    repro.machine,
    repro.ir,
    repro.graph,
    repro.sparse,
    repro.backends,
    repro.workloads,
    repro.bench,
]


class TestExports:
    @pytest.mark.parametrize("pkg", ALL_PACKAGES, ids=lambda p: p.__name__)
    def test_all_names_resolve(self, pkg):
        for name in getattr(pkg, "__all__", []):
            assert hasattr(pkg, name), f"{pkg.__name__}.{name} missing"

    @pytest.mark.parametrize("pkg", ALL_PACKAGES, ids=lambda p: p.__name__)
    def test_package_docstring(self, pkg):
        assert pkg.__doc__ and len(pkg.__doc__) > 60

    def test_version(self):
        major, minor, patch = repro.__version__.split(".")
        assert all(part.isdigit() for part in (major, minor, patch))

    def test_key_entry_points_present(self):
        for name in (
            "PreprocessedDoacross",
            "Doconsider",
            "AmortizedDoacross",
            "SimulatedRunner",
            "parallelize",
            "verify_loop",
            "make_test_loop",
            "IrregularLoop",
            "CostModel",
            "WorkProfile",
        ):
            assert name in repro.__all__


class TestDocstrings:
    """Every public callable exported from the top level is documented."""

    @pytest.mark.parametrize("name", sorted(repro.__all__))
    def test_documented(self, name):
        obj = getattr(repro, name)
        if inspect.isclass(obj) or inspect.isfunction(obj):
            assert obj.__doc__, f"repro.{name} lacks a docstring"

    @pytest.mark.parametrize(
        "cls_name",
        [
            "PreprocessedDoacross",
            "Doconsider",
            "AmortizedDoacross",
            "SimulatedRunner",
        ],
    )
    def test_runner_public_methods_documented(self, cls_name):
        cls = getattr(repro, cls_name)
        for name, member in inspect.getmembers(cls, inspect.isfunction):
            if name.startswith("_"):
                continue
            assert member.__doc__, f"{cls_name}.{name} lacks a docstring"
