"""Tests of the top-level public API surface (``import repro``)."""

import importlib
import subprocess
import sys
from pathlib import Path

import pytest

import repro


class TestPublicApi:
    def test_version(self):
        assert repro.__version__ == "1.9.0"

    def test_setup_py_reports_the_package_version(self):
        # setup.py parses its version out of src/repro/__init__.py; the
        # built distribution and every store record's package_version must
        # agree.
        root = Path(__file__).resolve().parent.parent
        completed = subprocess.run(
            [sys.executable, "setup.py", "--version"],
            cwd=root,
            capture_output=True,
            text=True,
            check=True,
        )
        assert completed.stdout.split()[-1] == repro.__version__

    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), f"repro.{name} missing"

    def test_headline_entry_points_exposed(self):
        for name in (
            "optimize_multisite",
            "design_step1_only",
            "load_benchmark",
            "make_pnx8550",
            "design_architecture",
            "design_wrapper",
            "build_schedule",
            "AteSpec",
            "ProbeStation",
            "OptimizationConfig",
            "SweepGrid",
            "synthetic_family",
            "register_catalog_soc",
        ):
            assert name in repro.__all__

    @pytest.mark.parametrize(
        "module_name",
        [
            "repro.core",
            "repro.soc",
            "repro.itc02",
            "repro.wrapper",
            "repro.tam",
            "repro.rpct",
            "repro.ate",
            "repro.multisite",
            "repro.optimize",
            "repro.solvers",
            "repro.baselines",
            "repro.sim",
            "repro.schedule",
            "repro.experiments",
            "repro.reporting",
            "repro.cli",
        ],
    )
    def test_subpackages_importable_and_have_docstrings(self, module_name):
        module = importlib.import_module(module_name)
        assert module.__doc__, f"{module_name} needs a module docstring"

    @pytest.mark.parametrize(
        "module_name",
        [
            "repro.soc",
            "repro.wrapper",
            "repro.tam",
            "repro.multisite",
            "repro.optimize",
            "repro.solvers",
            "repro.baselines",
            "repro.sim",
            "repro.itc02",
            "repro.reporting",
        ],
    )
    def test_subpackage_all_names_resolve(self, module_name):
        module = importlib.import_module(module_name)
        for name in getattr(module, "__all__", []):
            assert hasattr(module, name), f"{module_name}.{name} missing"

    def test_end_to_end_via_public_names_only(self):
        soc = repro.load_benchmark("d695")
        ate = repro.AteSpec(channels=64, depth=200_000)
        result = repro.optimize_multisite(soc, ate)
        schedule = repro.build_schedule(result.best.architecture)
        assert schedule.makespan == result.best.test_time_cycles
