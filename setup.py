"""Packaging configuration.

Kept as a plain ``setup.py`` so that ``pip install .`` / ``pip install -e .``
also work on offline machines where build isolation cannot download its
build dependencies (pip then falls back to the legacy code path).

The ``package_data`` entry matters: the ITC'02 benchmark files under
``repro/itc02/data/`` are loaded through :mod:`importlib.resources` at
runtime, so an installed wheel must ship them -- not only a
``PYTHONPATH=src`` checkout.

numpy is the one runtime dependency: the evaluation kernel batches the
multi-site objective math over every candidate site count through it.  It
is left unpinned; the kernel-equivalence test suite is the guard.
"""

import re
from pathlib import Path

from setuptools import find_packages, setup


def read_version() -> str:
    """The package version, single-sourced from ``repro.__version__``.

    Parsed from the source text rather than imported, so building never
    executes the package.
    """
    text = (Path(__file__).parent / "src" / "repro" / "__init__.py").read_text(encoding="utf-8")
    match = re.search(r'^__version__ = "([^"]+)"$', text, re.MULTILINE)
    if match is None:
        raise RuntimeError("src/repro/__init__.py defines no __version__")
    return match.group(1)


setup(
    name="repro-multisite",
    version=read_version(),
    description=(
        "Reproduction of Goel & Marinissen (DATE 2005): on-chip test "
        "infrastructure design for optimal multi-site testing of system chips"
    ),
    python_requires=">=3.10",
    install_requires=["numpy"],
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    package_data={"repro.itc02": ["data/*.soc"]},
    include_package_data=True,
    entry_points={
        "console_scripts": [
            "repro-multisite = repro.cli:main",
        ],
    },
)
