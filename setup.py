"""Setuptools entry point — and the project metadata.

The execution environment ships setuptools without the ``wheel`` package,
so PEP 660 editable installs (``pip install -e .`` via pyproject.toml)
fail with ``invalid command 'bdist_wheel'``; the classic
``pip install -e . --no-use-pep517 --no-build-isolation`` path works,
so metadata lives here rather than in a pyproject.toml.

The version string is read from ``src/repro/__init__.py`` — the package
constant is the single source of truth (the benchmark result cache and
the ``BENCH_scale.json`` perf-trajectory log are keyed by it).
"""

import pathlib
import re

from setuptools import find_packages, setup

_INIT = pathlib.Path(__file__).parent / "src" / "repro" / "__init__.py"
_VERSION = re.search(
    r'^__version__ = "([^"]+)"', _INIT.read_text(), re.MULTILINE
).group(1)

setup(
    name="whitefi-repro",
    version=_VERSION,
    description=(
        "Reproduction of WhiteFi (SIGCOMM 2009): Wi-Fi-like networking in "
        "UHF white spaces, with a geolocation white-space database tier"
    ),
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.11",
    install_requires=[
        # The columnar engine (repro.wsdb.vector), the cluster request
        # path (repro.wsdb.cluster) and trace replay use numpy arrays.
        "numpy>=1.24",
    ],
)
