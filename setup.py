"""Packaging for the ``repro`` library, whose sources live under ``src/``.

This file holds all of the project's metadata.  A PEP 517 editable
install builds a wheel and so needs the ``wheel`` package; where that is
missing, ``pip install -e . --no-build-isolation --no-use-pep517`` takes
the classic ``setup.py develop`` path instead.
"""

import re
from pathlib import Path

from setuptools import find_packages, setup

VERSION_FILE = Path(__file__).resolve().parent / "src" / "repro" / "version.py"
VERSION = re.search(r'__version__ = "([^"]+)"', VERSION_FILE.read_text()).group(1)

setup(
    name="repro",
    version=VERSION,
    description=(
        "Reproduction of strategic safety-critical attacks against an "
        "advanced driver assistance system"
    ),
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.10",
    install_requires=["numpy>=1.24"],
)
