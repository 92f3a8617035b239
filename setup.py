"""Setuptools shim.

The offline build environment lacks the ``wheel`` package, so PEP 660
editable installs fail; keeping a ``setup.py`` (and no
``[build-system]`` table in ``pyproject.toml``) lets ``pip install -e .``
fall back to the legacy ``setup.py develop`` path, which works with the
stock setuptools available here.
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.0.0",
    description=(
        "Privacy-aware feature selection for secure classification "
        "(reproduction of Pattuk et al., ICDE 2016)"
    ),
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.10",
    install_requires=["numpy>=1.23"],
)
