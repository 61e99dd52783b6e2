"""Setuptools entry point for the ``repro`` package (sources under ``src/``).

Install with ``pip install -e .`` (editable) or ``pip install .``; the tests
and benchmarks also run without installing, with ``PYTHONPATH=src``.
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.0.0",
    description="Package queries (PaQL) with DIRECT and SKETCHREFINE evaluation",
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.11",
    install_requires=["numpy", "scipy"],
)
