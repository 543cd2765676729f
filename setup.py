"""Package metadata for the ``repro`` library.

The importable package lives under ``src/``: ``pip install -e .`` (or
``python setup.py develop``) installs ``repro`` and its subpackages.
Examples, benchmarks and tests run from a checkout with ``PYTHONPATH=src``.
"""

from setuptools import find_packages, setup

setup(
    name="repro-dubhe",
    version="1.0.0",
    description="Dubhe: unbiased federated-learning client selection "
                "with homomorphic encryption",
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.10",
    install_requires=["numpy"],
)
