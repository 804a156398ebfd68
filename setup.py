"""Package metadata for ``repro`` (the ``src/`` layout).

The supported way to run the code is straight from the checkout with
``PYTHONPATH=src``, which is what the Makefile and CI do; no install
step is needed beyond the requirements below.  This file also lets the
package install from ``src/``, e.g. with an offline setuptools that
lacks editable-wheel support::

    pip install --no-build-isolation --no-use-pep517 -e .

Runtime requirements are numpy and networkx; the test suite also needs
pytest and hypothesis (the ``test`` extra).
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="0.0.0",
    description="Reproduction of 'Bankrupting Sybil Despite Churn' (ICDCS 2021)",
    package_dir={"": "src"},
    packages=find_packages("src"),
    package_data={"repro.scenarios": ["data/*.csv"]},
    python_requires=">=3.10",
    install_requires=["numpy", "networkx"],
    extras_require={"test": ["pytest", "hypothesis"]},
)
