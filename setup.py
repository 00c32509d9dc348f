"""Package metadata for the ``repro`` library under ``src/``.

The environment this library targets may lack the ``wheel`` package, which
PEP 517 editable installs require.  Keeping the metadata in a ``setup.py``
lets ``pip install -e . --no-use-pep517`` (or ``python setup.py develop``)
work offline.  The library has no third-party runtime dependency.
"""

from setuptools import find_namespace_packages, setup

setup(
    name="repro",
    version="0.16.0",
    description="Python reproduction of Dissent in Numbers (OSDI 2012)",
    package_dir={"": "src"},
    # ``src/repro`` has no ``__init__.py``: it is an implicit namespace
    # package, which plain ``find_packages`` does not see.
    packages=find_namespace_packages("src"),
    python_requires=">=3.11",
)
