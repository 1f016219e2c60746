"""Every name in a module's __all__ exists.

perfbench/spans.py wraps the functions it finds through each module's
__all__ and skips names that do not resolve, so a stale entry would drop a
stage from the trace without an error.
"""

import importlib
import pkgutil

import pytest

import squaretour

MODULES = ["squaretour"] + sorted(
    m.name for m in pkgutil.iter_modules(squaretour.__path__, "squaretour.")
)


@pytest.mark.parametrize("name", MODULES)
def test_star_import_resolves(name):
    namespace: dict = {}
    exec(f"from {name} import *", namespace)  # raises on a missing __all__ entry
    exported = getattr(importlib.import_module(name), "__all__", ())
    assert set(exported) <= namespace.keys()


def test_package_exports_every_stage():
    assert {"square_point", "hamiltonian", "contract", "rainbow", "run_tour"} <= set(
        squaretour.__all__
    )
