"""Gelfand-Cetlin polytopes, Landau-Ginzburg potentials, and Floer
cohomology of flag-manifold fibers over the Novikov ring.

Each submodule below is registered in sys.modules on import of the
package but runs only on first attribute access (importlib's LazyLoader),
so a command pays only for the layers it uses: the `polytope`, `potential`
and `floer` commands load no numpy.
"""

import importlib.util
import sys

__version__ = "0.1.0"


def _register_lazily(name):
    spec = importlib.util.find_spec(f"{__name__}.{name}")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


for _name in ("flags", "floer", "gc_core", "laurent", "novikov", "numerics", "potential",
              "qh", "spaces", "verify"):
    globals()[_name] = _register_lazily(_name)
del _name
