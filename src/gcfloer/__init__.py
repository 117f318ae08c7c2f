"""Gelfand-Cetlin polytopes, Landau-Ginzburg potentials, and Floer
cohomology of flag-manifold fibers over the Novikov ring."""

__version__ = "0.1.0"

from . import floer, gc_core, novikov, numerics, potential, qh, spaces, verify  # noqa: F401
