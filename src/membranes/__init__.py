"""Solvers and analysis tools for the N-membrane problem with constant forces.

Modules
-------
problem     problem specification, normalization, weighted-average identities
cones1d     the catalogue of homogeneous degree-2 solutions (1D cones)
exact1d     global 1D solutions h(x, b), the error function, 2D profiles
projection  weighted isotonic projection onto the ordered cone (min-max formula)
solver2d    projected SOR grid solver on intervals/rectangles/disks
analysis    free boundaries, Weiss energy, cone fitting, regular-point probe, rate fits
gamesim     ticket-exchange game: Bellman table by the solver's sweep, Monte Carlo check
cli         scenario runner
"""

from .problem import ProblemSpec, normalize, subtract_average

__version__ = "0.1.0"

__all__ = [
    "ProblemSpec",
    "normalize",
    "subtract_average",
    "__version__",
]
