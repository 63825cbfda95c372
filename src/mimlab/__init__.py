"""mimlab: branch decompositions, mim-width solvers, graph-class
recognizers, and extremal constructions on small graphs.

Each public name is imported from its module, for example
`from mimlab.solver import mimw_exact`."""

__version__ = "0.1.0"
