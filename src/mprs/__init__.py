"""Exact solver for multi-player reachability/safety games on digraphs.

Players steer a shared token through a finite graph, each trying to reach
or to avoid their own target set, and payoffs discount the first hitting
time. This package models such games, computes their deterministic
memoryless Nash equilibria exactly, and verifies them along two
independent routes (deviation search and local value-table optimality).
"""

from .classic import *
from .equilibrium import *
from .game import *
from .gamefile import *
from .generator import *
from .limits import *
from .valuation import *

__version__ = "0.1.0"

# Each module lists its own public names; the package exports them all.
__all__ = sorted(
    classic.__all__
    + equilibrium.__all__
    + game.__all__
    + gamefile.__all__
    + generator.__all__
    + limits.__all__
    + valuation.__all__
)
