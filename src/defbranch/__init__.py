"""Branching populations with a graveyard state, in varying environments.

Offspring laws may put mass on an absorbing graveyard (total weight
below one); the package provides exact pgf-composition analysis,
moment and survival bounds, convergence criteria, Monte Carlo
simulation with two coupled samplers, and family-tree machinery
including samplers conditioned on survival.

Each module's ``__all__`` is its public API, written there once; the
package re-exports those names and nothing else.
"""
from . import analysis, environments, laws, simulate, trees
from .laws import *  # noqa: F401,F403
from .environments import *  # noqa: F401,F403
from .analysis import *  # noqa: F401,F403
from .simulate import *  # noqa: F401,F403
from .trees import *  # noqa: F401,F403

__version__ = "0.1.0"

__all__ = [
    "__version__",
    *laws.__all__,
    *environments.__all__,
    *analysis.__all__,
    *simulate.__all__,
    *trees.__all__,
]
