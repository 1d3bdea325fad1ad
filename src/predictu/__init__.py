"""Predictiveness curves and the predictiveness U statistic.

Build discrete risk tables from population truth or case-control
counts, summarise them with U and competitor indices, convert exactly
to ROC and Lorenz views, attach uncertainty by asymptotics, bootstrap
or permutation, refit non-monotone curves isotonically, and evaluate
estimator quality on simulated multi-locus populations.

The package exports every name in its modules' ``__all__``.
"""

from . import (
    curve_links, errors, fileio, inference, isotonic, risk_model, simulate, summary_indices,
)
from .curve_links import *  # noqa: F403
from .errors import *  # noqa: F403
from .fileio import *  # noqa: F403
from .inference import *  # noqa: F403
from .isotonic import *  # noqa: F403
from .risk_model import *  # noqa: F403
from .simulate import *  # noqa: F403
from .summary_indices import *  # noqa: F403

__version__ = "0.1.0"

_MODULES = (errors, risk_model, summary_indices, curve_links, inference, isotonic, simulate, fileio)
__all__ = ["__version__", *(name for module in _MODULES for name in module.__all__)]
