"""Constant schemes for the real coefficient-norm inequality of m-linear
forms, plus exact-enumeration verification of the inequalities behind them.

The public names are each module's ``__all__``, all importable from here.
"""

from .constants import *
from .exponents import *
from .forms import *
from .khinchine import *
from .verify import *

__version__ = "0.1.0"
