"""Constant schemes for the real coefficient-norm inequality of m-linear
forms, plus exact-enumeration verification of the inequalities behind them.

The public names are each module's ``__all__``, all importable from here.
``constants``, ``exponents`` and ``khinchine`` need only the standard
library and load with the package.  ``forms`` and ``verify`` import numpy,
so they load on first use: a first reference to either module, or to a
public name the other three lack.  Each ends by calling ``_bind``, so from
the moment either is imported, by whatever route, the package holds all
of its public names.
"""

import importlib

from . import constants, exponents, khinchine
from .constants import *
from .exponents import *
from .khinchine import *

__version__ = "0.1.0"

_LAZY = ("forms", "verify")


def _bind(namespace):
    """Bind here every name in the ``__all__`` of a lazy module's namespace."""
    globals().update({name: namespace[name] for name in namespace["__all__"]})


def __getattr__(name):
    if name in _LAZY:
        return importlib.import_module(f".{name}", __name__)
    # No private name is public, and `from bhbounds import cli` asks here
    # for `cli` before importing it: neither loads numpy.
    if name == "__all__" or not (name.startswith("_") or name == "cli"):
        forms, verify = map(__getattr__, _LAZY)
        if name == "__all__":
            modules = (constants, exponents, forms, khinchine, verify)
            return [public for module in modules for public in module.__all__]
        if name in globals():
            return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__getattr__("__all__")})
