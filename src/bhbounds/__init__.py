"""Constant schemes for the real coefficient-norm inequality of m-linear
forms, plus exact-enumeration verification of the inequalities behind them.

The public names are each module's ``__all__``, all importable from here.
``constants``, ``exponents`` and ``khinchine`` need only the standard
library and load with the package.  ``forms`` and ``verify`` import numpy,
so each loads on first use: a first reference to it, or to one of its
public names.  ``verify`` imports ``forms`` and numpy.random; a ``forms``
name loads ``forms`` alone.  Each ends by calling ``_bind``, so once
either is imported, by whatever route, the package holds its public names.
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
        # forms first, so that one of its names never loads verify.
        for module in map(__getattr__, _LAZY):
            if name in module.__all__:
                return getattr(module, name)
        if name == "__all__":  # the loop above imported forms and verify
            modules = (constants, exponents, forms, khinchine, verify)
            return [public for module in modules for public in module.__all__]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__getattr__("__all__")})
