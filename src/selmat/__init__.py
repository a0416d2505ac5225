"""Exact Selberg/Jack/Weingarten engine for operator-norm ball moments.

Subpackages by layer: `exact` (rationals, Gamma products), `combinat`
(partitions, characters, pair partitions), `selberg` and `jack` (closed-form
integrals), `moments` (ensemble moments, exact asymptotics), `weingarten`
(entry moments, covariance structure), `oracle` (quadrature and samplers),
`verify` (the acceptance suite), `cli` (the `selmat` command).

`exact`, `combinat`, `selberg` and `jack` execute on `import selmat`; every
other layer imports them.  `moments`, `weingarten`, `oracle` and `verify`
execute on first use: each is in `sys.modules` from the start and runs on
its first attribute access, so a one-shot `selmat` command compiles and runs
only the layers it calls.  Their names re-exported here resolve the same way.
"""

import importlib.util
import sys
import threading
import types

from .combinat import Partition, Permutation, partitions_of
from .exact import GammaProduct, PoleError, Rational, pochhammer, to_float
from .jack import SymPoly, jack_in_monomials, kadell_ratio, monomial_to_jack, principal_specialization
from .selberg import SelbergParams, aomoto_general_ratio, aomoto_ratio, selberg_I0

__version__ = "0.1.0"

DEFAULT_SEED = 20240801  # the default --seed of verify and of the sampling oracles

# Every first use runs under this lock.  importlib's LazyLoader resets the module's class
# to types.ModuleType before it executes the module and, on Python 3.10 and 3.11, takes no
# lock, so a second thread could read a layer still without attributes.
_FIRST_USE = threading.RLock()
_executing = set()  # id()s of the layers whose code runs now, on the thread holding the lock


def _execute(module) -> None:
    """Run a layer's code unless it has run, or runs now on this thread."""
    with _FIRST_USE:
        if type(module) is _OnFirstUse and id(module) not in _executing:
            _executing.add(id(module))
            try:
                types.ModuleType.__getattribute__(module, "__spec__").loader.exec_module(module)
            finally:
                _executing.discard(id(module))
            types.ModuleType.__setattr__(module, "__class__", types.ModuleType)


class _OnFirstUse(types.ModuleType):
    """A layer that has not executed: its first attribute read, write or delete executes it.

    A write made first would otherwise be overwritten when the code runs.
    Threads that touch it meanwhile wait for the lock; the class becomes
    types.ModuleType once the code has run.
    """

    def __getattribute__(self, attr):
        _execute(self)
        return types.ModuleType.__getattribute__(self, attr)

    def __setattr__(self, attr, value):
        _execute(self)
        types.ModuleType.__setattr__(self, attr, value)

    def __delattr__(self, attr):
        _execute(self)
        types.ModuleType.__delattr__(self, attr)


def _lazy(name: str):
    """The module `name`, put in sys.modules; it executes on its first attribute access."""
    module = importlib.util.module_from_spec(importlib.util.find_spec(name))
    module.__class__ = _OnFirstUse
    sys.modules[name] = module
    return module


moments = _lazy(__name__ + ".moments")
weingarten = _lazy(__name__ + ".weingarten")
oracle = _lazy(__name__ + ".oracle")
verify = _lazy(__name__ + ".verify")

# re-exported names -> their home layer, read by __getattr__ on first use
_ON_FIRST_USE = {
    **dict.fromkeys(("EnsembleSpec", "MomentReport", "ensemble", "ensemble_moments"), moments),
    **dict.fromkeys(
        ("CovarianceReport", "covariance_report", "wg_orthogonal", "wg_unitary"), weingarten
    ),
}


def __getattr__(name: str):
    if name in _ON_FIRST_USE:
        return getattr(_ON_FIRST_USE[name], name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *_ON_FIRST_USE})


__all__ = [
    "CovarianceReport",
    "EnsembleSpec",
    "GammaProduct",
    "MomentReport",
    "Partition",
    "Permutation",
    "PoleError",
    "Rational",
    "SelbergParams",
    "SymPoly",
    "aomoto_general_ratio",
    "aomoto_ratio",
    "covariance_report",
    "ensemble",
    "ensemble_moments",
    "jack_in_monomials",
    "kadell_ratio",
    "monomial_to_jack",
    "partitions_of",
    "pochhammer",
    "principal_specialization",
    "selberg_I0",
    "to_float",
    "wg_orthogonal",
    "wg_unitary",
    "__version__",
]
