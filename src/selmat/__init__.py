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

from .combinat import Partition, Permutation, partitions_of
from .exact import GammaProduct, PoleError, Rational, pochhammer, to_float
from .jack import SymPoly, jack_in_monomials, kadell_ratio, monomial_to_jack, principal_specialization
from .selberg import SelbergParams, aomoto_general_ratio, aomoto_ratio, selberg_I0

__version__ = "0.1.0"

DEFAULT_SEED = 20240801  # the default --seed of verify and of the sampling oracles


def _lazy(name: str):
    """The module `name`, put in sys.modules; it executes on its first attribute access."""
    spec = importlib.util.find_spec(name)
    loader = importlib.util.LazyLoader(spec.loader)
    spec.loader = loader
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    loader.exec_module(module)
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
