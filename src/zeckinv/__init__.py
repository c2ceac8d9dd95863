"""zeckinv: exact periodic structure of Zeckendorf representations of
(a^-1 mod F_n).

For fixed a >= 2, synthesize() computes a complete finite description —
Pisano period, per-residue digit periods, and a periodic tail table — from
which evaluate() reads off the Zeckendorf representation of the modular
inverse for any admissible n by index arithmetic alone, and verify()
checks the whole construction against an independent brute-force oracle.

Each public name is listed once, in its module's ``__all__``; this module
republishes those lists.
"""

from . import basephi, bigfib, errors, inverse, pattern, zeckendorf
from .basephi import *
from .bigfib import *
from .errors import *
from .inverse import *
from .pattern import *
from .zeckendorf import *

__version__ = "0.1.0"

# The public names of ``qphi``, which is imported on first use: the field
# itself and the base-phi oracles that compute in it.
_QPHI_NAMES = (
    "QPhi", "PHI", "phi_pow", "sqrt5", "parse_qphi",
    "eval_closed_form", "digit_at", "zeckendorf_from_phi", "splice_check",
)


def __getattr__(name: str):
    """The ``qphi`` names, imported on first use (PEP 562): synthesis,
    evaluation and verification never compute in Q(phi)."""
    if name in _QPHI_NAMES:
        from . import qphi
        return getattr(qphi, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(globals().keys() | set(_QPHI_NAMES))


# Always False: all code is pure Python; perfbench kernel_info() still records it.
USING_COMPILED_KERNEL = False

__all__ = [
    "__version__",
    "USING_COMPILED_KERNEL",
    *errors.__all__,
    *bigfib.__all__,
    *zeckendorf.__all__,
    *_QPHI_NAMES,
    *basephi.__all__,
    *inverse.__all__,
    *pattern.__all__,
]
