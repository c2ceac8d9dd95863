"""zeckinv: exact periodic structure of Zeckendorf representations of
(a^-1 mod F_n).

For fixed a >= 2, synthesize() computes a complete finite description —
Pisano period, per-residue digit periods, and a periodic tail table — from
which evaluate() reads off the Zeckendorf representation of the modular
inverse for any admissible n by index arithmetic alone, and verify()
checks the whole construction against an independent brute-force oracle.
"""

from .basephi import (
    EventuallyPeriodicBits,
    digit_at,
    eval_closed_form,
    expand,
    splice_check,
    zeckendorf_from_phi,
)
from .bigfib import fib, fib_mod, fib_pair, mod_inverse, pisano
from .errors import (
    DomainError,
    InternalInvariantViolation,
    InvalidRep,
    NotCoprime,
    PreconditionError,
    SynthesisError,
    ZeckinvError,
)
from .inverse import InverseResult, inverse_closed, inverse_oracle
from .pattern import (
    MismatchDetail,
    PatternSpec,
    VerificationReport,
    ZClass,
    evaluate,
    from_json_dict,
    load_pattern,
    matches_oracle,
    report_to_json_dict,
    save_pattern,
    splice_value,
    synthesize,
    to_json_dict,
    verify,
)
from .zeckendorf import (
    ZeckendorfRep,
    decode,
    encode,
    from_bit_string,
    normalize_index_one,
    to_bit_string,
)

__version__ = "0.1.0"

_QPHI_NAMES = frozenset({"PHI", "QPhi", "parse_qphi", "phi_pow", "sqrt5"})


def __getattr__(name: str):
    """The ``qphi`` names, imported on first use (PEP 562): synthesis,
    evaluation and verification never compute in Q(phi)."""
    if name in _QPHI_NAMES:
        from . import qphi
        return getattr(qphi, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(globals().keys() | _QPHI_NAMES)


# Always False: all code is pure Python; perfbench kernel_info() still records it.
USING_COMPILED_KERNEL = False

__all__ = [
    "__version__",
    "USING_COMPILED_KERNEL",
    # errors
    "ZeckinvError",
    "DomainError",
    "NotCoprime",
    "InvalidRep",
    "PreconditionError",
    "SynthesisError",
    "InternalInvariantViolation",
    # bigfib
    "fib",
    "fib_pair",
    "fib_mod",
    "pisano",
    "mod_inverse",
    # zeckendorf
    "ZeckendorfRep",
    "encode",
    "decode",
    "normalize_index_one",
    "to_bit_string",
    "from_bit_string",
    # qphi
    "QPhi",
    "PHI",
    "phi_pow",
    "sqrt5",
    "parse_qphi",
    # basephi
    "EventuallyPeriodicBits",
    "expand",
    "eval_closed_form",
    "digit_at",
    "zeckendorf_from_phi",
    "splice_check",
    # inverse
    "InverseResult",
    "inverse_closed",
    "inverse_oracle",
    # pattern
    "ZClass",
    "PatternSpec",
    "VerificationReport",
    "MismatchDetail",
    "synthesize",
    "evaluate",
    "matches_oracle",
    "verify",
    "splice_value",
    "save_pattern",
    "load_pattern",
    "to_json_dict",
    "from_json_dict",
    "report_to_json_dict",
]
