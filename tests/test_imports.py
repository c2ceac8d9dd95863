"""The package's import footprint and its public names."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import zeckinv

SRC = str(Path(zeckinv.__file__).resolve().parent.parent)

# The layers whose functions perfbench's tracer wraps: it reads them from
# sys.modules right after ``import zeckinv.cli``, so that import loads them.
TRACED_LAYERS = ("bigfib", "basephi", "zeckendorf", "inverse", "pattern")


def _fresh(code: str) -> object:
    """The JSON that ``code`` prints, run in a new interpreter on ``SRC``."""
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=SRC + (os.pathsep + path if path else ""))
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_cli_import_loads_the_traced_layers_and_no_qphi():
    added, basephi_names, dataclasses_ = _fresh(
        "import dataclasses, json, sys\n"
        "before = set(sys.modules)\n"
        "import zeckinv.cli\n"
        "ours = [m for k, m in sys.modules.items() if k.startswith('zeckinv.')]\n"
        "found = {f'{v.__module__}.{v.__qualname__}' for m in ours for v in vars(m).values()\n"
        "         if isinstance(v, type) and dataclasses.is_dataclass(v)}\n"
        "print(json.dumps([sorted(set(sys.modules) - before),\n"
        "                  sorted(vars(sys.modules['zeckinv.basephi'])), sorted(found)]))\n"
    )
    for name in ("zeckinv.qphi", "fractions", "decimal"):
        assert name not in added
    for layer in TRACED_LAYERS:
        assert f"zeckinv.{layer}" in added
    # The oracles are compiled with qphi, not on every import.
    for name in ("eval_closed_form", "digit_at", "zeckendorf_from_phi", "splice_check"):
        assert name not in basephi_names
    # Applying @dataclass costs about 1 ms per class at import.  PatternSpec
    # stays one because callers build variants with dataclasses.replace.
    assert dataclasses_ == ["zeckinv.pattern.PatternSpec"]


def test_reading_a_qphi_name_loads_qphi():
    # One new interpreter per name, so that each read is the first.
    for name in zeckinv._QPHI_NAMES:
        assert _fresh(
            "import json, sys, zeckinv\n"
            "loaded = ['zeckinv.qphi' in sys.modules]\n"
            f"obj = zeckinv.{name}\n"
            "loaded.append('zeckinv.qphi' in sys.modules)\n"
            f"loaded.append(obj is sys.modules['zeckinv.qphi'].{name})\n"
            "print(json.dumps(loaded))\n"
        ) == [False, True, True], name


def test_every_public_name_is_listed_and_served():
    assert set(dir(zeckinv)) >= set(zeckinv.__all__)
    namespace: dict = {}
    exec("from zeckinv import *", namespace)
    for name in zeckinv.__all__:
        assert getattr(zeckinv, name) is namespace[name]
    assert zeckinv.sqrt5 is zeckinv.qphi.sqrt5
    with pytest.raises(AttributeError, match="no_such_name"):
        zeckinv.no_such_name


def test_public_names_are_pinned():
    # The package republishes each module's ``__all__``, so a name added to
    # one of those lists would silently grow the package's API.
    assert sorted(zeckinv.__all__) == [
        "DomainError",
        "EventuallyPeriodicBits",
        "InternalInvariantViolation",
        "InvalidRep",
        "InverseResult",
        "MismatchDetail",
        "NotCoprime",
        "PHI",
        "PatternSpec",
        "PreconditionError",
        "QPhi",
        "SynthesisError",
        "USING_COMPILED_KERNEL",
        "VerificationReport",
        "ZClass",
        "ZeckendorfRep",
        "ZeckinvError",
        "__version__",
        "decode",
        "digit_at",
        "encode",
        "eval_closed_form",
        "evaluate",
        "expand",
        "fib",
        "fib_mod",
        "fib_pair",
        "from_bit_string",
        "from_json_dict",
        "inverse_closed",
        "inverse_oracle",
        "load_pattern",
        "matches_oracle",
        "mod_inverse",
        "normalize_index_one",
        "parse_qphi",
        "phi_pow",
        "pisano",
        "report_to_json_dict",
        "save_pattern",
        "splice_check",
        "splice_value",
        "sqrt5",
        "synthesize",
        "to_bit_string",
        "to_json_dict",
        "verify",
        "zeckendorf_from_phi",
    ]
