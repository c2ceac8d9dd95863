"""Command-line surface: every operation, exact, scriptable.

Exit codes: 0 success; 1 internal error, or stdout closed before the
output was written (as by ``| head``), with nothing on stderr; 2 domain
error (bad argument ranges, malformed input); 3 not-coprime (no inverse
exists); 4 verification mismatch.
JSON output is deterministic — byte-identical for identical invocations —
except that verify reports carry wall time under a dedicated "timing" key.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from contextlib import contextmanager
from functools import partial
from itertools import compress

from .basephi import expand
from .bigfib import _fib_table, pisano
from .errors import (
    DomainError,
    InvalidRep,
    NotCoprime,
    PreconditionError,
    ZeckinvError,
)
from .inverse import inverse_closed, inverse_oracle
from .pattern import (
    _i0,
    _inverse_at,
    _pattern_text,
    _write_pattern,
    evaluate,
    load_pattern,
    matches_oracle,
    report_to_json_dict,
    synthesize,
    verify,
)
from .zeckendorf import decode, encode, from_bit_string, to_bit_string

__all__ = ["main"]

_WRITE_PIECE = 1 << 16  # characters per write of a long output

# Limits of verify --n-range.  A check at n costs about n^1.5 where verify
# decodes the whole representation, as below 8 full period blocks (a full
# window at the top took 20.9 s for a = 3125, M = 12500, 8 s of it
# synthesis).  Where it sums the blocks in closed form, [98001, 100000] took
# 5.5-6.4 s for a = 137 (M = 276) and 4.0-4.1 s for a = 1000 (M = 1500) in
# cold runs on a 2-vCPU host, against 11.9-12.8 s and 6.7-6.9 s decoding.
_VERIFY_N_MAX = 100_000
_VERIFY_WIDTH_MAX = 2_000

# Limit of pisano M.  The walk takes pi(M) <= 6M steps, 6M exactly at
# M = 2*5^k; the worst M under the limit, 2*5^10, ends in about 15 s.
_PISANO_M_MAX = 20_000_000

# Limit of basephi's common denominator D.  The walk takes about
# pi(D) <= 6D steps and keeps one byte per digit and one floor per distinct
# v, about a million floors at some 120 bytes each for the worst D under
# the limit, 2*5^8, which ends in about 4 s and 132 MB.
_BASEPHI_DEN_MAX = 1_000_000

# Limit of a for pattern, and for verify without --spec: both synthesize.
# The z table holds M characters for each of up to M admissible residues,
# M = pi(a) <= 6a; the worst a under the limit, 4802 = 2*7^4 with
# M = 16464 and 9604 residues, writes 158 MB of --json in about 22 s
# and 510 MB.
_PATTERN_A_MAX = 5_000

# Limit of inverse's n.  The closed form and the oracle build F_n and
# encode spells it greedily, in time quadratic in n; at the limit, with
# --method oracle or closed and --debug, a run ends in about 13 s and 43 MB.
_INVERSE_N_MAX = 500_000


def _print_json(obj: object) -> None:
    print(json.dumps(obj, sort_keys=True, indent=2))


@contextmanager
def _ints_in_full():
    """Lift the interpreter's int -> str digit limit (4,300 digits by
    default) while the CLI writes out its own results; argv and pattern
    files keep it.  Interpreters without the limit run the block as is."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)


def _print_rep(as_json: bool, value: int, rep, fields: dict, note: str) -> None:
    """Print ``value`` and its representation ``rep`` in full, at any size:
    as JSON with the extra ``fields``, or as text followed by ``note``."""
    bits = to_bit_string(rep)
    with _ints_in_full():
        if as_json:
            fields.update(value=value, indices=list(rep.indices), bits=bits)
            _print_json(fields)
        else:
            fsum = "+".join(f"F{i}" for i in rep.indices)
            idx = ",".join(str(i) for i in rep.indices)
            print(f"{value} = {fsum} (indices {idx}; bits {bits}){note}")


# --------------------------------------------------------------------------


def _synthesize_bounded(a: int):
    if a > _PATTERN_A_MAX:
        raise DomainError(f"a must be <= {_PATTERN_A_MAX}, got {a}")
    return synthesize(a)


def cmd_pattern(args: argparse.Namespace) -> int:
    spec = _synthesize_bounded(args.a)
    if args.out or args.json:
        text = _pattern_text(spec)
    if args.out:
        _write_pattern(text, args.out)
    if args.json:
        # In pieces: with an unbuffered stdout (python -u), a write that
        # the closed pipe cuts short returns its count and raises nothing,
        # so only a further write raises BrokenPipeError.
        for at in range(0, len(text), _WRITE_PIECE):
            sys.stdout.write(text[at : at + _WRITE_PIECE])
    else:
        print(
            f"a={spec.a} M={spec.M} ell={spec.ell} i0={spec.i0} "
            f"n0={spec.n0} tail_period={spec.tail_period}"
        )
        for r, zc in sorted(spec.z.items()):
            print(f"z[{r}]: b={zc.b} period={zc.period}")
        # F_(i0-1), ..., F_1: the weight of each character of a tail word.
        weights = _fib_table(spec.i0)[spec.i0 - 1 : 0 : -1]
        for c, word in sorted(spec.tail.items()):
            value = sum(compress(weights, map("1".__eq__, word)))
            print(f"tail[{c}]: {word} (={value})")
        inadm = ",".join(str(r) for r in sorted(spec.inadmissible))
        print(f"inadmissible residues mod {spec.M}: {inadm or 'none'}")
        if args.out:
            print(f"wrote {args.out}")
    return 0


def cmd_inverse(args: argparse.Namespace) -> int:
    a, n, method = args.a, args.n, args.method
    if n > _INVERSE_N_MAX:
        raise DomainError(f"n must be <= {_INVERSE_N_MAX}, got {n}")
    if method == "auto":
        # n0 = i0 + 1 depends on a alone; above i0 one orbit walk answers.
        method = "pattern" if a >= 2 and n > _i0(a) else "closed"
    if method == "pattern":
        rep = _inverse_at(a, n)
        value = decode(rep)
    else:
        value = (
            inverse_oracle(a, n) if method == "oracle" else inverse_closed(a, n).value
        )
        rep = encode(value)

    cross_checked = False
    if args.debug:
        oracle = inverse_oracle(a, n)
        if oracle != value:
            with _ints_in_full():
                print(
                    f"error: {method} value {value} != oracle {oracle}", file=sys.stderr
                )
            return 4
        cross_checked = True

    fields = {"a": a, "n": n, "method": method, "cross_checked": cross_checked}
    note = "  [cross-checked]" if cross_checked else ""
    _print_rep(args.json, value, rep, fields, note)
    return 0


def cmd_zeckendorf(args: argparse.Namespace) -> int:
    if args.decode is not None:
        rep = from_bit_string(args.decode)
        value = decode(rep)
    else:
        if args.n is None:
            raise DomainError("need an integer to encode or --decode BITS")
        value = args.n
        rep = encode(value)
    _print_rep(args.json, value, rep, {}, "")
    return 0


def cmd_basephi(args: argparse.Namespace) -> int:
    from .qphi import QPhi, parse_qphi
    x = parse_qphi(args.u)
    if args.v is not None:
        v = parse_qphi(args.v)
        if x.v or v.v:
            raise DomainError("u and v must be rationals when v is given")
        x = QPhi(x.u, v.u)
    den = math.lcm(x.u.denominator, x.v.denominator)
    if den > _BASEPHI_DEN_MAX:
        # Not named: den may be past the int/str conversion limit.
        raise DomainError(f"the common denominator must be <= {_BASEPHI_DEN_MAX}")
    bits = expand(x)
    if args.json:
        _print_json(
            {
                "u": str(x.u),
                "v": str(x.v),
                "pre": bits.preperiod,
                "period": bits.period,
            }
        )
    else:
        print(f"pre={bits.preperiod}| period={bits.period}")
    return 0


def cmd_pisano(args: argparse.Namespace) -> int:
    if args.m > _PISANO_M_MAX:
        raise DomainError(f"m must be <= {_PISANO_M_MAX}, got {args.m}")
    pi = pisano(args.m)
    if args.json:
        _print_json({"m": args.m, "pi": pi})
    else:
        print(pi)
    return 0


def _parse_range(text: str) -> tuple[int, int]:
    lo, sep, hi = text.partition("..")
    if not sep:
        raise DomainError(f"range must look like LO..HI, got {text!r}")
    try:
        return int(lo), int(hi)
    except ValueError as exc:
        raise DomainError(f"range must look like LO..HI, got {text!r}") from exc


def cmd_verify(args: argparse.Namespace) -> int:
    n_lo, n_hi = _parse_range(args.n_range)
    if n_hi > _VERIFY_N_MAX:
        raise DomainError(f"--n-range must end at n <= {_VERIFY_N_MAX}, got {n_hi}")
    if n_hi - n_lo >= _VERIFY_WIDTH_MAX:
        raise DomainError(
            f"--n-range may span at most {_VERIFY_WIDTH_MAX} values of n,"
            f" got {n_hi - n_lo + 1}"
        )
    if args.spec:
        spec = load_pattern(args.spec)
        if spec.a != args.a:
            raise DomainError(f"spec file is for a={spec.a}, not a={args.a}")
    else:
        spec = _synthesize_bounded(args.a)
    report = verify(spec, n_lo, n_hi)
    if args.json:
        _print_json(report_to_json_dict(report))
    else:
        print(
            f"a={report.a} range=[{report.n_lo},{report.n_hi}] "
            f"checked={report.checked} mismatches={report.mismatches} "
            f"elapsed={report.elapsed_s:.3f}s"
        )
        if report.first_mismatch is not None:
            fm = report.first_mismatch
            print(f"first mismatch at n={fm.n}: expected {fm.expected}, got {fm.got}")
    return 4 if report.mismatches else 0


def _a2_expected_indices(n: int) -> list[int]:
    """The displayed closed form for a = 2: an arithmetic progression of
    step 3 from n-2, plus a constant bottom index (corrected limits)."""
    if n % 3 == 1:
        top = [n - 2 - 3 * k for k in range((n - 7) // 3 + 1)]
        return top + [3]
    if n % 3 == 2:
        top = [n - 2 - 3 * k for k in range((n - 8) // 3 + 1)]
        return top + [4]
    raise DomainError(f"n = {n} is not admissible for a = 2")


def cmd_paper_check(args: argparse.Namespace) -> int:
    """Built-in a = 2 regression: evaluate vs oracle vs displayed closed form."""
    spec = synthesize(2)
    failures = []
    checked = 0
    for n in range(8, 301):
        if n % 3 == 0:
            continue
        checked += 1
        got = evaluate(spec, n)
        closed = _a2_expected_indices(n)
        if not matches_oracle(got, 2, n) or list(got.indices) != closed:
            failures.append(n)
    if args.json:
        _print_json(
            {"a": 2, "n_lo": 8, "n_hi": 300, "checked": checked, "failures": failures}
        )
    else:
        if failures:
            print(f"FAIL: {len(failures)} of {checked} values mismatched: {failures[:10]}")
        else:
            print(f"OK: all {checked} admissible n in [8, 300] match")
    return 4 if failures else 0


# --------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="zeckinv",
        description=(
            "Exact periodic structure of the Zeckendorf representation "
            "of (a^-1 mod F_n)."
        ),
    )
    parser.add_argument(
        "--debug",
        action="store_true",
        help="cross-check inverse results against the big-integer oracle",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    json_flag = argparse.ArgumentParser(add_help=False)
    json_flag.add_argument("--json", action="store_true")
    add_command = partial(sub.add_parser, parents=[json_flag])

    p = add_command("pattern", help="synthesize the periodic pattern for a")
    p.add_argument("a", type=int, help=f"at most {_PATTERN_A_MAX}")
    p.add_argument("--out", metavar="FILE", help="also save the pattern as JSON")
    p.set_defaults(func=cmd_pattern)

    p = add_command("inverse", help="compute (a^-1 mod F_n)")
    p.add_argument("a", type=int)
    p.add_argument("n", type=int, help=f"at most {_INVERSE_N_MAX}")
    p.add_argument(
        "--method",
        choices=("auto", "pattern", "closed", "oracle"),
        default="auto",
    )
    p.set_defaults(func=cmd_inverse)

    p = add_command("zeckendorf", help="encode an integer / decode a bit word")
    p.add_argument("n", type=int, nargs="?")
    p.add_argument("--decode", metavar="BITS", help="bit word, positions down to 2")
    p.set_defaults(func=cmd_zeckendorf)

    p = add_command(
        "basephi",
        help="digit expansion of u + v*phi in [0, 1)"
        f" (common denominator <= {_BASEPHI_DEN_MAX})",
    )
    p.add_argument("u", help="rational u (e.g. 1/2), or a 'u + v*phi' literal")
    p.add_argument("v", nargs="?", help="rational v (default 0)")
    p.set_defaults(func=cmd_basephi)

    p = add_command("pisano", help="period of the Fibonacci sequence mod m")
    p.add_argument("m", type=int, help=f"modulus, at most {_PISANO_M_MAX}")
    p.set_defaults(func=cmd_pisano)

    p = add_command("verify", help="sweep evaluate against the oracle")
    p.add_argument("a", type=int, help=f"at most {_PATTERN_A_MAX} without --spec")
    p.add_argument(
        "--n-range",
        required=True,
        metavar="LO..HI",
        help=f"HI <= {_VERIFY_N_MAX} and at most {_VERIFY_WIDTH_MAX} values of n",
    )
    p.add_argument("--spec", metavar="FILE", help="load pattern instead of synthesizing")
    p.set_defaults(func=cmd_verify)

    p = add_command(
        "paper-check", help="built-in a = 2 regression sweep (n in [8, 300])"
    )
    p.set_defaults(func=cmd_paper_check)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader closed stdout early.  Point stdout at devnull, so that
        # the interpreter's own flush at exit cannot fail a second time.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except NotCoprime as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (DomainError, InvalidRep, PreconditionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ZeckinvError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
