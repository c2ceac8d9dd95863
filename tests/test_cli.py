"""End-to-end tests of the command line interface (golden outputs, exit codes)."""

import contextlib
import dataclasses
import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

import zeckinv.cli
import zeckinv.bigfib
import zeckinv.pattern
from zeckinv import (
    QPhi,
    decode,
    encode,
    expand,
    from_bit_string,
    from_json_dict,
    InverseResult,
    inverse_oracle,
    load_pattern,
    save_pattern,
    synthesize,
    to_json_dict,
    VerificationReport,
)
from zeckinv.cli import main
from zeckinv.pattern import _pattern_text


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


# --- goldens -------------------------------------------------------------------


def test_pisano(capsys):
    code, out = run(capsys, "pisano", "10")
    assert code == 0
    assert out == "60\n"


def test_inverse_text(capsys):
    code, out = run(capsys, "inverse", "2", "8")
    assert code == 0
    assert out == "11 = F6+F4 (indices 6,4; bits 10100)\n"
    code, out = run(capsys, "inverse", "3", "5")
    assert code == 0
    assert out.startswith("2 = F3 ")


def test_inverse_methods_agree(capsys):
    values = set()
    for method in ("auto", "pattern", "closed", "oracle"):
        code, out = run(capsys, "inverse", "7", "41", "--method", method)
        assert code == 0
        values.add(out)
    assert len(values) == 1


def test_inverse_closed_at_huge_a_skips_the_pisano_walk(capsys, monkeypatch):
    # A walk of pi(a) steps at this a takes far longer than a test may run;
    # with the walk patched to raise, a regression fails instead of hanging.
    def no_pisano_walk(m):
        raise AssertionError(f"fib_residues({m}) called")

    monkeypatch.setattr(zeckinv.bigfib, "fib_residues", no_pisano_walk)
    a = 1000000000039
    code, out = run(capsys, "inverse", str(a), "100", "--method", "closed", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["value"] == inverse_oracle(a, 100)
    assert data["method"] == "closed"


def _no_synthesis(a):
    raise AssertionError(f"synthesize({a}) called")


@pytest.mark.parametrize("a, n", [(1000000000039, 100), (1548008755920, 199)])
def test_inverse_auto_at_huge_a_walks_one_orbit(capsys, monkeypatch, a, n):
    # Neither a synthesis nor a Pisano walk (pi(a) steps at these a) may
    # run; n > i0, so the answer still comes from the pattern.
    def no_pisano_walk(m):
        raise AssertionError(f"fib_residues({m}) called")

    monkeypatch.setattr(zeckinv.cli, "synthesize", _no_synthesis)
    monkeypatch.setattr(zeckinv.pattern, "fib_residues", no_pisano_walk)
    code, out = run(capsys, "inverse", str(a), str(n), "--json")
    assert code == 0
    data = json.loads(out)
    assert data["method"] == "pattern"
    assert data["value"] == inverse_oracle(a, n)


def test_inverse_below_n0_does_not_synthesize(capsys, monkeypatch):
    # n0 = i0 + 1 = 15 for a = 100 depends on a alone: below it, auto
    # answers by the closed form and --method pattern is refused, both
    # without a synthesis.
    monkeypatch.setattr(zeckinv.cli, "synthesize", _no_synthesis)
    for n in (7, 14):  # admissible, <= i0 = 14
        code, out = run(capsys, "inverse", "100", str(n), "--json")
        assert code == 0
        data = json.loads(out)
        assert data["method"] == "closed"
        assert data["value"] == inverse_oracle(100, n)
    code = main(["inverse", "100", "14", "--method", "pattern"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


def test_inverse_pattern_serves_n_below_the_pisano_period(capsys):
    # a = 1000 has M = 1500 and i0 = 19, so n = 101 is served by the
    # pattern, well below M + 4.
    code, out = run(capsys, "inverse", "1000", "101", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["method"] == "pattern"
    assert data["value"] == inverse_oracle(1000, 101)


def test_inverse_json(capsys):
    code, out = run(capsys, "inverse", "2", "8", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["value"] == 11
    assert data["indices"] == [6, 4]


def test_zeckendorf_encode_decode(capsys):
    code, out = run(capsys, "zeckendorf", "54")
    assert code == 0
    assert out == "54 = F9+F7+F5+F3 (indices 9,7,5,3; bits 10101010)\n"
    code, out2 = run(capsys, "zeckendorf", "--decode", "10101010")
    assert code == 0
    assert out2 == out


def test_basephi(capsys):
    code, out = run(capsys, "basephi", "1/2")
    assert code == 0
    assert out == "pre=| period=010\n"
    code, out = run(capsys, "basephi", "0")
    assert (code, out) == (0, "pre=| period=0\n")
    code, out = run(capsys, "basephi", "-1", "1")  # phi - 1
    assert (code, out) == (0, "pre=1| period=0\n")


def test_pattern_text(capsys):
    code, out = run(capsys, "pattern", "2")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "a=2 M=3 ell=3 i0=6 n0=7 tail_period=3"
    assert "z[1]: b=1 period=010" in lines
    assert "z[2]: b=1 period=010" in lines
    assert "tail[1]: 10100 (=7)" in lines
    assert "tail[2]: 01000 (=3)" in lines
    assert "inadmissible residues mod 3: 0" in lines


def test_pattern_json_deterministic(capsys):
    code, out1 = run(capsys, "pattern", "2", "--json")
    assert code == 0
    code, out2 = run(capsys, "pattern", "2", "--json")
    assert out1 == out2
    assert from_json_dict(json.loads(out1)) == synthesize(2)


def test_pattern_out_file(tmp_path, capsys):
    path = tmp_path / "p7.json"
    code, _ = run(capsys, "pattern", "7", "--out", str(path))
    assert code == 0
    assert load_pattern(str(path)) == synthesize(7)


def test_pattern_json_prints_the_file_bytes(tmp_path, capsys):
    path = tmp_path / "p30.json"
    code, out = run(capsys, "pattern", "30", "--json", "--out", str(path))
    assert code == 0
    text = json.dumps(to_json_dict(synthesize(30)), sort_keys=True, indent=2) + "\n"
    assert out.encode() == path.read_bytes() == text.encode()


def test_pattern_json_out_over_a_longer_file_builds_the_text_once(
    tmp_path, capsys, monkeypatch
):
    path = tmp_path / "p.json"
    assert main(["pattern", "100", "--out", str(path)]) == 0
    capsys.readouterr()
    built = []

    def counting(spec):
        built.append(spec.a)
        return _pattern_text(spec)

    monkeypatch.setattr(zeckinv.cli, "_pattern_text", counting)
    monkeypatch.setattr(zeckinv.pattern, "_pattern_text", counting)
    code, out = run(capsys, "pattern", "30", "--json", "--out", str(path))
    assert code == 0
    assert out.encode() == path.read_bytes() == _pattern_text(synthesize(30)).encode()
    assert built == [30]


@pytest.mark.parametrize("where", ["missing-directory", "directory"])
def test_pattern_out_unwritable(tmp_path, capsys, where):
    path = tmp_path / "absent" / "p.json" if where == "missing-directory" else tmp_path
    code = main(["pattern", "2", "--out", str(path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert "cannot write pattern file" in captured.err


def test_verify_text(capsys):
    code, out = run(capsys, "verify", "2", "--n-range", "8..100")
    assert code == 0
    assert "checked=62 mismatches=0" in out


def test_verify_json_stable_without_timing(capsys):
    code, out1 = run(capsys, "verify", "2", "--n-range", "8..60", "--json")
    assert code == 0
    code, out2 = run(capsys, "verify", "2", "--n-range", "8..60", "--json")
    d1, d2 = json.loads(out1), json.loads(out2)
    assert "elapsed_s" in d1.pop("timing")
    d2.pop("timing")
    assert d1 == d2
    assert d1["checked"] == 35 and d1["mismatches"] == 0


def test_verify_spec_file(tmp_path, capsys):
    path = tmp_path / "p2.json"
    save_pattern(synthesize(2), str(path))
    code, out = run(capsys, "verify", "2", "--n-range", "8..40", "--spec", str(path))
    assert code == 0
    # Spec file for a different a is rejected up front.
    code, _ = run(capsys, "verify", "3", "--n-range", "10..20", "--spec", str(path))
    assert code == 2


@pytest.mark.parametrize(
    "content",
    [None, "not json", b"\xff\xfe", "[" * 100000, '{"a": 1' + "0" * 5000 + "}"],
    ids=["missing", "not-json", "not-utf8", "deep-nesting", "int-too-long"],
)
def test_verify_spec_file_unreadable(tmp_path, capsys, content):
    path = tmp_path / "p2.json"
    if isinstance(content, str):
        path.write_text(content)
    elif content is not None:
        path.write_bytes(content)
    code = main(["verify", "2", "--n-range", "8..20", "--spec", str(path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


def test_verify_detects_wrong_content(tmp_path, capsys, monkeypatch):
    good = synthesize(2)
    # Junction-safe but the wrong value; a file never loads with it, so
    # hand the damaged spec to verify through synthesis.
    bad = dataclasses.replace(good, tail={1: "00100", 2: good.tail[2]})
    monkeypatch.setattr(zeckinv.cli, "synthesize", lambda a: bad)
    code, out = run(capsys, "verify", "2", "--n-range", "8..40")
    assert code == 4
    assert "first mismatch at n=10" in out
    # The same data in a pattern file is refused on load.
    path = tmp_path / "bad.json"
    save_pattern(bad, str(path))
    code = main(["verify", "2", "--n-range", "8..40", "--spec", str(path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert "field 'tail'" in captured.err


def test_verify_refuses_file_with_wrong_n0(tmp_path, capsys):
    data = to_json_dict(synthesize(2))
    data["n0"] = 10**40
    path = tmp_path / "n0.json"
    path.write_text(json.dumps(data))
    code = main(["verify", "2", "--n-range", "8..20", "--spec", str(path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert "field 'n0'" in captured.err


def test_paper_check(capsys):
    code, out = run(capsys, "paper-check")
    assert code == 0
    assert "OK" in out and "195" in out


def test_pisano_json(capsys):
    code, out = run(capsys, "pisano", "10", "--json")
    assert (code, json.loads(out)) == (0, {"m": 10, "pi": 60})


def test_basephi_literal_and_json(capsys):
    code, out = run(capsys, "basephi", "phi - 1")
    assert (code, out) == (0, "pre=1| period=0\n")
    code, out = run(capsys, "basephi", "1/2", "--json")
    assert code == 0
    assert json.loads(out) == {"u": "1/2", "v": "0", "pre": "", "period": "010"}


def test_basephi_oversized_input_exits_2_with_one_line_at_once(capsys):
    # A coefficient past int/str's digit limit, exponent forms whose value
    # would take seconds to build, a common denominator too long to print,
    # and a phi term where a rational is due: each is one error line, at once.
    long = "7" * 5000
    for argv in (
        ["basephi", f"1/{long}*phi"],
        ["basephi", "0", f"1/{long}"],
        ["basephi", "1e-1000000"],
        ["basephi", "1e3000000"],
        ["basephi", "1e-30000000"],
        ["basephi", f"1/1{'0' * 3999}1 + 1/{'7' * 4000}*phi"],
        ["basephi", "phi", "1"],
    ):
        start = time.perf_counter()
        assert main(argv) == 2
        assert time.perf_counter() - start < 1, argv[1][:20]
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err[:100]


def test_paper_check_failure(capsys, monkeypatch):
    # A wrong representation for every n: both forms report every
    # admissible n in [8, 300] and exit 4.
    real = zeckinv.cli.evaluate
    monkeypatch.setattr(
        zeckinv.cli, "evaluate", lambda spec, n: encode(decode(real(spec, n)) + 1)
    )
    code, out = run(capsys, "paper-check")
    assert code == 4
    assert out.startswith("FAIL: 195 of 195 values mismatched: [8, 10, 11, 13, ")
    code, out = run(capsys, "paper-check", "--json")
    assert code == 4
    failures = json.loads(out)["failures"]
    assert failures == [n for n in range(8, 301) if n % 3]


# --- exit codes ------------------------------------------------------------------


def test_exit_code_malformed_range_and_missing_argument(capsys):
    for n_range in ("8-9", "8..x"):
        code = main(["verify", "2", "--n-range", n_range])
        assert code == 2
        assert "range must look like LO..HI" in capsys.readouterr().err
    code = main(["zeckendorf"])
    captured = capsys.readouterr()
    assert code == 2
    assert "need an integer" in captured.err


def test_verify_range_limits_exit_2_before_any_work(capsys, monkeypatch):
    # Past either limit the command exits 2 with one error line before it
    # synthesizes or verifies; at the limits it goes on to verify, which
    # is stubbed here so that no window at the limit runs.
    calls = []

    def stub_verify(spec, n_lo, n_hi):
        calls.append((n_lo, n_hi))
        return VerificationReport(spec.a, n_lo, n_hi, 0, 0, None, 0.0)

    top, width = zeckinv.cli._VERIFY_N_MAX, zeckinv.cli._VERIFY_WIDTH_MAX
    monkeypatch.setattr(zeckinv.cli, "verify", stub_verify)
    monkeypatch.setattr(zeckinv.cli, "synthesize", _no_synthesis)
    for n_range in (f"8..{top + 1}", "8..100000000000", f"8..{8 + width}"):
        assert main(["verify", "2", "--n-range", n_range]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: --n-range ") and err.count("\n") == 1, err
    monkeypatch.setattr(zeckinv.cli, "synthesize", synthesize)
    for lo, hi in ((top - width + 1, top), (8, 7 + width)):
        assert main(["verify", "2", "--n-range", f"{lo}..{hi}"]) == 0
    assert calls == [(top - width + 1, top), (8, 7 + width)]
    capsys.readouterr()


def test_pisano_and_basephi_limits_exit_2_before_any_work(capsys, monkeypatch):
    # Past the limit on pisano's m or on basephi's common denominator the
    # command exits 2 with one error line before it walks; at the limit it
    # goes on to the walk, which is stubbed so that none runs at the limit.
    calls = []
    monkeypatch.setattr(zeckinv.cli, "pisano", lambda m: calls.append(m) or 1)
    monkeypatch.setattr(
        zeckinv.cli, "expand", lambda x: calls.append(x) or expand(Fraction(1, 2))
    )
    m_max, den_max = zeckinv.cli._PISANO_M_MAX, zeckinv.cli._BASEPHI_DEN_MAX
    past = [
        (["pisano", str(m_max + 1)], "error: m must be <= "),
        (["pisano", "1000000007"], "error: m must be <= "),
        (["basephi", f"1/{den_max + 1}"], "error: the common denominator "),
        (["basephi", "1/1000000007"], "error: the common denominator "),
        (["basephi", "0", f"1/{den_max + 1}"], "error: the common denominator "),
        # lcm(3, den_max) is past the limit though each denominator is not
        (["basephi", f"1/3 + 1/{den_max}*phi"], "error: the common denominator "),
    ]
    for argv, head in past:
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(head) and err.count("\n") == 1, err
    assert calls == []
    assert main(["pisano", str(m_max)]) == 0
    assert main(["basephi", f"1/{den_max}"]) == 0
    assert main(["basephi", "0", f"1/{den_max}"]) == 0
    assert calls == [m_max, QPhi(Fraction(1, den_max)), QPhi(0, Fraction(1, den_max))]
    capsys.readouterr()


def test_pattern_verify_and_inverse_limits_exit_2_before_any_work(capsys, monkeypatch):
    # Past the limit on a (pattern, verify without --spec) or on inverse's
    # n the command exits 2 with one error line before it walks; at the
    # limit it goes on to the work, which is stubbed so that none runs.
    calls = []
    small = synthesize(2)
    rep = encode(11)

    def stub(name, result):
        return lambda *args: calls.append((name, *args)) or result

    monkeypatch.setattr(zeckinv.cli, "synthesize", stub("synthesize", small))
    monkeypatch.setattr(
        zeckinv.cli,
        "verify",
        lambda spec, lo, hi: VerificationReport(spec.a, lo, hi, 0, 0, None, 0.0),
    )
    monkeypatch.setattr(zeckinv.cli, "_inverse_at", stub("_inverse_at", rep))
    monkeypatch.setattr(
        zeckinv.cli, "inverse_closed", stub("inverse_closed", InverseResult(2, 8, 11, 1))
    )
    monkeypatch.setattr(zeckinv.cli, "inverse_oracle", stub("inverse_oracle", 11))
    monkeypatch.setattr(zeckinv.cli, "encode", stub("encode", rep))
    a_max, n_max = zeckinv.cli._PATTERN_A_MAX, zeckinv.cli._INVERSE_N_MAX
    past = [
        (["pattern", str(a_max + 1)], "error: a must be <= "),
        (["pattern", "1000000007"], "error: a must be <= "),
        (["verify", str(a_max + 1), "--n-range", "8..100"], "error: a must be <= "),
        (["inverse", "7", str(n_max + 1)], "error: n must be <= "),
        (["--debug", "inverse", "2", "100000000000", "--method", "closed"],
         "error: n must be <= "),
        (["inverse", "1000000000039", str(n_max + 1), "--method", "oracle"],
         "error: n must be <= "),
    ]
    for argv, head in past:
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(head) and err.count("\n") == 1, err
    assert calls == []
    assert main(["pattern", str(a_max)]) == 0
    assert main(["verify", str(a_max), "--n-range", "8..100"]) == 0
    assert main(["inverse", "7", str(n_max)]) == 0
    assert main(["--debug", "inverse", "7", str(n_max), "--method", "closed"]) == 0
    assert calls == [
        ("synthesize", a_max),
        ("synthesize", a_max),
        ("_inverse_at", 7, n_max),
        ("inverse_closed", 7, n_max),
        ("encode", 11),
        ("inverse_oracle", 7, n_max),
    ]
    capsys.readouterr()


def _close_stdout_after(argv, head, **env_vars):
    """Run the CLI with ``argv`` and the extra environment ``env_vars``,
    read 10 bytes of its stdout, which must be ``head``, close the pipe,
    and return the exit code and stderr."""
    src = str(Path(zeckinv.cli.__file__).resolve().parent.parent)
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
    env.update(env_vars)
    proc = subprocess.Popen(
        [sys.executable, "-m", "zeckinv.cli", *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )
    try:
        assert proc.stdout.read(10) == head
        proc.stdout.close()
        _, err = proc.communicate(timeout=60)
    finally:
        proc.kill()
    return proc.returncode, err


def test_closed_stdout_exits_1_with_empty_stderr():
    # 142 KB of JSON: the pipe fills, the reader takes 10 bytes and
    # closes it, and the next write fails with EPIPE.
    argv = ["inverse", "2", "30001", "--json"]
    assert _close_stdout_after(argv, b'{\n  "a": 2') == (1, b"")


@pytest.mark.parametrize("unbuffered", ["", "1"])
def test_closed_stdout_during_pattern_json_exits_1_with_empty_stderr(unbuffered):
    # 1.27 MB of pattern JSON.  With an unbuffered stdout, one write of it
    # all was cut short by the closed pipe, returned its count without
    # raising, and the exit code read 0.
    argv = ["pattern", "1000", "--json"]
    got = _close_stdout_after(argv, b'{\n  "M": 1', PYTHONUNBUFFERED=unbuffered)
    assert got == (1, b"")


def test_exit_code_domain_errors(capsys):
    assert run(capsys, "pattern", "1")[0] == 2
    assert run(capsys, "inverse", "3", "2")[0] == 2
    assert run(capsys, "basephi", "1", "2")[0] == 2  # 1 + 2*phi outside [0, 1)
    assert run(capsys, "zeckendorf", "--decode", "110")[0] == 2


def test_exit_code_synthesis_error_from_invalid_digits(capsys, monkeypatch):
    # Digits that EventuallyPeriodicBits refuses are a synthesis failure
    # (exit 1), not a bad argument (exit 2), in synthesis and in a
    # single-n walk that closes (a = 7 has M = 16 and i0 = 9).
    real = zeckinv.pattern._orbit

    def all_ones(a, b, steps, fl):
        per, qs = real(a, b, steps, fl)
        return "1" * len(per), qs

    monkeypatch.setattr(zeckinv.pattern, "_orbit", all_ones)
    for argv in (["pattern", "7"], ["inverse", "7", "41", "--method", "pattern"]):
        code = main(argv)
        assert code == 1
        assert "consecutive 1s" in capsys.readouterr().err


def test_exit_code_not_coprime(capsys):
    assert run(capsys, "inverse", "2", "6")[0] == 3
    assert run(capsys, "inverse", "2", "12", "--method", "pattern")[0] == 3


def test_errors_go_to_stderr(capsys):
    code = main(["inverse", "2", "6"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert "gcd" in captured.err


def test_debug_cross_check(capsys):
    code, out = run(capsys, "--debug", "inverse", "2", "11", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["value"] == 45  # F9 + F6 + F4
    assert data["indices"] == [9, 6, 4]
    assert data.get("cross_checked") is True


@contextlib.contextmanager
def _ints_in_full():
    """The test's own int <-> str conversions, past the interpreter's limit."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


def test_values_past_the_int_str_limit_print_in_full(capsys):
    # Past 4,300 digits str(int) raises under the interpreter's default
    # limit; the CLI lifts it only while it prints, and then restores it.
    limit = sys.get_int_max_str_digits()
    bits = "1" + "0" * 25000
    expected = {
        ("inverse", "2", "30001"): inverse_oracle(2, 30001),  # 6,270 digits
        ("zeckendorf", "--decode", bits): decode(from_bit_string(bits)),  # 5,225
    }
    for argv, value in expected.items():
        for json_flag in ([], ["--json"]):
            code, out = run(capsys, *argv, *json_flag)
            assert code == 0
            assert sys.get_int_max_str_digits() == limit
            with _ints_in_full():
                got = json.loads(out)["value"] if json_flag else int(out.split(" ")[0])
            assert got == value, argv


def test_debug_mismatch_prints_both_values_in_full(capsys, monkeypatch):
    value = inverse_oracle(2, 30001)
    monkeypatch.setattr(zeckinv.cli, "decode", lambda rep: decode(rep) + 1)
    code = main(["--debug", "inverse", "2", "30001"])
    captured = capsys.readouterr()
    assert code == 4
    assert captured.out == ""
    with _ints_in_full():
        want = f"error: pattern value {value + 1} != oracle {value}\n"
    assert captured.err == want
