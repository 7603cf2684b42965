"""End-to-end tests of the command line through a real interpreter."""

import json
import os
import random
import shutil
import subprocess
import sys
import time

import pytest


def run_cli(*args, timeout=None, env=None, python=sys.executable):
    """Run `python -m gonal args`, with env added to the environment."""
    return subprocess.run(
        [python, "-m", "gonal", *args],
        capture_output=True,
        text=True,
        timeout=timeout,
        env={**os.environ, **env} if env else None,
    )


def assert_refused(args, message, env=None):
    """The command exits 2 in under 1 s with one stderr line and no stdout."""
    start = time.perf_counter()
    proc = run_cli(*args, timeout=20, env=env)
    assert time.perf_counter() - start < 1
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == f"error: {message}\n"


# a genus of 4,300 digits: each value a report prints would have more
HUGE_GENUS = str(9 * 10**4299)
GENUS_MESSAGE = "requires g < 10^4000 (got a genus of more than 4000 digits)"


class TestReportCommand:
    def test_text_output(self):
        proc = run_cli("report", "--genus", "5", "--gonality", "3", "--kmax", "6")
        assert proc.returncode == 0
        assert "n-gonal curve dossier: g=5, n=3" in proc.stdout
        assert "Hilbert scheme dim      17" in proc.stdout

    def test_json_output(self):
        proc = run_cli(
            "report", "--genus", "5", "--gonality", "3", "--kmax", "6",
            "--format", "json",
        )
        assert proc.returncode == 0
        doc = json.loads(proc.stdout)
        assert doc["input"] == {"g": 5, "n": 3, "k_max": 6}
        assert doc["invariants"]["hilbert_scheme_dimension"] == 17
        assert len(doc["oracle_checks"]) == 6

    def test_json_output_under_python_3_13(self):
        # 3.13's issubclass refuses an alias such as tuple[int, int]
        python = shutil.which("python3.13")
        probe = "import sys, gonal; assert sys.version_info >= (3, 13)"
        if python is None or subprocess.run([python, "-c", probe], capture_output=True).returncode:
            pytest.skip("no python3.13 that imports gonal on PATH")
        args = ("report", "--genus", "12", "--gonality", "3", "--format", "json")
        proc = run_cli(*args, python=python)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == run_cli(*args).stdout

    def test_domain_error_exits_2(self):
        proc = run_cli("report", "--genus", "4", "--gonality", "3")
        assert proc.returncode == 2
        assert "2n-2 < g" in proc.stderr

    def test_usage_error_exits_2(self):
        proc = run_cli("report", "--genus", "5")
        assert proc.returncode == 2

    def test_negative_genus_names_the_genus(self):
        # the default k_max of 2g is not named: the user never passed -10
        proc = run_cli("report", "--genus", "-5", "--gonality", "3")
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr == "error: requires g >= 2 (got g=-5)\n"

    def test_negative_kmax_names_the_kmax(self):
        proc = run_cli("report", "--genus", "9", "--gonality", "3", "--kmax", "-1")
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr == "error: requires k_max >= 0 (got k_max=-1)\n"

    @pytest.mark.parametrize("fmt", ["text", "json"])
    @pytest.mark.parametrize("n", [3, 7])
    def test_out_of_memory_exits_2(self, n, fmt):
        # 2^50 rows would stream for years: k_max is capped at 10^7
        proc = run_cli(
            "report", "--genus", "2000", "--gonality", str(n),
            "--kmax", str(2**50), "--format", fmt,
        )
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr == f"error: requires k_max <= 10000000 (got k_max={2**50})\n"

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_huge_gonality_exits_2(self, fmt):
        # the generic splitting would need 5 * 10^19 - 2 entries
        proc = run_cli(
            "report", "--genus", str(10**20), "--gonality", str(5 * 10**19 - 1),
            "--kmax", "0", "--format", fmt,
        )
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr == "error: requires n <= 1000000 (got n=49999999999999999999)\n"

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_huge_genus_exits_2(self, fmt):
        # it ended in a traceback: a value exceeded the 4,300 digits the
        # interpreter converts to text
        args = ["report", "--genus", HUGE_GENUS, "--gonality", "3", "--kmax", "0"]
        assert_refused([*args, "--format", fmt], GENUS_MESSAGE)
        # the default k_max of 2g is not printed either
        assert_refused(args[:5], GENUS_MESSAGE)

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_closed_pipe_exits_141(self, fmt):
        proc = subprocess.Popen(
            [sys.executable, "-m", "gonal", "report", "--genus", "2000",
             "--gonality", "3", "--kmax", "100000", "--format", fmt],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
        )
        head = proc.stdout.read(100)
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=60) == 141
        assert len(head) == 100
        assert err == b""


class TestVerifyCommand:
    def test_passing_sweep(self):
        proc = run_cli(
            "verify",
            "--genus-min", "5", "--genus-max", "9",
            "--gonality-min", "3", "--gonality-max", "4",
        )
        assert proc.returncode == 0
        assert "failed 0" in proc.stdout
        assert proc.stdout.rstrip().endswith("ok")

    def test_json_summary(self):
        proc = run_cli(
            "verify",
            "--genus-min", "5", "--genus-max", "7",
            "--gonality-min", "3", "--gonality-max", "3",
            "--format", "json",
        )
        assert proc.returncode == 0
        doc = json.loads(proc.stdout)
        assert doc["failed"] == 0
        assert doc["checked"] > 0
        assert doc["first_failure"] is None

    def test_kmax_is_usage_error(self):
        # k-identities are decided for every k, so there is no cutoff
        proc = run_cli(
            "verify",
            "--genus-min", "5", "--genus-max", "8",
            "--gonality-min", "3", "--gonality-max", "3",
            "--kmax", "5",
        )
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert "unrecognized arguments: --kmax 5" in proc.stderr

    def test_huge_gonality_exits_2(self):
        proc = run_cli(
            "verify",
            "--genus-min", "5", "--genus-max", "5",
            "--gonality-min", "3", "--gonality-max", str(10**6 + 1),
        )
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr == "error: requires n <= 1000000 (got n=1000001)\n"

    @pytest.mark.parametrize(
        "bounds,message",
        [
            # refused from the request's bounds, before any list is built
            (("5", "5", "3", str(10**8)), "requires n <= 1000000 (got n=100000000)"),
            (("5", str(10**8), "3", "3"), "requires at most 100000 grid points (got 99999996)"),
            # one point in range costs time linear in n: the sum of n is capped
            (
                ("200001", "200001", "3", "100000"),
                "requires a sum of n over the points in range of at most 2000000 (got 5000049997)",
            ),
            # it reported a false sweep/raised: ValueError(...)
            ((HUGE_GENUS, HUGE_GENUS, "3", "3"), GENUS_MESSAGE),
            # a count of 8,600 digits is not printed: it was a traceback
            (
                ("-" + HUGE_GENUS, "5", "-" + HUGE_GENUS, "3"),
                "requires at most 100000 grid points (got 10^4000 or more)",
            ),
        ],
    )
    def test_huge_request_is_refused_at_once(self, bounds, message):
        start = time.perf_counter()
        proc = run_cli(
            "verify",
            "--genus-min", bounds[0], "--genus-max", bounds[1],
            "--gonality-min", bounds[2], "--gonality-max", bounds[3],
        )
        assert time.perf_counter() - start < 1
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr == f"error: {message}\n"

    def test_wide_gonality_range_finishes(self):
        # it compared factorials of size 2n at every gonality, and did not
        # finish in 20 s; every point but n = 3..4 is a skip
        proc = run_cli(
            "verify",
            "--genus-min", "5", "--genus-max", "5",
            "--gonality-min", "3", "--gonality-max", "100000",
            timeout=60,
        )
        assert proc.returncode == 0
        assert proc.stdout.startswith("checked 40  passed 40  failed 0  skipped 99997\n")

    def test_closed_pipe_exits_141(self):
        proc = subprocess.Popen(
            [sys.executable, "-m", "gonal", "verify", "--genus-min", "5",
             "--genus-max", "8", "--gonality-min", "3", "--gonality-max", "3"],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
        )
        # closed before the sweep ends, so the summary meets no reader
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=60) == 141
        assert err == b""

    def test_failure_exits_1(self, monkeypatch, capsys):
        from gonal import checks, cli
        from gonal.checks import SweepSummary

        broken = SweepSummary(
            checked=1,
            passed=0,
            failed=1,
            skipped=0,
            first_failure="g=5 n=3 example-check",
            failures=["g=5 n=3 example-check"],
            skip_reasons={},
        )
        # `verify` looks `sweep_verify` up in `checks` when it runs
        monkeypatch.setattr(checks, "sweep_verify", lambda *a, **k: broken)
        code = cli.main(
            ["verify", "--genus-min", "5", "--genus-max", "5",
             "--gonality-min", "3", "--gonality-max", "3"]
        )
        assert code == 1
        assert "FAILED" in capsys.readouterr().out


class TestTwistCommand:
    FORM = "0,-120,274,-225,85,-15,1"  # x(x-1)(x-2)(x-3)(x-4)(x-5) backwards

    def test_twist_produces_point(self):
        proc = run_cli(
            "twist", "--coeffs", "5,1,0,0,0,0,1", "--a", "2", "--x0", "0",
            "--format", "json",
        )
        assert proc.returncode == 0
        doc = json.loads(proc.stdout)
        assert doc["twisted_a"] == "5"
        assert doc["point"] == ["0", "1"]
        assert doc["form_unchanged"] is True
        assert doc["residual_at_point"] == "0"

    def test_rational_inputs(self):
        proc = run_cli(
            "twist", "--coeffs", "1/2,0,0,0,0,0,1", "--a", "3/7", "--x0", "1/3"
        )
        assert proc.returncode == 0
        assert "a' = " in proc.stdout

    def test_root_rejected(self):
        proc = run_cli("twist", "--coeffs", self.FORM, "--a", "1", "--x0", "3")
        assert proc.returncode == 2
        assert "f(x0) = 0" in proc.stderr

    def test_singular_form_rejected(self):
        # the zero form too, which has no top coefficient to size f(x0) by
        for coeffs in ("0,0,1,0,0,0,1", "0,0,0,0,0,0,0"):
            proc = run_cli("twist", "--coeffs", coeffs, "--a", "1", "--x0", "1")
            assert proc.returncode == 2
            assert "discriminant" in proc.stderr

    def test_one_discriminant_per_twist(self, monkeypatch, capsys):
        from gonal import cli, hyperelliptic

        calls = []
        decide = hyperelliptic.discriminant_nonzero

        def counted(*args, **kwargs):
            calls.append(args)
            return decide(*args, **kwargs)

        monkeypatch.setattr(hyperelliptic, "discriminant_nonzero", counted)
        code = cli.main(["twist", "--coeffs", "5,1,0,0,0,0,1", "--a", "2", "--x0", "0"])
        assert code == 0
        assert "a' = 5" in capsys.readouterr().out
        # the input model decides it; the twisted model reads the verdict
        assert len(calls) == 1

    @pytest.mark.parametrize(
        "coeffs,a,x0,message",
        [
            # f(x0) has 6,001 digits, too many to print
            ("1,0,0,0,0,0,1", "1", "1e1000",
             "requires a twisted value a' = f(x0) of at most 4300 digits in numerator and denominator"),
            # x0 = p/q with two ~2,000-digit parts: the denominator of f(x0)
            # is at least q^202, known from the sizes before f(x0) is computed
            (",".join(["1"] * 203), "1", "7" * 2000 + "/" + "3" * 1999,
             "requires a twisted value a' = f(x0) of at most 4300 digits in numerator and denominator"),
            # x0 with a long numerator: |f(x0)| >= |c_m| |x0|^m / 2 bounds the
            # numerator from the sizes; each took 3 s to evaluate first
            (",".join(["1"] * 203), "1", "7" * 4000,
             "requires a twisted value a' = f(x0) of at most 4300 digits in numerator and denominator"),
            (",".join(["1"] * 203), "1", "7" * 3998 + "/3",
             "requires a twisted value a' = f(x0) of at most 4300 digits in numerator and denominator"),
            # each literal is sized before Fraction parses it: 1e100000000
            # did not finish in 20 s
            ("1e100000,0,0,0,0,0,1", "1", "1",
             "requires rational literals of at most 4000 digits, "
             "an exponent counted as the digits it adds (got 100001)"),
            ("1,0,0,0,0,0,1", "1e100000000", "1",
             "requires rational literals of at most 4000 digits, "
             "an exponent counted as the digits it adds (got 100000001)"),
            ("1,0,0,0,0,0,1", "1", "-1/" + "7" * 4001,
             "requires rational literals of at most 4000 digits, "
             "an exponent counted as the digits it adds (got 4004)"),
        ],
    )
    def test_huge_values_exit_2(self, coeffs, a, x0, message):
        assert_refused(["twist", f"--coeffs={coeffs}", f"--a={a}", f"--x0={x0}"], message)

    def test_value_bound_is_sound(self):
        # whenever f(x0) is refused from sizes, one of its exact parts has
        # more than `digits` digits; top coefficients share primes with q
        from fractions import Fraction
        from math import gcd, prod

        from gonal.cli import _value_too_long
        from gonal.hyperelliptic import _integer_scaled

        rng = random.Random(34)
        primes = (2, 3, 5, 7)
        fired = shared = 0
        for _ in range(3000):
            q = prod(rng.choice(primes) ** rng.randint(0, 8) for _ in range(2))
            x0 = Fraction(rng.randint(-(2**40), 2**40) >> rng.randint(0, 40), q)
            coeffs = [
                Fraction(rng.randint(-30, 30), rng.choice(primes) ** rng.randint(0, 3))
                for _ in range(rng.randint(6, 12) + 1)
            ]
            top = prod(rng.choice(primes) ** rng.randint(0, 6) for _ in range(2))
            coeffs[-1] = Fraction(rng.choice((top, -top, 0)), rng.randint(1, 3))
            digits = rng.randint(1, 40)
            scaled = _integer_scaled(coeffs)
            if _value_too_long(coeffs, scaled, x0, digits):
                value = sum(c * x0**i for i, c in enumerate(coeffs))
                assert max(len(str(abs(value.numerator))), len(str(value.denominator))) > digits
                fired += 1
                m = max(i for i, c in enumerate(scaled) if c)
                shared += gcd(scaled[m], q) > 1
        assert fired > 1000 and shared > 500

    def test_shared_prime_is_refused_unevaluated(self, monkeypatch, capsys):
        # the top coefficient 3 shares its prime with q = 3^300, yet the
        # denominator of f(x0) is at least (q/3)^40, too long to print
        from gonal import cli, hyperelliptic

        def evaluate(self, x):
            raise AssertionError("f(x0) was evaluated")

        monkeypatch.setattr(hyperelliptic.BinaryForm, "evaluate", evaluate)
        coeffs = "1,1," + "0," * 38 + "3"
        assert cli.main(["twist", f"--coeffs={coeffs}", "--a=1", f"--x0=1/{3**300}"]) == 2
        assert capsys.readouterr().err == (
            "error: requires a twisted value a' = f(x0) of at most 4300 digits in numerator and denominator\n"
        )

    def test_costly_discriminant_exits_2(self):
        # genus 10 at 4,000 digits a coefficient ran for over a minute
        from gonal.cli import TWIST_DISCRIMINANT_COST

        coeffs = ",".join(["9" * 4000] * 23)
        assert_refused(
            ["twist", f"--coeffs={coeffs}", "--a=1", "--x0=1"],
            f"requires d^2 * (b + 8) <= {TWIST_DISCRIMINANT_COST} for a form of degree d "
            "with coefficients of at most b bits, scaled to integers (got d = 22, b = 13288)",
        )

    def test_discriminant_bound_is_sharp(self):
        # c + x^12, c of b bits, decides at once: d^2 (b + 8) at the bound
        # is accepted, one bit more refused
        from gonal.cli import TWIST_DISCRIMINANT_COST

        b = TWIST_DISCRIMINANT_COST // 144 - 8
        for bits, code in ((b, 0), (b + 1, 2)):
            coeffs = f"{1 << (bits - 1)}" + ",0" * 11 + ",1"
            proc = run_cli("twist", f"--coeffs={coeffs}", "--a=1", "--x0=1")
            assert proc.returncode == code, proc.stderr
            assert ("d^2 * (b + 8)" in proc.stderr) == bool(code)

    def test_genus_40_with_one_digit_rationals(self):
        # a form of genus 40 with one-digit rational coefficients is accepted
        rng = random.Random(40)
        coeffs = ",".join(f"{rng.randint(-9, 9)}/{rng.randint(1, 9)}" for _ in range(82)) + ",1"
        proc = run_cli("twist", f"--coeffs={coeffs}", "--a=1", "--x0=1/2", "--format", "json")
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["genus"] == 40

    def test_largest_literals_print(self):
        # at the literal bound, and f(x0) within the printed digits
        proc = run_cli("twist", "--coeffs=1,0,0,0,0,0,1", "--a=1e-3999", "--x0=1e700")
        assert proc.returncode == 0, proc.stderr
        assert f"a = 1/1{'0' * 3999} -> a' = 1{'0' * 4199}1\n" in proc.stdout
        # a' = 1000 x0^6 + 1 at x0 = 10^716 has 4,300 digits, at 10 times that 4,301
        proc = run_cli("twist", "--coeffs=1,0,0,0,0,0,1000", "--a=1", "--x0=1e716")
        assert proc.returncode == 0, proc.stderr
        assert f"a' = 1{'0' * 4298}1\n" in proc.stdout
        proc = run_cli("twist", "--coeffs=1,0,0,0,0,0,10000", "--a=1", "--x0=1e716")
        assert (proc.returncode, proc.stdout) == (2, "")
        assert "at most 4300 digits" in proc.stderr

    def test_lowered_digit_limit_is_read(self):
        # a' = 10^1200 + 1, and a = 10^-700, are too long for a limit of 640
        limit = {"PYTHONINTMAXSTRDIGITS": "640"}
        assert_refused(
            ["twist", "--coeffs=1,0,0,0,0,0,1", "--a=1", "--x0=1e200"],
            "requires a twisted value a' = f(x0) of at most 640 digits in numerator and denominator",
            env=limit,
        )
        assert_refused(
            ["twist", "--coeffs=1,0,0,0,0,0,1", "--a=1e-700", "--x0=1"],
            "requires rational literals of at most 640 digits, "
            "an exponent counted as the digits it adds (got 701)",
            env=limit,
        )

    @pytest.mark.parametrize(
        "coeffs,x0,printed",
        [
            # a' = 10^639 + 1 has 640 digits, 10^640 + 1 has 641
            ("1,0,0,0,0,0,1000", "1e106", f"1{'0' * 638}1"),
            ("1,0,0,0,0,0,10000", "1e106", None),
            # a' = (2^2124 + 1) / 2^2124, each part of 640 digits; 2^2130 has 642
            ("1,0,0,0,0,0,1", f"1/{2**354}", f"{2**2124 + 1}/{2**2124}"),
            ("1,0,0,0,0,0,1", f"1/{2**355}", None),
        ],
    )
    def test_twisted_value_at_the_lowered_limit(self, coeffs, x0, printed):
        # the size pre-check passes each of these: printing a' decides
        limit = {"PYTHONINTMAXSTRDIGITS": "640"}
        args = ["twist", f"--coeffs={coeffs}", "--a=1", f"--x0={x0}"]
        if printed is None:
            assert_refused(
                args,
                "requires a twisted value a' = f(x0) of at most 640 digits in numerator and denominator",
                env=limit,
            )
        else:
            proc = run_cli(*args, env=limit)
            assert proc.returncode == 0, proc.stderr
            assert f"a' = {printed}\n" in proc.stdout

    def test_lowered_digit_limit_lowers_the_genus_bound(self):
        # every value a report prints is below 10^14 * g: 640 digits allow g < 10^626
        limit = {"PYTHONINTMAXSTRDIGITS": "640"}
        genus = "9" * 639
        message = "requires g < 10^626 (got a genus of more than 626 digits)"
        for fmt in ("json", "text"):
            assert_refused(
                ["report", "--genus", genus, "--gonality", "1000", "--kmax", "2", "--format", fmt],
                message,
                env=limit,
            )
        assert_refused(
            ["verify", "--genus-min", genus, "--genus-max", genus,
             "--gonality-min", "3", "--gonality-max", "3"],
            message,
            env=limit,
        )
        proc = run_cli("report", "--genus", "9" * 626, "--gonality", "1000", "--kmax", "2", env=limit)
        assert proc.returncode == 0, proc.stderr

    def test_lifted_digit_limit_is_read(self):
        # a' = 10000 x0^6 + 1 at x0 = 10^716 has 4,301 digits
        proc = run_cli(
            "twist", "--coeffs=1,0,0,0,0,0,10000", "--a=1", "--x0=1e716",
            env={"PYTHONINTMAXSTRDIGITS": "0"},
        )
        assert proc.returncode == 0, proc.stderr
        assert f"a' = 1{'0' * 4299}1\n" in proc.stdout

    def test_negative_values_bind_to_their_options(self):
        proc = run_cli(
            "twist", "--coeffs", "-5,1,0,0,0,0,1", "--a", "-3/2", "--x0", "-1/2"
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == (
            "genus 2 model: a = -3/2 -> a' = -351/64\n"
            "rational point (-1/2, 1), residual 0\n"
        )


# each option of each command, with a value that the command accepts
OPTIONS = {
    "report": {"--genus": "12", "--gonality": "3", "--kmax": "4", "--format": "json"},
    "verify": {"--genus-min": "5", "--genus-max": "6", "--gonality-min": "3",
               "--gonality-max": "3", "--format": "json"},
    "twist": {"--coeffs": "1,0,0,0,0,0,1", "--a": "1", "--x0": "0", "--format": "json"},
}
# "--" as each option's value: --opt=--, --opt --, and abbreviated where
# the option has a shorter form
DASH_VALUES = [
    (command, option, words)
    for command in OPTIONS
    for option in OPTIONS[command]
    for words in ([f"{option}=--"], [option, "--"], [f"{option[:-1]}=--"])
    if words[0] != "--=--"
]


class TestDashDashValue:
    """A "--" given as an option's value is a usage error on every Python.
    CPython 3.10 to 3.12 stored --opt=-- as an empty list, which ended in a
    traceback or a wrong message, or was taken as the default format."""

    @pytest.mark.parametrize(
        "command, option, words", DASH_VALUES,
        ids=[f"{command} {' '.join(words)}" for command, _, words in DASH_VALUES],
    )
    def test_refused_with_the_usage(self, capsys, command, option, words):
        from gonal import cli

        argv = [command]
        for other, value in OPTIONS[command].items():
            argv += [other, value] if other != option else []
        with pytest.raises(SystemExit) as info:
            cli.main(argv + words)
        out, err = capsys.readouterr()
        assert (info.value.code, out) == (2, "")
        # argparse's usage, which may wrap, then one line that names the option
        *usage, error = err.splitlines()
        assert usage[0].startswith(f"usage: gonal {command} ")
        assert "error:" not in "".join(usage)
        assert error.startswith(f"gonal {command}: error: argument {option}: ")


SIGNED_TWIST = {"--coeffs": "-5,1,0,0,0,0,1", "--a": "-3/2", "--x0": "-1/2"}
# the abbreviations argparse takes for the twist options with a negative
# value (--a has none shorter), one at a time and together
ABBREVIATED = [
    *({"--coeffs": "--coeffs"[:i]} for i in range(3, 8)),
    {"--x0": "--x"},
    {"--coeffs": "--c", "--x0": "--x"},
]


class TestAbbreviatedSignedValue:
    """An abbreviated option takes a negative value as its full name does."""

    @pytest.mark.parametrize("names", ABBREVIATED, ids=[" ".join(n.values()) for n in ABBREVIATED])
    def test_same_bytes_as_the_full_name(self, capsys, names):
        from gonal import cli

        def twist(names):
            argv = ["twist", "--format", "json"]
            for option, value in SIGNED_TWIST.items():
                argv += [names.get(option, option), value]
            return cli.main(argv), *capsys.readouterr()

        full = twist({})
        assert full[0] == 0 and full[1]
        assert twist(names) == full


# cli.run is the process entry point: main, the flushes, then os._exit.
# Each command line below, as a process, prints and exits as main does.
PROCESS_CASES = {
    "report-json": ["report", "--genus", "200", "--gonality", "3", "--format", "json"],
    "report-text": ["report", "--genus", "200", "--gonality", "5"],
    "verify": ["verify", "--genus-min", "5", "--genus-max", "9",
               "--gonality-min", "3", "--gonality-max", "4", "--format", "json"],
    "twist": ["twist", "--coeffs", "-5,1,0,0,0,0,1", "--a", "-3/2", "--x0", "-1/2"],
    "domain-error": ["report", "--genus", "4", "--gonality", "3"],
}

# Runs `python -m gonal` as runpy does, with an atexit handler registered.
ATEXIT_PROBE = """\
import atexit, runpy, sys
atexit.register(lambda: print("atexit ran", file=sys.stderr, flush=True))
{patch}
sys.argv = ["gonal", *{args!r}]
runpy.run_module("gonal", run_name="__main__")
"""


class TestProcessExit:
    @pytest.mark.parametrize("args", PROCESS_CASES.values(), ids=PROCESS_CASES)
    def test_process_prints_and_exits_as_main(self, args, capsys):
        from gonal import cli

        code = cli.main(list(args))
        out, err = capsys.readouterr()
        proc = run_cli(*args)
        assert (proc.stdout, proc.stderr, proc.returncode) == (out, err, code)

    def test_closed_pipe_exits_as_main(self, monkeypatch, capsys):
        from gonal import cli

        # the output fits in the stream's buffer: only the flush meets the pipe
        args = ["report", "--genus", "12", "--gonality", "3", "--format", "json"]
        read, write = os.pipe()
        os.close(read)
        stdout = open(write, "w")
        monkeypatch.setattr(sys, "stdout", stdout)
        code = cli.main(args)
        monkeypatch.undo()
        stdout.close()
        err = capsys.readouterr().err
        read, write = os.pipe()
        os.close(read)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "gonal", *args],
                stdout=write, stderr=subprocess.PIPE, text=True, timeout=60,
            )
        finally:
            os.close(write)
        assert (proc.stderr, proc.returncode) == (err, code) == ("", 141)

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="no /proc/self/fd")
    def test_closed_pipe_keeps_no_descriptor(self, monkeypatch, capsys):
        from gonal import cli

        def closed_pipe_main():
            read, write = os.pipe()
            os.close(read)
            with open(write, "w") as stdout, monkeypatch.context() as patch:
                patch.setattr(sys, "stdout", stdout)
                assert cli.main(["report", "--genus", "12", "--gonality", "3"]) == 141

        closed_pipe_main()  # lazy imports first
        before = len(os.listdir("/proc/self/fd"))
        for _ in range(5):
            closed_pipe_main()
        assert len(os.listdir("/proc/self/fd")) == before

    @pytest.mark.parametrize("error, code", [(None, 3), (BrokenPipeError, 141)])
    def test_run_flushes_both_streams_then_exits(self, monkeypatch, error, code):
        from gonal import cli

        events = []

        class Stream:
            def __init__(self, name):
                self.name = name

            def flush(self):
                events.append(self.name)
                if error is not None and self.name == "stdout":
                    raise error

        class Exited(Exception):
            pass

        def exit_(status):
            events.append(status)
            raise Exited

        monkeypatch.setattr(cli, "main", lambda: 3)
        monkeypatch.setattr(os, "_exit", exit_)
        monkeypatch.setattr(sys, "stdout", Stream("stdout"))
        monkeypatch.setattr(sys, "stderr", Stream("stderr"))
        with pytest.raises(Exited):
            cli.run()
        monkeypatch.undo()
        flushed = ["stdout"] if error else ["stdout", "stderr"]
        assert events == [*flushed, code]

    @staticmethod
    def probe(args, patch=""):
        code = ATEXIT_PROBE.format(args=list(args), patch=patch)
        return subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, timeout=60
        )

    def test_fast_exit_skips_atexit_handlers(self):
        proc = self.probe(PROCESS_CASES["twist"])
        assert (proc.returncode, proc.stderr) == (0, "")
        assert proc.stdout == run_cli(*PROCESS_CASES["twist"]).stdout

    def test_uncaught_exception_exits_the_normal_way(self):
        patch = "import gonal.report\ngonal.report.generate_report = lambda *args: 1 // 0"
        proc = self.probe(["report", "--genus", "5", "--gonality", "3"], patch)
        assert proc.returncode == 1
        assert proc.stderr.startswith("Traceback")
        assert proc.stderr.endswith("ZeroDivisionError: integer division or modulo by zero\natexit ran\n")

    def test_usage_error_exits_the_normal_way(self):
        proc = self.probe(["report", "--genus", "5"])
        assert proc.returncode == 2
        assert proc.stderr.startswith("usage: gonal report")
        assert proc.stderr.endswith("atexit ran\n")


def loaded_modules(code):
    """The modules a fresh interpreter holds after running code.

    The probe runs under -S, with only the directory that holds gonal on
    PYTHONPATH: a .pth file in site-packages may preload modules, such as
    random, re or pathlib, and so hide a module that a command loads."""
    import gonal

    probe = code + "\nimport json, sys\nprint(json.dumps(sorted(sys.modules)))"
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(gonal.__file__))}
    proc = subprocess.run(
        [sys.executable, "-S", "-c", probe],
        capture_output=True, text=True, check=True, env=env,
    )
    return json.loads(proc.stdout.splitlines()[-1])


def loaded_gonal_modules(code):
    """The gonal modules a fresh interpreter holds after running code."""
    return [m for m in loaded_modules(code) if m.partition(".")[0] == "gonal"]


class TestLoadOnDemand:
    ENTRY = ["gonal", "gonal.cli", "gonal.errors"]
    TWIST = (
        "import gonal.cli\n"
        "assert gonal.cli.main(['twist', '--coeffs', '5,1,0,0,0,0,1',"
        " '--a', '2', '--x0', '0']) == 0"
    )
    REPORT = (
        "import gonal.cli\n"
        "assert gonal.cli.main(['report', '--genus', '12', '--gonality', '3',"
        " '--format', 'json']) == 0"
    )
    VERIFY = (
        "import gonal.cli\n"
        "assert gonal.cli.main(['verify', '--genus-min', '5', '--genus-max', '5',"
        " '--gonality-min', '3', '--gonality-max', '3']) == 0"
    )

    def test_import_cli_loads_no_layer(self):
        assert loaded_gonal_modules("import gonal.cli") == self.ENTRY

    def test_twist_loads_only_hyperelliptic(self):
        assert loaded_gonal_modules(self.TWIST) == self.ENTRY + ["gonal.hyperelliptic"]

    # dataclasses imports inspect, which with its own imports is most of
    # the start-up it would add to a command
    @pytest.mark.parametrize(
        "code", ["import gonal.cli", TWIST, REPORT, VERIFY], ids=["cli", "twist", "report", "verify"]
    )
    def test_no_dataclasses(self, code):
        modules = loaded_modules(code)
        assert "dataclasses" not in modules and "inspect" not in modules

    @pytest.mark.parametrize("n", ["3", "5"])
    def test_report_loads_only_the_dossier(self, n):
        code = (
            "import gonal.cli\n"
            f"assert gonal.cli.main(['report', '--genus', '20', '--gonality', '{n}']) == 0"
        )
        modules = loaded_modules(code)
        layers = ["chow", "hirzebruch", "invariants", "picard", "report", "scroll"]
        assert [m for m in modules if m.partition(".")[0] == "gonal"] == sorted(
            self.ENTRY + ["gonal." + layer for layer in layers]
        )
        # the sweep's Fraction and hyperelliptic imports are deferred
        assert "fractions" not in modules

    def test_verify_loads_hyperelliptic(self):
        modules = loaded_gonal_modules(self.VERIFY)
        assert "gonal.hyperelliptic" in modules and "gonal.checks" in modules
