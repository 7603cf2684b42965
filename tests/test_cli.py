"""End-to-end tests of the command line through a real interpreter."""

import json
import os
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
        from gonal import cli, report
        from gonal.report import SweepSummary

        broken = SweepSummary(
            checked=1,
            passed=0,
            failed=1,
            skipped=0,
            first_failure="g=5 n=3 example-check",
            failures=["g=5 n=3 example-check"],
            skip_reasons={},
        )
        # `verify` looks `sweep_verify` up in `report` when it runs
        monkeypatch.setattr(report, "sweep_verify", lambda *a, **k: broken)
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
        proc = run_cli("twist", "--coeffs", "0,0,1,0,0,0,1", "--a", "1", "--x0", "1")
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


def loaded_modules(code):
    """The modules a fresh interpreter holds after running code."""
    probe = code + "\nimport json, sys\nprint(json.dumps(sorted(sys.modules)))"
    proc = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, check=True
    )
    return json.loads(proc.stdout.splitlines()[-1])


def loaded_gonal_modules(code):
    """The gonal modules a fresh interpreter holds after running code."""
    return [m for m in loaded_modules(code) if m.partition(".")[0] == "gonal"]


class TestLoadOnDemand:
    ENTRY = ["gonal", "gonal.cli", "gonal.errors"]

    def test_import_cli_loads_no_layer(self):
        assert loaded_gonal_modules("import gonal.cli") == self.ENTRY

    def test_twist_loads_only_hyperelliptic(self):
        code = (
            "import gonal.cli\n"
            "assert gonal.cli.main(['twist', '--coeffs', '5,1,0,0,0,0,1',"
            " '--a', '2', '--x0', '0']) == 0"
        )
        assert loaded_gonal_modules(code) == self.ENTRY + ["gonal.hyperelliptic"]

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
        code = (
            "import gonal.cli\n"
            "assert gonal.cli.main(['verify', '--genus-min', '5', '--genus-max', '5',"
            " '--gonality-min', '3', '--gonality-max', '3']) == 0"
        )
        assert "gonal.hyperelliptic" in loaded_gonal_modules(code)
