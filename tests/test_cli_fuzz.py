"""A seeded fuzz of the command line: argv built at random from a fixed list
of atoms, run through gonal.cli.main in process, and a handful through
`python -m gonal`.  No argv ends in a traceback: each returns 0, 1 or 2,
or ends in argparse's SystemExit(2), and an exit 2 writes one error line,
after argparse's usage line for a usage error."""

import contextlib
import io
import random
import subprocess
import sys

import pytest

from gonal import cli

# The values an option takes: most often a plain one, else an odd atom, of
# signs, spaces, underscores, a non-ASCII digit, hex, exponents, fractions,
# a zero denominator, the empty string, "--", and long ints, of 700 digits
# (past an int-to-text limit lowered to 640) and 4,000 (at the genus cap
# and at the literal cap of `twist`).  No value is slow when accepted: a
# verify grid has at most 13 x 13 points, a report k_max is at most 12, and
# a long literal in a form is refused from its size.
ODD = ["-3", "+5", " 6 ", "1_0", "٣", "0x10", "1e2", "1E-2", "3/2", "-3/2", "1/0", "", "--",
       "7" * 700, "-" + "7" * 700, "9" * 4000]
INTS = ["3", "4", "5", "7", "12"]
RATIONALS = ["0", "1", "-1", "2", "-5", "3/2"]
FORMATS = ["text", "json"]
OPTIONS = {
    "report": {"--genus": INTS, "--gonality": INTS, "--kmax": INTS, "--format": FORMATS},
    "verify": {
        "--genus-min": INTS, "--genus-max": INTS, "--gonality-min": INTS,
        "--gonality-max": INTS, "--format": FORMATS,
    },
    "twist": {"--coeffs": RATIONALS, "--a": RATIONALS, "--x0": RATIONALS, "--format": FORMATS},
}
# how many coefficients a form has: a degree-6 form, of genus 2, most often
COEFFICIENTS = (1, 3, 6, 7, 7, 7, 7, 9)


def random_argv(rng: random.Random) -> list[str]:
    """A command, each of its options mostly present, in either form and at
    times abbreviated, in random order, and at times a stray word."""
    command = rng.choice(list(OPTIONS))
    options = OPTIONS[command]
    odd = rng.choice([*options, None])  # the option given an odd atom, if any
    words = []
    for option, plain in options.items():
        if rng.random() < 0.05:
            continue
        atoms = rng.choices(plain, k=rng.choice(COEFFICIENTS) if option == "--coeffs" else 1)
        if option == odd:
            atoms[rng.randrange(len(atoms))] = rng.choice(ODD)
        value = ",".join(atoms)
        if rng.random() < 0.1:
            option = option[: rng.randint(3, len(option))]
        words.append([f"{option}={value}"] if rng.random() < 0.5 else [option, value])
    rng.shuffle(words)
    argv = [command, *(word for pair in words for word in pair)]
    if rng.random() < 0.1:
        argv.insert(rng.randint(1, len(argv)), rng.choice(["--", "-x", "extra", ""]))
    return argv


def run_in_process(argv: list[str]) -> tuple[int, str, str, bool]:
    """main(argv)'s exit code, stdout and stderr, and whether argparse
    ended it with SystemExit."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code, usage = cli.main(argv), False
        except SystemExit as exc:
            code, usage = exc.code, True
        except Exception as exc:
            raise AssertionError(f"{argv!r} raised {exc!r}") from exc
    return code, out.getvalue(), err.getvalue(), usage


def assert_clean_exit(argv, code, out, err, usage):
    lines = err.splitlines()
    if usage:
        # argparse's usage, which may wrap, then one error line
        assert code == 2 and out == "", argv
        assert err.startswith("usage: gonal"), argv
        assert [line for line in lines if "error:" in line] == lines[-1:], argv
    elif code == 2:
        assert out == "" and len(lines) == 1 and lines[0].startswith("error: "), argv
    else:
        assert code in (0, 1) and err == "", argv


@pytest.mark.parametrize("seed", range(4))
def test_no_argv_ends_in_a_traceback(seed):
    rng = random.Random(seed)
    for _ in range(75):
        argv = random_argv(rng)
        assert_clean_exit(argv, *run_in_process(argv))


def test_as_a_process_exits_as_main():
    # run ends the process with os._exit: each exit code, stdout and last
    # stderr line are main's in process
    rng = random.Random(100)
    for _ in range(6):
        argv = random_argv(rng)
        code, out, err, _ = run_in_process(argv)
        proc = subprocess.run(
            [sys.executable, "-m", "gonal", *argv], capture_output=True, text=True, timeout=20
        )
        assert "Traceback" not in proc.stderr, argv
        assert (proc.returncode, proc.stdout) == (code, out), argv
        assert proc.stderr.splitlines()[-1:] == err.splitlines()[-1:], argv
