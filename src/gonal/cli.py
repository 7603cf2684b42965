"""Command-line front end.

Subcommands:
  report  full invariant dossier for one (g, n), text or JSON
  verify  property sweep over a (g, n) grid; exit 1 on any failure
  twist   rescale a hyperelliptic model to pass through a rational point

Exit codes: 0 success, 1 verification failure, 2 usage or domain error
(also a request that does not fit in memory), 141 (128 + SIGPIPE) when
the reader closes stdout before the output ends.
"""

import argparse
import json
import os
import sys
from math import gcd
from typing import NoReturn

from .errors import DomainError, UnsupportedError, digit_cap, int_text_limit

# Each command imports the layers it runs, so `twist` never loads the
# Chow ring, the scrolls or the report; no command loads dataclasses.

# The most digits a rational literal of `twist` spells, a decimal exponent
# counted as the digits it adds, so that each parses at once and prints:
# Fraction("1e100000000") alone would build 10^(10^8).  A lower limit of
# the interpreter on int-to-text conversion lowers it.
TWIST_LITERAL_DIGITS = 4000
# The largest d^2 (b + 8) of a `twist` form of degree d whose coefficients,
# scaled to integers, have at most b bits, read before its discriminant is
# decided.  Euclid's time tracks the square of d^2 (b + 8), within a factor
# of 3.3 over genus 2 to 250 and 1 to 100,000 bits; random forms on the
# bound, genus 2 to 190, decide in 3.2 to 9.3 s (CPython 3.11, one Xeon core).
TWIST_DISCRIMINANT_COST = 14 * 10**5


def _cmd_report(args) -> int:
    from .report import generate_report, write_report

    k_max = args.kmax if args.kmax is not None else max(2 * args.genus, 0)
    write_report(generate_report(args.genus, args.gonality, k_max), args.format, sys.stdout)
    return 0


def _cmd_verify(args) -> int:
    from .checks import render_sweep_text, sweep_verify

    summary = sweep_verify(
        range(args.genus_min, args.genus_max + 1),
        range(args.gonality_min, args.gonality_max + 1),
    )
    if args.format == "json":
        sys.stdout.write(json.dumps(summary.to_dict(), indent=2) + "\n")
    else:
        sys.stdout.write(render_sweep_text(summary))
    return 0 if summary.ok else 1


def _literal_digits(text: str) -> int:
    """The digits a rational literal spells: its length, or, with a decimal
    exponent, the length before the exponent plus the exponent's size."""
    mantissa, _, exponent = text.lower().partition("e")
    if exponent and len(text) <= TWIST_LITERAL_DIGITS:
        try:
            return len(mantissa) + abs(int(exponent))
        except ValueError:
            pass  # not a literal: Fraction refuses it
    return len(text)


def _value_too_long(coeffs: list, scaled: list[int], x0, digits: int) -> bool:
    """Whether f(x0), x0 = p/q in lowest terms, surely has a numerator or a
    denominator of more than `digits` digits, read from sizes before f(x0) is
    computed.  Here scaled holds c'_i = L*c_i, L the lcm of the c_i's
    denominators, and c'_m is the top nonzero one.

    f(x0) = N / (L*q^m) with N = c'_m p^m (mod q), so if c'_m is prime to q
    the reduced denominator is >= q^m.  If |p| >= q and |c'_m p| >=
    2q (|c'_0| + ... + |c'_{m-1}|), the lower terms are at most half the top
    one, so the reduced numerator is >= |f(x0)| >= |c_m| |x0|^m / 2.
    """
    m = max((i for i, c in enumerate(scaled) if c), default=None)
    if m is None:
        return False  # f = 0, refused as singular
    p, q = abs(x0.numerator), x0.denominator
    # a >= 2^(bits(a) - 1) and b < 2^bits(b), and 2^3.33 > 10
    if 100 * (q.bit_length() - 1) * m >= 333 * digits and gcd(scaled[m], q) == 1:
        return True
    if p < q or abs(scaled[m]) * p < 2 * q * sum(map(abs, scaled[:m])):
        return False
    c = coeffs[m]
    # |c_m| |x0|^m / 2 >= 2^bits
    bits = (
        abs(c.numerator).bit_length() - 1 - c.denominator.bit_length()
        + m * (p.bit_length() - 1 - q.bit_length()) - 1
    )
    return 100 * bits >= 333 * digits


def _cmd_twist(args) -> int:
    from fractions import Fraction

    from .hyperelliptic import BinaryForm, HyperellipticModel, _integer_scaled, twist_with_point

    limit = int_text_limit()
    literal_digits = digit_cap(TWIST_LITERAL_DIGITS)
    literals = [*args.coeffs.split(","), args.a, args.x0]
    for digits in map(_literal_digits, literals):
        if digits > literal_digits:
            raise DomainError(
                f"requires rational literals of at most {literal_digits} digits, "
                f"an exponent counted as the digits it adds (got {digits})"
            )
    try:
        *coeffs, a, x0 = map(Fraction, literals)
    except (ValueError, ZeroDivisionError) as exc:
        raise DomainError(f"could not parse rational input: {exc}") from exc
    form = BinaryForm(len(coeffs) - 1, tuple(coeffs))
    # both refusals are read from sizes, before the discriminant is decided
    scaled = _integer_scaled(coeffs)
    d, b = form.degree, max(abs(c).bit_length() for c in scaled)
    if d * d * (b + 8) > TWIST_DISCRIMINANT_COST:
        raise DomainError(
            f"requires d^2 * (b + 8) <= {TWIST_DISCRIMINANT_COST} for a form of degree d "
            f"with coefficients of at most b bits, scaled to integers (got d = {d}, b = {b})"
        )
    too_long = DomainError(
        f"requires a twisted value a' = f(x0) of at most {limit} digits "
        "in numerator and denominator"
    )
    if limit and _value_too_long(coeffs, scaled, x0, limit):
        raise too_long
    model = HyperellipticModel(a, form)
    twisted, point = twist_with_point(model, x0)
    try:
        twisted_a = str(twisted.a)
    except ValueError:  # a part past the int-to-text limit
        raise too_long from None
    payload = {
        "genus": form.genus,
        "original_a": str(model.a),
        "twisted_a": twisted_a,
        "point": [str(point[0]), str(point[1])],
        "form_unchanged": twisted.form == model.form,
        "residual_at_point": str(twisted.residual(*point)),
    }
    if args.format == "json":
        sys.stdout.write(json.dumps(payload, indent=2) + "\n")
    else:
        sys.stdout.write(
            f"genus {payload['genus']} model: a = {payload['original_a']} "
            f"-> a' = {payload['twisted_a']}\n"
            f"rational point ({payload['point'][0]}, {payload['point'][1]}), "
            f"residual {payload['residual_at_point']}\n"
        )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gonal",
        description="Exact invariants of n-gonal curve families: scroll "
        "intersection theory, section counts, modular-degree divisibility.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    rep = sub.add_parser("report", help="invariant dossier for one (g, n)")
    rep.add_argument("--genus", type=int, required=True)
    rep.add_argument("--gonality", type=int, required=True)
    rep.add_argument("--kmax", type=int, default=None, help="section table cutoff (default 2g)")
    rep.add_argument("--format", choices=("text", "json"), default="text")
    rep.set_defaults(func=_cmd_report)

    ver = sub.add_parser("verify", help="property sweep over a (g, n) grid")
    ver.add_argument("--genus-min", type=int, required=True)
    ver.add_argument("--genus-max", type=int, required=True)
    ver.add_argument("--gonality-min", type=int, required=True)
    ver.add_argument("--gonality-max", type=int, required=True)
    ver.add_argument("--format", choices=("text", "json"), default="text")
    ver.set_defaults(func=_cmd_verify)

    twi = sub.add_parser("twist", help="twist a hyperelliptic model to gain a point")
    twi.add_argument(
        "--coeffs",
        required=True,
        help="comma-separated rational coefficients c_0,...,c_{2g+2} of the form",
    )
    twi.add_argument("--a", required=True, help="nonzero scalar of the model a*y^2 = f(x)")
    twi.add_argument("--x0", required=True, help="x-coordinate to twist through")
    twi.add_argument("--format", choices=("text", "json"), default="text")
    twi.set_defaults(func=_cmd_twist)
    return parser


# argparse takes a value such as -5,1 or -3/2 for an option, so a value
# starting with "-" is bound to the option before it, as --opt=value.
_SIGNED_VALUE_OPTIONS = ("--coeffs", "--a", "--x0")


def _bind_signed_values(argv: list[str]) -> list[str]:
    out: list[str] = []
    for arg in argv:
        if out and out[-1] in _SIGNED_VALUE_OPTIONS and arg.startswith("-"):
            out[-1] = f"{out[-1]}={arg}"
        else:
            out.append(arg)
    return out


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(_bind_signed_values(sys.argv[1:] if argv is None else argv))
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except (DomainError, UnsupportedError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        print("error: the request does not fit in memory", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # the reader is gone: point stdout at the null device, so that the
        # flush at exit drops what is left instead of raising again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141


def run() -> NoReturn:
    """The process entry point: main(), the flushes, then os._exit with
    main's code, past the interpreter's teardown.  Atexit handlers do not
    run.  A usage error or an uncaught exception leaves main by the
    normal path."""
    code = main()
    try:
        sys.stdout.flush()
        sys.stderr.flush()
    except BrokenPipeError:
        code = 141
    os._exit(code)


if __name__ == "__main__":
    run()
