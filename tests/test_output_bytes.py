"""Byte-identity of the report and sweep outputs.

The SHA-256 digests below pin the exact bytes of ``emit_json`` and
``render_text``, of ``gonal report``, which streams the same bytes, and of
``gonal verify`` in text and JSON.  A change to any of these outputs must
be intended, documented, and re-pinned here.
"""

import hashlib

import pytest

from gonal import cli
from gonal.report import emit_json, generate_report, parse_json, render_text

# (g, n, k_max): (emit_json digest, render_text digest)
REPORTS = {
    (5, 3, 6): (
        "6cab4d2818eb5cff522a909e4645a6a33b39f638063fb0d019b59fa4f4c9cd2a",
        "eedc62ad75397a02fd471349203debdb7301736c983c16faf87442c0ea79c9d7",
    ),
    (6, 3, 12): (
        "a67ef2f88be4fe10392fd46f5ee3e88cdc447e7d2422fd37fb8ce46bab3667e6",
        "b130f4e6d6081c2ae3c498de8303e235756bb388f8203825561755619e12ae23",
    ),
    (9, 4, 18): (
        "67039ace52543ae6e34d2c5f19f25b4f6ef6c180347d5a2aa9b76a2a797bdf42",
        "a635fb181fb098cabb2806c8172b0ab415a5f18b50d1e024bfb54ecf7a3e5fdb",
    ),
    (12, 5, 24): (
        "0d79508ff962617668ad5c8076295e6f5d0af837c848d33397fdd055f8a02fe7",
        "fceb08cbf2b11d6816fc8c7b56014277861e76fd23cea9ccdf267df059ba6bc6",
    ),
    (41, 7, 82): (
        "b236102c2fefcf213691e68496b1b33d2e9f26504c2450003f1e984cbfa84c40",
        "a5ecc2ff2486342618fae59ecdb48d657d965546899d335e4f1351cdd72d2d51",
    ),
    (2000, 3, 4000): (
        "1c74743101c15927f8ea785cacf30b4120ffb0a9bc6b80523080f13d77e41038",
        "4317f8fc3aabc27a150e3d2c96bd117ee19f10ae51087d255d6db9e913885bbd",
    ),
    (2000, 50, 4000): (
        "bd9810404a716902d2563fe194bcc5a80c8c612c59359792abc44d474261a52d",
        "4336794161bc5479b6e0349752588b9163706e7b17840aa68fb174eed11f091f",
    ),
    # g beyond the 53-bit safe range: the decimal-string path
    ((1 << 60) + 1, 3, 4): (
        "373f62bbe73981a18efd130852f48924af05cb41a019502558684aa48b662386",
        "7e503a07f02fde67815ac9eef6a9a8291cb60a1c6ee0434dbca8be80b4ed2f44",
    ),
    # the sizes of the benchmark's dossier ops
    (12500, 3, 25000): (
        "035bf019b326b94105ed5a639944037f05d3c732bec84f533e81d4e217951513",
        "ca391637f87b1625453d3043d1cf978c6eee948a3c8419b59b9386034491e369",
    ),
    (20000, 3, 40000): (
        "6c4ee1c27ec7a38dab03ac5b1d3f63d9d0eab9f42b593026cc04d901dc9fbfb7",
        "3c77e4483d4cbf1f201d94092c92275e1ed39288d64eb7a034f739bd086961be",
    ),
    (15000, 27, 30000): (
        "1439e537aa92ad0aba97dfff46b97dbbaa04280058ac504c0032dda3067b1e80",
        "d29d44a4df447870ed679a7f1d712d9fcb05fbf825c4d1d41b6b18affa4f9865",
    ),
}

VERIFY_JSON = "4f927c93774cda3e712ebc53f27a8804d86bf3bf046e8ce6f79887dadbddffaa"
VERIFY_TEXT = "fef68fcf21dfe9ce321a1bf04f903be862be1eb783de66ab6c023fa89b5e6027"

# One digest over many outputs, fed in a fixed order: emit_json then
# render_text of every report on the grid, and verify text then JSON.
REPORT_GRID = "dfe23421cc4f67c2014d7ea815206db130bd6b00d5e99f763456d70caf9c083d"
VERIFY_GRID = "e3206afea1c3eefd8231017076d1f24e1577191ac49596c1a05601418209cc5a"


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("case", sorted(REPORTS))
def test_report_bytes(case):
    report = generate_report(*case)
    text = emit_json(report)
    assert (sha256(text), sha256(render_text(report))) == REPORTS[case]
    assert parse_json(text) == report


@pytest.mark.parametrize("fmt", ["json", "text"])
@pytest.mark.parametrize("case", [(12500, 3, 25000), (20000, 3, 40000), (15000, 27, 30000)])
def test_streamed_report_bytes(capsys, case, fmt):
    g, n, k_max = case
    code = cli.main(
        ["report", "--genus", str(g), "--gonality", str(n), "--kmax", str(k_max),
         "--format", fmt]
    )
    assert code == 0
    assert sha256(capsys.readouterr().out) == REPORTS[case][fmt == "text"]


def test_verify_json_bytes(capsys):
    code = cli.main(
        ["verify", "--genus-min", "5", "--genus-max", "30",
         "--gonality-min", "3", "--gonality-max", "6", "--format", "json"]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert '"checked": 2258' in out and '"skipped": 12' in out
    assert sha256(out) == VERIFY_JSON


def test_verify_text_bytes(capsys):
    code = cli.main(
        ["verify", "--genus-min", "5", "--genus-max", "30",
         "--gonality-min", "3", "--gonality-max", "6"]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert sha256(out) == VERIFY_TEXT


def test_report_grid_bytes():
    digest = hashlib.sha256()
    for n in range(3, 11):
        for g in range(2 * n - 1, 81):
            for k_max in (0, 2 * g):
                report = generate_report(g, n, k_max)
                digest.update(emit_json(report).encode())
                digest.update(render_text(report).encode())
    assert digest.hexdigest() == REPORT_GRID


def test_verify_grid_bytes(capsys):
    digest = hashlib.sha256()
    for fmt in ("text", "json"):
        code = cli.main(
            ["verify", "--genus-min", "0", "--genus-max", "40",
             "--gonality-min", "0", "--gonality-max", "12", "--format", fmt]
        )
        out = capsys.readouterr().out
        assert code == 0
        digest.update(out.encode())
    assert '"checked": 6402' in out and '"skipped": 263' in out
    assert digest.hexdigest() == VERIFY_GRID
