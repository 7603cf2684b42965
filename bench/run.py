"""Benchmark of the gonal CLI: end-to-end runs and a traced per-layer run.

Run from the root of a checkout:

    python3 bench/run.py --workload sweep --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1   # every workload, one after another

With ``--trace 0`` each op is one `gonal` subprocess, interpreter start
included, in a closed loop: one client, the next op only after the
previous one exited.  A run is as many whole blocks of ops as fit
``--seconds`` by their nominal length, at least one.  Every output is
checked.  A gauge of fixed plain-Python work (``gauge.py``) is timed
before the first op and after every op and set-up sample; every time
metric is the wall time scaled by the gauge readings around it, so that
drift in the shared host's speed cancels out.  Raw wall times are
printed beside them and kept in the result file.

With ``--trace 1`` the trace sample of the first block runs three ways: as
subprocesses, in process untraced, and in process under the span tracer
of ``spans.py``; then the fixed cases run once, timed directly.  That
run does a fixed amount of work, so its call counts repeat exactly.

The last line of stdout is one JSON object: correct, attempted, failed
and the metrics named in BENCHMARK.json.  A result file with the
environment and every sample goes to ``--out``.
"""

import argparse
import compileall
import hashlib
import io
import json
import math
import os
import platform
import random
import selectors
import statistics
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter

import gauge
import spans
import workloads

BENCH_DIR = Path(__file__).resolve().parent
SETUP_REPS = 15
OP_TIMEOUT_S = 120


def _fail(msg: str) -> None:
    print(f"error: {msg}", file=sys.stderr)
    raise SystemExit(2)


def parse_args(argv=None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=("sweep", "dossier", "twist", "all"))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="tiny inputs, for the smoke test")
    ap.add_argument("--out", default=str(BENCH_DIR / "results"), help="directory for result files")
    return ap.parse_args(argv)


# --------------------------------------------------------------------------
# running ops


class Runner:
    """Runs ops against the package under ``src`` of the checkout."""

    def __init__(self, src: Path) -> None:
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(src), os.environ.get("PYTHONPATH")) if p
        )

    def cli(self, argv) -> tuple[float, int | None, str, str, float]:
        """One `gonal` subprocess: (seconds from spawn to exit with stdout
        read, exit code or None on timeout, stdout, stderr, child max RSS
        in MiB)."""
        cmd = [sys.executable, "-m", "gonal", *argv]
        t0 = perf_counter()
        p = subprocess.Popen(cmd, env=self.env, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        try:
            out, err = _drain(p, t0 + OP_TIMEOUT_S)
        except TimeoutError:
            p.kill()
            os.wait4(p.pid, 0)
            p.returncode = -9
            return perf_counter() - t0, None, "", f"timeout after {OP_TIMEOUT_S} s", 0.0
        # wait4, not Popen.wait, so that this child's own peak RSS is known
        _, status, usage = os.wait4(p.pid, 0)
        dt = perf_counter() - t0
        p.returncode = os.waitstatus_to_exitcode(status)
        return dt, p.returncode, out.decode(), err.decode(), usage.ru_maxrss / 1024

    def setup_time(self) -> float:
        """Wall time of a fresh interpreter running `import gonal.cli`."""
        t0 = perf_counter()
        subprocess.run([sys.executable, "-c", "import gonal.cli"], env=self.env, capture_output=True, check=True)
        return perf_counter() - t0


def _drain(p: subprocess.Popen, deadline: float) -> tuple[bytes, bytes]:
    """Read a child's stdout and stderr to EOF, or raise TimeoutError."""
    chunks = {p.stdout: [], p.stderr: []}
    with selectors.DefaultSelector() as sel:
        for pipe in chunks:
            sel.register(pipe, selectors.EVENT_READ)
        while sel.get_map():
            remaining = deadline - perf_counter()
            if remaining <= 0:
                raise TimeoutError
            for key, _ in sel.select(remaining):
                data = os.read(key.fd, 1 << 16)
                if data:
                    chunks[key.fileobj].append(data)
                else:
                    sel.unregister(key.fileobj)
    for pipe in chunks:
        pipe.close()
    return b"".join(chunks[p.stdout]), b"".join(chunks[p.stderr])


def in_process(argv) -> tuple[float, int, str, str, float]:
    """gonal.cli.main(argv) in this interpreter, output captured."""
    import gonal.cli

    out, err = io.StringIO(), io.StringIO()
    t0 = perf_counter()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            rc = gonal.cli.main(list(argv))
        except SystemExit as exc:  # argparse usage errors
            rc = exc.code
    return perf_counter() - t0, rc, out.getvalue(), err.getvalue(), 0.0


def _record(samples: list, failures: list, op, dt, rc, out, err, rss_mib, check) -> None:
    reason, items = ("timeout", 0) if rc is None else check(op, rc, out, err)
    samples.append({"kind": op.kind, "seconds": dt, "ok": reason is None, "items": items, "rss_mib": rss_mib})
    if reason is not None:
        failures.append({"argv": list(op.argv), "reason": reason})


# --------------------------------------------------------------------------
# end-to-end run


def tail(times: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with ten samples beyond it.

    With ten samples or fewer no percentile has ten beyond; the maximum is
    returned with percentile 100.
    """
    xs = sorted(times)
    if len(xs) <= 10:
        return xs[-1], 100.0
    return xs[-11], 100.0 * (len(xs) - 10) / len(xs)


def end_to_end(workload, scale, args, runner: Runner) -> tuple[dict, dict]:
    setup_reps = 3 if args.tiny else SETUP_REPS
    rng = random.Random(f"{workload.name}:{args.seed}")
    ops = []
    for _ in range(max(1, round(args.seconds / workload.block_s))):
        ops += workload.block(rng, scale)
    # set-up samples are spread over the ops, so a burst of load from
    # elsewhere on the machine cannot hit all of them
    setup_before = [0] * len(ops)
    for k in range(setup_reps):
        setup_before[k * len(ops) // setup_reps] += 1

    # every op and set-up sample runs between two gauge readings
    g = gauge.Gauge()
    g.read()
    setup, setup_spans, samples, failures = [], [], [], []
    t_start = perf_counter()
    for i, op in enumerate(ops):
        for _ in range(setup_before[i]):
            t0 = perf_counter()
            setup.append(runner.setup_time())
            setup_spans.append((t0, perf_counter()))
            g.read()
        t0 = perf_counter()
        _record(samples, failures, op, *runner.cli(op.argv), workload.check)
        samples[-1]["span"] = (t0, perf_counter())
        g.read()
    measured_s = perf_counter() - t_start
    for s in samples:
        s["scaled_seconds"] = g.scale(s["seconds"], *s["span"])
        s["span"] = [t - t_start for t in s["span"]]  # seconds into the run
    setup_s = [g.scale(wall, *span) for wall, span in zip(setup, setup_spans)]
    times = [s["scaled_seconds"] for s in samples]
    tail_value, tail_pct = tail(times)
    items_per_s = sum(s["items"] for s in samples) / sum(times)
    failed = sum(1 for s in samples if not s["ok"])
    metrics = {
        "setup_s": (statistics.median(setup_s), "s"),
        "op_s.p50": (statistics.median(times), "s"),
        "op_s.tail": (tail_value, "s"),
        "items_per_s": (items_per_s, "1/s"),
        "peak_rss_mb": (max(s["rss_mib"] for s in samples), "MiB"),
    }
    walls = [s["seconds"] for s in samples]
    notes = {
        "setup_s": f"median of {len(setup_s)} interpreter starts; wall {statistics.median(setup):.4f} s",
        "op_s.p50": f"wall {statistics.median(walls):.4f} s",
        "op_s.tail": f"p{tail_pct:.1f} of {len(times)} ops; wall {tail(walls)[0]:.4f} s",
        "items_per_s": f"= {workload.items}; wall {sum(s['items'] for s in samples) / sum(walls):.2f} 1/s",
        "ops_failed_ratio": f"{failed / len(samples):.4f} ({failed} of {len(samples)})",
    }
    detail = {
        "attempted": len(samples),
        "failed": failed,
        "measured_s": measured_s,
        "tail_percentile": tail_pct,
        "tail_samples": len(times),
        "ops_failed_ratio": failed / len(samples),
        "items_alias": workload.items,
        "gauge_ref_s": gauge.REF_S,
        "gauge_window_s": gauge.WINDOW_S,
        "gauge_median_s": statistics.median(g.seconds()),
        "gauge_samples_s": g.seconds(),
        "gauge_at_s": [t - t_start for t, _ in g.readings],
        "setup_samples_s": [{"seconds": w, "scaled_seconds": v} for w, v in zip(setup, setup_s)],
        "samples": samples,
        "failures": failures[:20],
        "notes": notes,
    }
    return metrics, detail


# --------------------------------------------------------------------------
# traced run


def trace_sample(workload, block: list) -> list:
    """The ops traced in process: the first ones of each kind in the block."""
    return [
        op
        for kind, count in workload.trace_sample.items()
        for op in [op for op in block if op.kind == kind][:count]
    ]


def layer_metrics(tracer: spans.Tracer) -> dict:
    """Per-layer metrics from the spans of the traced ops."""
    rows = spans.summarize(tracer)
    by_layer = {layer: {"calls": 0, "self_ns": 0, "distinct": 0} for layer in spans.LAYERS}
    for name, row in rows.items():
        layer = name.split(".", 1)[0]
        if layer in by_layer:
            for field in by_layer[layer]:
                by_layer[layer][field] += row[field]

    def calls(name):
        return rows.get(name, {}).get("calls", 0)

    def incl_s(name):
        return rows.get(name, {}).get("incl_ns", 0) / 1e9

    m = {}
    for layer, tot in by_layer.items():
        m[f"{layer}.calls"] = (tot["calls"], "count")
        m[f"{layer}.self_s"] = (tot["self_ns"] / 1e9, "s")
    for layer in spans.KEYED_LAYERS:
        tot = by_layer[layer]
        m[f"{layer}.distinct_ratio"] = (tot["distinct"] / tot["calls"] if tot["calls"] else 0.0, "ratio")
    m["scroll.generic_scroll.calls"] = (calls("scroll.generic_scroll"), "count")
    m["invariants.section_evals"] = (calls("invariants.ballico_h0") + calls("invariants.maroni_h0"), "count")
    m["hirzebruch.bundle_cohomology.calls"] = (calls("hirzebruch.bundle_cohomology"), "count")
    m["hyperelliptic.gcd_s"] = (incl_s("hyperelliptic._gcd_degree"), "s")
    m["hyperelliptic.resultant_s"] = (incl_s("hyperelliptic._resultant_nonzero"), "s")
    m["hyperelliptic.prime_check_s"] = (spans.incl_ns_with_key(tracer, spans.BINARY_FORM_INIT, 1) / 1e9, "s")
    m["report.generate_s"] = (incl_s("report.generate_report"), "s")
    m["report.emit_json_s"] = (incl_s("report.emit_json"), "s")
    m["report.parse_json_s"] = (incl_s("report.parse_json"), "s")
    m["report.render_text_s"] = (incl_s("report.render_text"), "s")
    m["report.json_bytes"] = (tracer.json_bytes, "bytes")
    m["report.sweep.self_s"] = (rows.get("report.sweep_verify", {}).get("self_ns", 0) / 1e9, "s")
    return m


def fixed_cases(scale, rng: random.Random) -> tuple[dict, list]:
    """The ROADMAP's fixed layer cases, timed directly (not traced)."""
    import gonal

    m, failures = {}, []

    def timed(name, fn, *a, **kw):
        t0 = perf_counter()
        value = fn(*a, **kw)
        m[name] = (perf_counter() - t0, "s")
        return value

    g = scale.fixed_report_genus
    for n in (3, 50):
        case = f"fixed.report_n{n}"
        rep = timed(f"{case}.generate_s", gonal.generate_report, g, n, 2 * g)
        text = timed(f"{case}.emit_json_s", gonal.emit_json, rep)
        back = timed(f"{case}.parse_json_s", gonal.parse_json, text)
        timed(f"{case}.render_text_s", gonal.render_text, rep)
        expect = {"g": g, "n": n, "k_max": 2 * g}
        reason = "round trip differs" if back != rep else workloads.check_report(expect, back)[0]
        if reason:
            failures.append({"case": case, "reason": reason})
    for role, genus in zip(("mid", "high"), scale.fixed_discriminant_genus):
        cs = workloads.random_squarefree_form(rng, genus)
        form = gonal.BinaryForm(len(cs) - 1, tuple(cs))
        for method in ("gcd", "resultant"):
            if timed(f"fixed.discriminant_{role}.{method}_s", gonal.discriminant_nonzero, form, method) is not True:
                failures.append({"case": f"discriminant_{role}.{method}", "reason": "squarefree form refused"})
    form = timed("fixed.prime_form.construct_s", gonal.BinaryForm, 6, (1, 0, 0, 0, 0, 0, 1), p=scale.fixed_prime)
    if form.coefficients != (1, 0, 0, 0, 0, 0, 1):
        failures.append({"case": "prime_form", "reason": f"coefficients {form.coefficients}"})
    return m, failures


def traced(workload, scale, args, runner: Runner, out_dir: Path) -> tuple[dict, dict]:
    sample = trace_sample(workload, workload.block(random.Random(f"{workload.name}:{args.seed}"), scale))
    reps = math.ceil(3 / len(sample))  # at least three ops on each side of cli.overhead_s
    samples, failures = [], []
    for op in sample * reps:
        _record(samples, failures, op, *runner.cli(op.argv), workload.check)
    sub_times = [s["seconds"] for s in samples]
    for op in sample * reps:
        _record(samples, failures, op, *in_process(op.argv), workload.check)
    inproc_times = [s["seconds"] for s in samples[len(sub_times):]]

    tracer = spans.Tracer()
    traced_s = 0.0
    with tracer:
        for op in sample:
            with tracer.span("bench.op"):
                result = in_process(op.argv)
            traced_s += result[0]
            with tracer.span("bench.check"):
                _record(samples, failures, op, *result, workload.check)

    m = layer_metrics(tracer)
    m["cli.overhead_s"] = (statistics.median(sub_times) - statistics.median(inproc_times), "s")
    m["trace.overhead_ratio"] = (traced_s / sum(inproc_times[: len(sample)]), "ratio")
    fixed, fixed_failures = fixed_cases(scale, random.Random(f"fixed:{args.seed}"))
    m.update(fixed)

    spans_path = out_dir / f"SPANS_{workload.name}_seed{args.seed}.gz"
    tracer.write(spans_path)
    failed = sum(1 for s in samples if not s["ok"]) + len(fixed_failures)
    detail = {
        "attempted": len(samples) + len(fixed),
        "failed": failed,
        "trace_sample": [op.kind for op in sample],
        "spans": len(tracer),
        "spans_file": str(spans_path),
        "samples": samples,
        "failures": (failures + fixed_failures)[:20],
        "fixed_sizes": {
            "report_genus": scale.fixed_report_genus,
            "discriminant_genus": dict(zip(("mid", "high"), scale.fixed_discriminant_genus)),
            "prime": scale.fixed_prime,
        },
        "notes": {"trace.overhead_ratio": "traced / untraced in-process wall time"},
    }
    return m, detail


# --------------------------------------------------------------------------
# environment and output


def environment(root: Path, src: Path) -> dict:
    digest = hashlib.sha256()
    for path in sorted((src / "gonal").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    revision = None
    if (root / ".git").exists():
        try:
            revision = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=30
            ).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "python": sys.version.split()[0],
        "implementation": platform.python_implementation(),
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        "git_revision": revision,
        "source_sha256": digest.hexdigest(),
    }


def expected_metrics(trace: int) -> list[str]:
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def run_one(name: str, args, root: Path, src: Path, runner: Runner) -> dict:
    workload = workloads.WORKLOADS[name]
    scale = workloads.TINY if args.tiny else workloads.FULL
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    if args.trace:
        metrics, detail = traced(workload, scale, args, runner, out_dir)
    else:
        metrics, detail = end_to_end(workload, scale, args, runner)
    missing = [m for m in expected_metrics(args.trace) if m not in metrics]
    if missing:
        raise RuntimeError(f"metrics missing from the {name} run: {missing}")
    result = {
        "workload": name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "tiny": args.tiny,
        "environment": environment(root, src),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        **detail,
    }
    path = out_dir / f"BENCH_{name}_seed{args.seed}_trace{args.trace}.json"
    path.write_text(json.dumps(result, indent=1) + "\n")

    print(f"== {name}  seed {args.seed}  trace {args.trace}  attempted {detail['attempted']}  failed {detail['failed']}")
    for key, (value, unit) in metrics.items():
        note = detail["notes"].get(key, "")
        print(f"  {key:<42} {value!r:>24} {unit:<6} {note}")
    if "ops_failed_ratio" in detail["notes"]:
        print(f"  {'ops_failed_ratio':<42} {detail['notes']['ops_failed_ratio']:>24}")
    for failure in detail["failures"][:5]:
        print(f"  FAILED {failure}")
    print(f"  result file {path}")
    return result


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    src = root / "src"
    if not (src / "gonal" / "cli.py").is_file():
        _fail(f"no gonal package under {src}; run from the root of a gonal checkout")
    sys.path.insert(0, str(src))
    import gonal

    if Path(gonal.__file__).resolve().parent != (src / "gonal").resolve():
        _fail(f"imported gonal from {gonal.__file__}, not from {src}")
    # Installed packages ship compiled bytecode.  Write it here, even where
    # PYTHONDONTWRITEBYTECODE is set, so that no timed start compiles gonal.
    if not compileall.compile_dir(src / "gonal", quiet=1):
        _fail(f"gonal under {src} does not compile")
    runner = Runner(src)
    try:
        runner.setup_time()  # warm-up: the file cache, untimed
    except subprocess.CalledProcessError as exc:
        _fail(f"`import gonal.cli` fails in a fresh interpreter: {exc.stderr.decode()[-300:]}")

    names = ("sweep", "dossier", "twist") if args.workload == "all" else (args.workload,)
    results = [run_one(name, args, root, src, runner) for name in names]
    keep = expected_metrics(args.trace)
    if len(results) == 1:
        metrics = {k: results[0]["metrics"][k] for k in keep}
    else:
        metrics = {f"{r['workload']}.{k}": r["metrics"][k] for r in results for k in keep}
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
