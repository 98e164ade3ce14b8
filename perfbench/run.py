"""Host-time benchmark of the DistMSM reproduction.

    python3 perfbench/run.py --workload msm-bls12-381 --seed 1 --seconds 20 --trace 0

Run from the repository root.  One process, one caller, no threads: each
timed operation starts when the previous one returns.

``--trace 0`` measures the end-to-end metrics with no instrumentation:
set-up time (the median of the workload's ``setup_runs`` set-ups: this
process's and the rest each in a fresh process, so that no process-global
cache is warm), peak resident memory, and the work done per host
second.  Both timings are
reported at reference speed: divided by the host's slowdown, which a fixed
kernel timed around each set-up and operation measures (``refspeed.py``).
The measured times are printed beside them.

``--trace 1`` wraps the public functions of each layer (see ``spans.py``),
traces one set-up and a fixed number of operations, each paired with an
untraced twin on the same input, and reports per-layer self times, their
shares of the traced total, exact work counts and the modelled GPU values
of the same calls.  The spans are written once, at the end, as Chrome
trace-event JSON under ``.perfbench_out/traces/``.

Every operation's output is checked outside the timed region.  Counts and
modelled values must repeat exactly across all runs of one seed, traced or
not: they are compared against ``.perfbench_out/exact/``, keyed by the
workload, the seed and a hash of the program's sources.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the metric names and units are
the ones ``BENCHMARK.json`` declares.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from refspeed import NOMINAL_S, Gauge

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"
PROBE_TIMEOUT_S = 150
WALL_TOLERANCE = 0.01  # operation spans may miss this share of the traced wall time


def fail(message: str, code: int = 2) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return code


def sources_fingerprint() -> str:
    """A hash of the program and benchmark sources (keys the exact-value file)."""
    h = hashlib.sha256()
    for base in (ROOT / "src", Path(__file__).resolve().parent):
        for path in sorted(base.rglob("*")):
            if path.is_file() and "__pycache__" not in path.parts:
                h.update(str(path.relative_to(ROOT)).encode())
                h.update(path.read_bytes())
    return h.hexdigest()[:16]


def exactness_guard(workload: str, seed: int, values: dict) -> list[str]:
    """Compare this run's exact values with every earlier run of the seed."""
    directory = OUT / "exact"
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / f"{workload}-seed{seed}-{sources_fingerprint()}.json"
    known = json.loads(path.read_text()) if path.exists() else {}
    values = {k: repr(v) for k, v in values.items()}
    problems = [
        f"exactness: {k} = {v}, an earlier run of seed {seed} had {known[k]}"
        for k, v in sorted(values.items())
        if k in known and known[k] != v
    ]
    if not problems:
        known.update(values)
        tmp = path.with_suffix(f".{os.getpid()}.tmp")
        tmp.write_text(json.dumps(known, indent=1, sort_keys=True))
        tmp.replace(path)
    return problems


def prefixed(prefix: str, values: dict) -> dict:
    return {f"{prefix}.{k}": v for k, v in values.items()}


def timed_setup(w) -> tuple[float, float]:
    """Set-up time, raw and at reference speed."""
    gauge = Gauge(w.reference)
    before = gauge.read()
    start = time.perf_counter()
    w.setup()
    raw = time.perf_counter() - start
    return raw, raw / gauge.slowdown(before, gauge.read())


def setup_probe(name: str, seed: int) -> tuple[float, float]:
    """Set-up time measured in a fresh process."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", name,
         "--seed", str(seed), "--setup-probe"],
        cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return result["raw_s"], result["setup_s"]


class Tally:
    """Attempted and failed operations, plus reasons the run is wrong."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(f"output check failed: {what}")


def run_untraced(w, seconds: float, tally: Tally) -> tuple[dict, list[str]]:
    # this process plus setup_runs - 1 fresh ones
    setups = [setup_probe(w.name, w.seed) for _ in range(w.setup_runs - 1)]
    setups.append(timed_setup(w))

    exact = {}
    if w.warmup is not None:
        inp, out = w.warmup
        w.warmup = None
        tally.check(w.check(inp, out), "set-up warm-up operation")
        exact.update(prefixed("warmup", w.exact(out)))
        del inp, out

    samples: list[dict] = []
    measured = 0.0
    i = 0
    gauge = Gauge(w.reference)
    before = gauge.read()
    while measured < seconds:
        inp = w.make_input(i)
        start = time.perf_counter()
        out = w.op(inp)
        op_s = time.perf_counter() - start
        measured += op_s
        after = gauge.read()
        slowdown = gauge.slowdown(before, after)
        before = after
        tally.check(w.check(inp, out), f"operation {i}")
        op_exact = w.exact(out)
        exact.update(prefixed(f"op{i}", op_exact))
        if i == 0:
            first = op_exact
        elif w.replays and op_exact != first:
            tally.problems.append(f"exactness: operation {i} differs from operation 0")
        sample = {"op_s": op_s, "items": w.items(out), "slowdown": slowdown}
        if isinstance(out, dict):  # per-stage timings (Groth16 prove / verify)
            sample.update({k: v for k, v in out.items() if k.endswith("_s")})
        samples.append(sample)
        # release this operation's state, so peak RSS counts one operation
        del inp, out
        i += 1
    for ok in w.extra_checks():
        tally.check(ok, "extra check")
    tally.problems += exactness_guard(w.name, w.seed, exact)

    values = {
        "setup_s": statistics.median(ref for _, ref in setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "items_per_s": statistics.median(
            s["items"] * s["slowdown"] / s["op_s"] for s in samples
        ),
    }
    n = len(samples)
    row = "  {:<26}{:>14.4f} {:<12} {}".format
    lines = [
        f"{w.name} seed {w.seed}: untraced, {n} operations in {measured:.1f} s; "
        f"host slowdown {statistics.median(s['slowdown'] for s in samples):.3f} "
        f"(median; {w.reference} kernel over {NOMINAL_S} s)",
        row("setup_s", values["setup_s"], "s", f"at reference speed, median of {len(setups)} set-ups"),
        row("peak_rss_mb", values["peak_rss_mb"], "MiB", "1 process"),
        row("items_per_s", values["items_per_s"], f"{w.item}/s", f"at reference speed, median of {n}"),
        row("raw setup_s", statistics.median(raw for raw, _ in setups), "s", f"measured, median of {len(setups)}"),
    ]
    for name, value, unit in w.headline(samples):
        lines.append(row(name, value, unit, f"measured, median of {n}"))
    return values, lines


def run_traced(w, seconds: float, tally: Tally, layer_names: list[str]) -> tuple[dict, list[str]]:
    from spans import LAYERS, SpanRecorder

    ops = max(1, int(seconds / (2 * w.nominal_op_s)))
    rec = SpanRecorder(time.perf_counter, w.name, f"{w.name}/seed{w.seed}/ops{ops}")
    with rec.installed(), rec.span(f"{w.name}.setup"):
        w.setup()

    traced_exacts = []
    exact = {}
    if w.warmup is not None:
        inp, out = w.warmup
        w.warmup = None
        tally.check(w.check(inp, out), "set-up warm-up operation")
        traced_exacts.append(w.exact(out))
        exact.update(prefixed("warmup", traced_exacts[-1]))
        del inp, out

    wall = {False: 0.0, True: 0.0}

    def twin(i: int, traced: bool) -> dict:
        inp = w.make_input(i)
        with rec.installed() if traced else contextlib.nullcontext():
            start = time.perf_counter()
            with rec.span(f"{w.name}.op") if traced else contextlib.nullcontext():
                out = w.op(inp)
            wall[traced] += time.perf_counter() - start
        tally.check(w.check(inp, out), f"{'traced' if traced else 'untraced'} operation {i}")
        return w.exact(out)

    for i in range(ops):
        # alternate which twin runs first, so warm-up effects cancel
        if i % 2 == 0:
            plain, traced = twin(i, False), twin(i, True)
        else:
            traced, plain = twin(i, True), twin(i, False)
        if traced != plain:
            tally.problems.append(f"exactness: traced operation {i} differs from untraced: {traced} != {plain}")
        exact.update(prefixed(f"op{i}", plain))
        traced_exacts.append(traced)
    for ok in w.extra_checks():
        tally.check(ok, "extra check")

    values = {name: 0.0 for name in layer_names}
    selfs = rec.self_seconds()
    total = sum(span.duration_s for span in rec.roots())
    for layer in LAYERS:
        values[f"{layer}.self_s"] = selfs.get(layer, 0.0)
        values[f"{layer}.share"] = selfs.get(layer, 0.0) / total
    other = selfs.get(f"{w.name}.setup", 0.0) + selfs.get(f"{w.name}.op", 0.0)
    values[f"{w.name}.other_s"] = other
    values["trace.total_s"] = total
    values["trace.timed_ops"] = ops
    values["trace.overhead_frac"] = wall[True] / wall[False] - 1.0
    counts = {
        "core.estimate.calls": rec.calls.get("core.estimate", 0),
        "zksnark.g1_mul.calls": rec.calls.get("zksnark.g1_mul", 0),
        "zksnark.g2_mul.calls": rec.calls.get("zksnark.g2_mul", 0),
        "engine.simulate.tasks": rec.tallies.get("engine.simulate", 0),
        "msm.pippenger.points": rec.tallies.get("msm.pippenger", 0),
    }
    counts.update(w.aggregate(traced_exacts))
    values.update(counts)
    exact.update(prefixed(f"traced{ops}", counts))
    micro = w.micro()
    values.update(micro)

    # the span tree against what it should record
    tally.problems += rec.check_nesting()
    if set(selfs) - set(LAYERS) - {f"{w.name}.setup", f"{w.name}.op"}:
        tally.problems.append(f"unexpected spans: {sorted(selfs)}")
    unentered = [layer for layer in w.layers if not rec.calls.get(layer)]
    if unentered:
        tally.problems.append(f"layers never entered (wrapper not installed?): {unentered}")
    # the operation spans against the clock twin() reads on its own
    op_spans_s = sum(s.duration_s for s in rec.roots() if s.name == f"{w.name}.op")
    if not 0.0 <= wall[True] - op_spans_s <= WALL_TOLERANCE * wall[True]:
        tally.problems.append(
            f"operation spans cover {op_spans_s} s of {wall[True]} s of traced wall time"
        )
    if w.replays and any(e != traced_exacts[0] for e in traced_exacts):
        tally.problems.append("exactness: replaying the same input gave different outputs")
    tally.problems += exactness_guard(w.name, w.seed, exact)

    traces = OUT / "traces"
    traces.mkdir(parents=True, exist_ok=True)
    trace_path = traces / f"{w.name}-seed{w.seed}.json"
    trace_path.write_text(json.dumps(rec.chrome_trace()))

    lines = [
        f"{w.name} seed {w.seed}: traced set-up + {ops} operations "
        f"(each with an untraced twin), {len(rec.spans)} spans -> "
        f"{trace_path.relative_to(ROOT)}",
        f"  {'trace.total_s':<32}{total:>14.4f} s",
        f"  {'trace.overhead_frac':<32}{values['trace.overhead_frac']:>14.4f}",
    ]
    for layer in sorted(LAYERS, key=lambda n: -values[f"{n}.self_s"]):
        if values[f"{layer}.self_s"] > 0:
            lines.append(
                f"  {layer + '.self_s':<32}{values[layer + '.self_s']:>14.4f} s  "
                f"share {values[layer + '.share']:.4f}"
            )
    lines.append(f"  {w.name + '.other_s':<32}{other:>14.4f} s  share {other / total:.4f}")
    for name in sorted(counts) + sorted(micro):
        lines.append(f"  {name:<32}{values[name]:>14}")
    return values, lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        return fail(f"no program sources under {ROOT / 'src'}; run from a full checkout")
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        return fail("BENCHMARK.json not found at the repository root")
    spec = json.loads(spec_path.read_text())
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        return fail(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    w = WORKLOADS[args.workload](args.seed)

    if args.setup_probe:
        raw, ref = timed_setup(w)
        print(json.dumps({"raw_s": raw, "setup_s": ref}))
        return 0

    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    tally = Tally()
    if args.trace:
        values, lines = run_traced(w, args.seconds, tally, [m["name"] for m in declared])
    else:
        values, lines = run_untraced(w, args.seconds, tally)
    if set(values) != {m["name"] for m in declared}:
        missing = sorted({m["name"] for m in declared} - set(values))
        extra = sorted(set(values) - {m["name"] for m in declared})
        return fail(f"metrics differ from BENCHMARK.json: missing {missing}, undeclared {extra}")

    for line in lines:
        print(line)
    for problem in tally.problems:
        print(f"perfbench: {problem}", file=sys.stderr)
    correct = not tally.problems and tally.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {
            m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
