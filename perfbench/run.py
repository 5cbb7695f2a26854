"""Benchmark of the ``capacity`` CLI, end to end and layer by layer.

    python3 perfbench/run.py --workload binary-sweep --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 1

One operation is one CLI invocation: ``chancap.cli.run(argv)`` in this
process, or, for ``cli-cold``, the console-script equivalent
(``capacity_launcher.py``) as a child process.  The loop is closed: one
caller, one operation in flight.  Every report is checked against an
independent numpy bracket (``check.py``).

``--trace 0`` runs blocks for ``--seconds`` and prints the end-to-end
metrics, each time scaled to the reference host speed (``HostSpeed``).
``--trace 1`` instead runs a fixed prefix of blocks three times, once
untraced and twice with every public function of the package wrapped
(``spans.py``), prints the per-layer metrics of the first traced pass and
checks that the counts of all passes agree exactly.  The last line of stdout
is one JSON object: correct, attempted, failed, metrics.
"""

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench-out")
LAUNCHER = os.path.join(HERE, "capacity_launcher.py")
TRACE_ENV = "PERFBENCH_TRACE_FILE"
#: Set-up runs per benchmark run; setup_s is their median.
SETUP_REPEATS = 11
#: Reference loop sizes, and its time on the host of the baseline (see
#: README.md), at which times are reported; it is sampled at most this often.
REFERENCE_LOOP = 60_000
REFERENCE_NUMPY = 600
REFERENCE_S = 0.010
SAMPLE_EVERY_S = 0.25
#: A single child process taking longer than this is killed and counted failed.
CHILD_TIMEOUT_S = 60.0

import check  # noqa: E402
import numpy  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


class InProcess:
    """Runs ``chancap.cli.run(argv)`` here, capturing the report."""

    def __init__(self):
        from chancap import cli

        self.cli = cli

    def __call__(self, op):
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            t0 = time.perf_counter()
            try:
                code = self.cli.run(op.argv)  # looked up per call, so tracing sees it
            except Exception as exc:  # a crash is a failed operation, not a dead benchmark
                code = f"raised {exc!r}"
            t1 = time.perf_counter()
        return t0, t1, code, out.getvalue()

    @staticmethod
    def peak_rss_mb():
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Subprocess:
    """Runs the console-script equivalent as a child process per operation."""

    PEAK_PREFIX = "perfbench-peak-rss-kb "

    def __init__(self):
        self.env = {k: v for k, v in os.environ.items() if k != TRACE_ENV}
        self.peak_kb = 0

    def __call__(self, op, trace_file=None):
        env = self.env if trace_file is None else {**self.env, TRACE_ENV: trace_file}
        t0 = time.perf_counter()
        try:
            proc = subprocess.run(
                [sys.executable, LAUNCHER, *op.argv],
                cwd=ROOT,
                env=env,
                capture_output=True,
                text=True,
                timeout=CHILD_TIMEOUT_S,
            )
            code, out = proc.returncode, proc.stdout
        except subprocess.TimeoutExpired:
            code, out, proc = "timed out", "", None
        t1 = time.perf_counter()
        if proc is not None and trace_file is None:
            last = proc.stderr.rstrip().rpartition("\n")[2]
            if last.startswith(self.PEAK_PREFIX):
                self.peak_kb = max(self.peak_kb, int(last[len(self.PEAK_PREFIX) :]))
            else:  # a missing peak is a failed measurement, not a zero
                code = f"exit code {code}, no peak RSS line"
        return t0, t1, code, out

    def peak_rss_mb(self):
        """Largest peak resident set (VmHWM) a child reported for itself."""
        return self.peak_kb / 1024.0


class HostSpeed:
    """Times a fixed reference loop between operations, to track host speed.

    The machine this runs on may speed up or slow down by a third over
    minutes, alike for the package and for the loop.  Scaling every time of a
    run by ``factor()`` reports it at the speed the host had when
    ``REFERENCE_S`` was taken, which cancels that drift.  The loop is the
    benchmark's own code, so no change to the package can move it.
    """

    def __init__(self):
        self.samples = []
        self.last = float("-inf")

    def sample(self):
        t0 = time.perf_counter()
        reference_work()
        self.last = time.perf_counter()
        self.samples.append(self.last - t0)

    def maybe_sample(self):
        """Sample if the last sample is SAMPLE_EVERY_S old."""
        if time.perf_counter() - self.last >= SAMPLE_EVERY_S:
            self.sample()

    def factor(self):
        return REFERENCE_S / statistics.median(self.samples)


def reference_work():
    """Fixed work of both kinds the package does: interpreted loops and small numpy calls."""
    total = 0
    for i in range(REFERENCE_LOOP):
        total += i * i
    v = numpy.linspace(0.5, 1.0, 64)
    for _ in range(REFERENCE_NUMPY):
        v = numpy.exp2(numpy.log2(v) - v.max())
        v /= v.sum()
    return total, v


class Pass:
    """Runs whole blocks of a workload, checking each block's reports after it."""

    def __init__(self):
        self.timings = []  # (t0, t1) per op
        self.block_s = []
        self.block_counts = []  # per block: (ops, failed, unconverged, report sweeps)
        self.failures = []

    def run(self, wl, runner, deadline, host):
        """Run blocks until the deadline, always finishing the block under way.

        ``host`` samples host speed between operations, outside their timings.
        """
        while not self.block_s or time.perf_counter() < deadline:
            results = []
            for op in wl.blocks[len(self.block_s) % len(wl.blocks)]:
                host.maybe_sample()
                results.append((op, *runner(op)))
            self.record(results, sum(t1 - t0 for _, t0, t1, _, _ in results))
        return self

    def record(self, results, seconds):
        """Take in one block's (op, t0, t1, code, stdout) and check its reports."""
        self.block_s.append(seconds)
        self.timings += [(t0, t1) for _, t0, t1, _, _ in results]
        failures, unconverged, sweeps = judge(results)
        self.failures += failures
        self.block_counts.append((len(results), len(failures), unconverged, sweeps))

    def counts(self):
        """(ops, failed, unconverged, report sweeps) over all blocks run."""
        return tuple(sum(col) for col in zip(*self.block_counts))


def judge(results):
    """Check every report; returns (failures [(id, reason)], unconverged, sweeps)."""
    failures, unconverged, sweeps = [], 0, 0
    by_channel = {}
    for op, _, _, code, out in results:
        report, reason = check.check_report(op, code, out)
        if reason:
            failures.append((op.id, reason))
            continue
        unconverged += code == check.EXIT_NO_CONVERGENCE
        sweeps += int(report["diagnostics"].get("iterations", 0))
        if op.kind in ("auto", "ba", "grid"):
            by_channel.setdefault(op.channel, {})[op.kind] = report
    for ch, reports in by_channel.items():
        reason = check.check_agreement(reports)
        if reason:
            failures.append((ch, reason))
    return failures, unconverged, sweeps


def setup(name, seed, runner, workroot):
    """Generate inputs, write files and warm up, SETUP_REPEATS times.

    Returns the last workload, its file directory and the median set-up
    time, scaled by the host speed sampled around each set-up.
    """
    host = HostSpeed()
    times = []
    for i in range(SETUP_REPEATS):
        host.sample()
        workdir = tempfile.mkdtemp(dir=workroot)
        t0 = time.perf_counter()
        wl = workloads.build(name, seed, workdir)
        runner(wl.warmup)
        times.append(time.perf_counter() - t0)
        if i < SETUP_REPEATS - 1:
            shutil.rmtree(workdir)
    host.sample()
    return wl, workdir, statistics.median(times), host


def traced_prefix(wl, runner, workdir):
    """Run the fixed prefix of blocks once untraced and twice traced.

    The three runs are interleaved operation by operation, so a drift in
    machine speed hits all of them alike.  Returns (untraced Pass, two traced
    runs), a traced run being (Pass, spans, start-up sums in s or None).
    """
    plain = Pass()
    runs = [(Pass(), spans.Tracer(), []) for _ in range(2)]
    for b in range(wl.trace_blocks):
        results = [[] for _ in range(1 + len(runs))]
        for op in wl.blocks[b % len(wl.blocks)]:
            results[0].append((op, *runner(op)))
            for k, (p, tracer, files) in enumerate(runs):
                i = len(p.timings) + len(results[k + 1])
                if wl.subprocess:
                    files.append(os.path.join(workdir, f"trace-{k}-{i}.json"))
                    results[k + 1].append((op, *runner(op, files[-1])))
                else:
                    tracer.op = i
                    with tracer:
                        results[k + 1].append((op, *runner(op)))
        for p, res in zip((plain, *(p for p, _, _ in runs)), results):
            p.record(res, sum(t1 - t0 for _, t0, t1, _, _ in res))
    if wl.subprocess:
        return plain, [(p, *collect_children(files, p.timings)) for p, _, files in runs]
    return plain, [(p, tracer.spans, None) for p, tracer, _ in runs]


def collect_children(files, timings):
    """Merge the spans the traced children wrote; sum their start-up phases."""
    merged = []
    startup = {"interp": 0.0, "import": 0.0, "run": 0.0, "exit": 0.0}
    for i, (path, (t0, t1)) in enumerate(zip(files, timings)):
        try:
            with open(path, encoding="utf-8") as fh:
                child = json.load(fh)
        except (OSError, ValueError):
            continue  # the child died early; its report fails the check
        offset = len(merged)
        for s in child["spans"]:
            s[0] = i
            if s[4] >= 0:
                s[4] += offset
            merged.append(s)
        startup["interp"] += child["start"] - t0
        startup["import"] += child["imported"] - child["start"]
        startup["run"] += child["run_end"] - child["imported"]
        startup["exit"] += t1 - child["run_end"]
        os.remove(path)
    return merged, startup


def determinism_counts(p, layer=None):
    ops, failed, _, sweeps = p.counts()
    counts = {"ops": ops, "failed": failed, "report_sweeps": sweeps}
    if layer:
        counts["span_sweeps"] = layer["oracle.ba.sweeps"][0]
        counts["muroga_calls"] = layer["muroga.muroga_capacity.calls"][0]
        counts["muroga_feasible"] = layer["muroga.feasible"][0]
    return counts


def write_spans(name, seed, span_list):
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"spans-{name}-seed{seed}.jsonl")
    with open(path, "w", encoding="utf-8") as fh:
        for span in span_list:
            fh.write(json.dumps(span) + "\n")
    return path


def bench(name, seed, seconds, trace, workroot):
    """One workload; returns (metrics {name: (value, unit, n)}, attempted, failures, notes)."""
    runner = Subprocess() if workloads.WORKLOADS[name].subprocess else InProcess()
    wl, workdir, setup_s, setup_host = setup(name, seed, runner, workroot)
    if trace:
        return traced(name, seed, wl, runner, workdir)
    host = HostSpeed()
    untraced = Pass().run(wl, runner, time.perf_counter() + seconds, host)
    attempted, _, unconverged, _ = untraced.counts()
    lat = [(t1 - t0) * 1e3 for t0, t1 in untraced.timings]
    busy = sum(untraced.block_s)
    k = host.factor()
    raw = {
        "ops_per_s": (attempted / busy, "1/s", attempted),
        "latency_ms.p50": (statistics.median(lat), "ms", attempted),
        "latency_ms.p80": (statistics.quantiles(lat, n=5, method="inclusive")[-1], "ms", attempted),
    }
    metrics = {m: (v / k if m == "ops_per_s" else v * k, u, n) for m, (v, u, n) in raw.items()}
    raw["setup_s"] = (setup_s, "s", SETUP_REPEATS)
    metrics["setup_s"] = (setup_s * setup_host.factor(), "s", SETUP_REPEATS)
    metrics["peak_rss_mb"] = (runner.peak_rss_mb(), "MiB", 1)
    notes = [
        f"{name}: {attempted} ops in {len(untraced.block_s)} blocks, {busy:.2f} s busy;"
        f" {unconverged} stopped at the iteration cap (exit 4, honest bracket);"
        f" {len(untraced.failures)} failed",
        f"{name}: host speed factor {k:.4f} over {len(host.samples)} samples,"
        f" set-up {setup_host.factor():.4f} over {len(setup_host.samples)}"
        f" (reference loop nominal {REFERENCE_S * 1e3:g} ms); unscaled: "
        + ", ".join(f"{m} {v:.6g} {u}" for m, (v, u, _) in raw.items()),
    ]
    return metrics, attempted, untraced.failures, notes


def traced(name, seed, wl, runner, workdir):
    """The traced prefix only; per-layer metrics, overhead and determinism check."""
    plain, passes = traced_prefix(wl, runner, workdir)
    layers = [spans.layer_metrics(span_list, p.counts()[0]) for p, span_list, _ in passes]
    counts = [determinism_counts(plain)]
    counts += [determinism_counts(p, layer) for (p, _, _), layer in zip(passes, layers)]
    failures, attempted = [], 0
    for p in (plain, *(p for p, _, _ in passes)):
        failures += p.failures
        attempted += p.counts()[0]
    p1, span_list, startup = passes[0]
    layer = layers[0]
    ops, _, unconverged, _ = p1.counts()
    for key in ("interp", "import", "run", "exit"):
        layer[f"startup.{key}_ms"] = (startup[key] * 1e3 / ops if startup else 0.0, "ms")
    layer["ops.unconverged"] = (unconverged, "count")
    t_untraced = sum(plain.block_s)
    t_traced = sum(sum(p.block_s) for p, _, _ in passes) / len(passes)
    layer["trace.overhead_share"] = (t_traced / t_untraced - 1.0, "ratio")
    shared = ("ops", "failed", "report_sweeps")
    same = counts[1] == counts[2] and all(counts[1][k] == counts[0][k] for k in shared)
    spans_file = os.path.relpath(write_spans(name, seed, span_list), ROOT)
    notes = [
        f"{name}: traced prefix {wl.trace_blocks} blocks, {ops} ops; untraced {t_untraced:.3f} s,"
        f" traced {t_traced:.3f} s; spans in {spans_file}",
        f"{name}: determinism {'ok' if same else 'MISMATCH'}: {json.dumps(counts)}",
    ]
    if not same:
        failures.append((f"{name}/determinism", "counts differ between passes"))
    return {k: (v, u, ops) for k, (v, u) in layer.items()}, attempted, failures, notes


def git_sha():
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=True
        )
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    return proc.stdout.strip()


def run_all(args):
    """Run every workload in its own process, so none inherits another's peak RSS."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        argv = ["--workload", name, "--seed", str(args.seed), "--seconds", str(args.seconds)]
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), *argv, "--trace", str(args.trace)],
            stdout=subprocess.PIPE,
            text=True,
            check=False,
        )
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            print(f"error: workload {name} exited with code {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        print("\n".join(lines[:-1]), flush=True)
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        combined["metrics"].update({f"{name}:{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(combined))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "chancap", "__init__.py")):
        print(f"error: no package at {SRC}/chancap; run from a full checkout", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(1, SRC)
    import chancap
    import numpy

    if os.path.dirname(os.path.dirname(os.path.abspath(chancap.__file__))) != SRC:
        print(f"error: imported chancap from {chancap.__file__}, not {SRC}", file=sys.stderr)
        return 2

    name = args.workload
    provenance = {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "workload": name,
    }
    print("provenance " + json.dumps(provenance), flush=True)
    workroot = tempfile.mkdtemp(dir=ROOT, prefix=".perfbench-work-")
    try:
        metrics, attempted, failures, notes = bench(
            name, args.seed, args.seconds, args.trace, workroot
        )
    finally:
        shutil.rmtree(workroot, ignore_errors=True)
    for line in notes:
        print(line)
    for ident, reason in failures:
        print(f"FAIL {ident}: {reason}")
    for key, (value, unit, count) in metrics.items():
        base = spans.RATIO_BASES.get(key)
        extra = f", base {base}={metrics[base][0]}" if base else ""
        print(f"{name:17s} {key:34s} {value:14.6g} {unit:6s} (n={count}{extra})")
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u, _) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
