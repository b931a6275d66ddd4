"""minorkit benchmark: one command for the four workloads.

    python3 perfbench/run.py --workload reduce --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the program is imported from its
`src/` directory. One process, one thread. The job list is drawn from the
seed, set-up is timed several times, then whole passes ("rounds") over the
list run until --seconds of wall time have gone by. Every time is reported
at reference speed (see calib.py). Answers are checked after timing, and
the last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones; with --trace 1 the
run is traced and the metrics are the per-layer ones. --steady N runs N
seeds in turn (each a child process) and prints the median and quartiles
of every metric, beside those of the raw wall-clock figures; add
--same-seed to repeat one seed, and --trace 1 to pair each run with a
traced run and print the tracing overhead.
"""

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SETUP_REPEATS = 5  # timed set-ups per run, after one untimed warm-up
CALIBRATE_EVERY = 0.25  # seconds of job time between kernel readings


def _digest(out):
    """The part of an answer that later rounds must repeat."""
    if out is None or isinstance(out, (tuple, bytes)):
        return out
    for attr in ("branch_sets", "paths", "cycles"):
        if hasattr(out, attr):
            return getattr(out, attr)
    return repr(out)


def _tail_rank(count):
    """Index, in ascending order, of the highest value with at least ten
    values beyond it."""
    return count - 11


def _run_rounds(jobs, seconds, clock, tracer):
    """Whole rounds, stopping at the round end nearest the wall-clock
    budget, so that a run measures `seconds` on average. Returns the job
    records (job index, wall seconds, kernel reading before, trace delta),
    the first answer of every job, failures and repeat mismatches."""
    records = []
    first = {}  # job index -> first answer
    digests = {}
    failed = []
    mismatched = set()
    since = 0.0
    rounds = 0
    start = time.perf_counter()
    while True:
        for j, job in enumerate(jobs):
            if tracer:
                tracer.begin_job(len(records))
            before = len(clock.readings) - 1
            t0 = time.perf_counter()
            try:
                out = job.run()
                error = None
            except Exception as exc:  # a job that raises is a failed job
                out, error = None, f"{type(exc).__name__}: {exc}"
            took = time.perf_counter() - t0
            records.append((j, took, before, tracer.take() if tracer else None))
            if error is None and isinstance(out, tuple) and out[0] not in job.codes:
                error = f"exit code {out[0]}"
            if error is not None:
                failed.append((job.name, error))
            elif j not in first:
                first[j], digests[j] = out, _digest(out)
            elif _digest(out) != digests[j]:
                mismatched.add(job.name)
            since += took
            if since >= CALIBRATE_EVERY:
                clock.mark()
                since = 0.0
        rounds += 1
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / rounds / 2 >= seconds:
            break
    if since:
        clock.mark()
    return records, rounds, first, failed, mismatched


def _end_to_end(jobs, records, clock, setup_s, peak_mb):
    per_job = [[] for _ in jobs]
    raw_per_job = [[] for _ in jobs]
    for j, took, before, _ in records:
        per_job[j].append(took * clock.factor(before))
        raw_per_job[j].append(took)
    med = sorted(statistics.median(ts) for ts in per_job)
    raw = sorted(statistics.median(ts) for ts in raw_per_job)
    tail = _tail_rank(len(jobs))
    metrics = {
        "setup_s": (statistics.median(setup_s), "s"),
        "jobs_per_s": (len(jobs) / sum(med), "1/s"),
        "job_p50_ms": (statistics.median(med) * 1000, "ms"),
        "job_tail_ms": (med[tail] * 1000, "ms"),
        "peak_rss_mb": (peak_mb, "MB"),
    }
    raw_metrics = {
        "jobs_per_s": len(jobs) / sum(raw),
        "job_p50_ms": statistics.median(raw) * 1000,
        "job_tail_ms": raw[tail] * 1000,
    }
    return metrics, raw_metrics


def single_run(args, root):
    sys.path.insert(0, str(root / "src"))
    import calib
    import tracing
    import workloads

    workdir = root / ".perfbench" / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    try:
        clock = calib.Clock()
        setup_s = []
        for rep in range(SETUP_REPEATS + 1):
            gc.collect()  # the previous set-up's garbage is not this one's cost
            t0 = time.perf_counter()
            mk, jobs = workloads.build(args.workload, args.seed, workdir)
            took = time.perf_counter() - t0
            mark = clock.mark()
            if rep:
                setup_s.append(took * clock.factor(mark - 1))
        origin = Path(mk["cli"].__file__).resolve()
        if root / "src" not in origin.parents:
            raise SystemExit(f"error: minorkit imported from {origin}, not from {root / 'src'}")
        tracer = tracing.Tracer(mk) if args.trace else None
        if tracer:
            tracer.install()
        gc.collect()
        records, rounds, first, failed, mismatched = _run_rounds(
            jobs, args.seconds, clock, tracer)
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if tracer:
            tracer.uninstall()

        # checks come after timing and after the memory reading
        t_check = time.perf_counter()
        import checks

        answered = sorted(first)
        bad = checks.check_all(mk, [jobs[j] for j in answered], [first[j] for j in answered])
        bad += [(name, "answer differs between rounds") for name in sorted(mismatched)]
        t_check = time.perf_counter() - t_check
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    metrics, raw = _end_to_end(jobs, records, clock, setup_s, peak_mb)
    kernel_ms = statistics.median(clock.readings) * 1000
    print(f"workload {args.workload}  seed {args.seed}  jobs {len(jobs)}  rounds {rounds}  "
          f"tail percentile p{100 * (_tail_rank(len(jobs)) + 1) / len(jobs):g}")
    print(f"kernel median {kernel_ms:.3f} ms (reference {calib.REFERENCE_SECONDS * 1000:g} ms)  "
          f"readings {len(clock.readings)}  checks {t_check:.2f} s wall")
    for name, (value, unit) in metrics.items():
        extra = f"   raw wall-clock {raw[name]:.4f}" if name in raw else ""
        print(f"  {name:12s} {value:12.4f} {unit}{extra}")
    print("set-ups at reference speed: " + " ".join(f"{t:.4f}" for t in setup_s) + " s")
    print(f"raw wall-clock: {json.dumps(dict(raw, kernel_ms=kernel_ms))}")
    for name, err in failed[:20] + bad[:20]:
        print(f"  FAIL {name}: {err}")

    if tracer:
        out_path = root / ".perfbench" / f"trace-{args.workload}-{args.seed}.jsonl"
        tracer.write(out_path, [job.name for job in jobs])
        print(f"traced end-to-end: {json.dumps({k: v[0] for k, v in metrics.items()})}")
        print(f"spans written to {out_path}")
        result_metrics = tracing.layer_metrics(
            [(clock.factor(before), delta) for _, _, before, delta in records], rounds)
        raw_layers = tracing.layer_metrics([(1.0, delta) for *_, delta in records], rounds)
        print("per round, at reference speed, raw wall-clock beside .ms:")
        for name, m in result_metrics.items():
            if m["value"]:
                extra = f"   raw {raw_layers[name]['value']:.3f}" if name.endswith(".ms") else ""
                print(f"  {name:40s} {m['value']:12.3f} {m['unit']}{extra}")
    else:
        result_metrics = {name: {"value": value, "unit": unit}
                          for name, (value, unit) in metrics.items()}
    doc = {
        "correct": not bad,
        "attempted": len(records),
        "failed": len(failed),
        "metrics": result_metrics,
    }
    print(json.dumps(doc))
    return 0


def _child(args, seed, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload, "--seed", str(seed),
           "--seconds", str(args.seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"run failed: {' '.join(cmd)}\n{proc.stdout}\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    found = {}
    for line in lines:
        for key in ("traced end-to-end: ", "raw wall-clock: "):
            if line.startswith(key):
                found[key] = json.loads(line[len(key):])
    return json.loads(lines[-1]), found.get("raw wall-clock: "), found.get("traced end-to-end: ")


def steady(args):
    """Run N seeds in turn and print each metric's median and quartiles."""
    values = {}
    raw_values = {}
    shares = set()
    overhead = []
    layers = {}
    for i in range(args.steady):
        seed = args.seed if args.same_seed else args.seed + i
        doc, raw, _ = _child(args, seed, 0)
        shares.add(doc["failed"] / doc["attempted"])
        line = [f"kernel_ms={raw['kernel_ms']:.2f}"]
        for name, m in doc["metrics"].items():
            values.setdefault(name, []).append(m["value"])
            line.append(f"{name}={m['value']:.4g}")
        for name, value in raw.items():
            raw_values.setdefault(name, []).append(value)
        if args.trace:
            layer_doc, _, traced = _child(args, seed, 1)
            for name, m in layer_doc["metrics"].items():
                layers.setdefault(name, []).append(m["value"])
            overhead.append(doc["metrics"]["jobs_per_s"]["value"] / traced["jobs_per_s"] - 1)
            line.append(f"trace overhead={overhead[-1]:+.3f}")
        print(f"seed {seed}: correct={doc['correct']} attempted={doc['attempted']} "
              f"failed={doc['failed']} " + " ".join(line), flush=True)
    print(f"{'metric':18s} {'median':>10s} {'q1':>10s} {'q3':>10s} {'(q3-q1)/median':>15s}")
    rows = list(values.items()) + [(f"raw {k}", v) for k, v in raw_values.items()]
    for name, vs in rows:
        q1, _, q3 = statistics.quantiles(vs, n=4)
        med = statistics.median(vs)
        print(f"{name:18s} {med:10.4f} {q1:10.4f} {q3:10.4f} {(q3 - q1) / med:15.4f}")
    print(f"failed shares seen: {sorted(shares)}")
    if overhead:
        print(f"tracing overhead on jobs_per_s: median {statistics.median(overhead):+.3f}")
        for name, vs in layers.items():
            print(f"  {name:40s} median {statistics.median(vs):12.4f}")
    return 0


def main():
    sys.path.insert(0, str(HERE))
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--steady", type=int, default=0, metavar="N",
                        help="run N seeds from --seed on and print medians and quartiles")
    parser.add_argument("--same-seed", action="store_true",
                        help="with --steady, run --seed N times instead")
    args = parser.parse_args()
    if args.steady:
        return steady(args)
    root = Path.cwd().resolve()
    if not (root / "src" / "minorkit" / "__init__.py").is_file():
        print(f"error: no minorkit source under {root / 'src'}; run from a checkout's root",
              file=sys.stderr)
        return 2
    return single_run(args, root)


if __name__ == "__main__":
    sys.exit(main())
