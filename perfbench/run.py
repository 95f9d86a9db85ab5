"""uplift-zero benchmark: one seeded, closed-loop workload per process.

    python3 perfbench/run.py --workload scarf-t1 --seed 1 --seconds 40 --trace 0

Run from the root of a source checkout.  One client sends `uplift-zero`
requests (argv lists over generated instance files) to
`uplift_zero.cli.main` in this process, the next only after the previous
returns, until the requests have taken --seconds seconds at reference
speed (see `calibration_kernel`).  Every output is
checked against independent references (perfbench/oracles.py), computed
before the loop in a child process so scipy does not count in this
process's memory; the checks run between requests, off the clock.

Times are reported at reference speed too; the raw wall-clock figures are
printed beside them and kept in result.json.

--trace 0 prints the end-to-end metrics; --trace 1 runs the loop untraced
for a third of the time, then the same requests again with every layer
traced (perfbench/tracing.py), and prints the per-layer metrics.  The last
line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
Generated files, the spans of a traced run and a result.json with the
full record go to perfbench/out/.
"""

from __future__ import annotations

import argparse
import collections
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
import time

import checks
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
THREADS_ENV_VAR = "UPLIFT_ZERO_THREADS"
SETUP_REPEATS = 7
CALIBRATIONS_PER_PROBE = 5
CALIBRATION_REF_S = 0.001   # the kernel's time on the reference machine
WALL_CAP = 1.25             # a slow machine still stops at this many times --seconds
KERNEL_WINDOW = 3
TAIL_BEYOND = 10           # the tail percentile keeps this many requests above it
UNTRACED_SHARE = 1 / 3     # of --seconds, in a traced run
CHILD_TIMEOUT_S = 150

END_TO_END_UNITS = {
    "setup_s": "s",
    "solves_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "peak_rss_mb": "MB",
}


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not args.seconds > 0:
        ap.error("--seconds must be positive")
    return args


def calibration_kernel() -> float:
    """Fixed pure-Python work like the program's own: tuples, dict updates,
    a keyed sort, float arithmetic.  Returns its wall time.

    On a shared machine the same work ran up to a fifth slower or faster
    from one 15-second window to the next, and request times moved with it.
    Timing this kernel next to every request measures the machine's speed
    in the same instants; dividing by it reports times as they would be on
    a machine where the kernel takes CALIBRATION_REF_S.
    """
    t0 = time.perf_counter()
    rows = [(i, i * 0.5, (i % 7, i % 3)) for i in range(300)]
    totals: dict = {}
    for a, b, key in rows:
        totals[key] = totals.get(key, 0.0) + b * 1.0001 - a
    rows.sort(key=lambda r: (r[2], -r[1]))
    acc = 0.0
    for k in range(1200):
        acc += max(k * 0.5, 3.0) - min(k, 2)
    return time.perf_counter() - t0


def child_env() -> dict:
    env = dict(os.environ)
    env.pop(THREADS_ENV_VAR, None)
    return env


def run_child(cmd: list[str]) -> float:
    """Run a child process to completion; returns its wall time."""
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, env=child_env(), capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}: {proc.stderr.strip()}")
    return elapsed


def measure_setup(workload: str, seed: int, work_dir: str) -> tuple[list[float], list[float]]:
    """Wall times of SETUP_REPEATS fresh processes, each importing the CLI
    and writing the instance files, and the kernel time measured before
    each."""
    samples, speeds = [], []
    for k in range(SETUP_REPEATS):
        speeds.append(statistics.median(calibration_kernel() for _ in range(CALIBRATIONS_PER_PROBE)))
        directory = os.path.join(work_dir, f"setup-{k}")
        samples.append(run_child([sys.executable, os.path.join(HERE, "setup_probe.py"),
                                  workload, str(seed), directory]))
        shutil.rmtree(directory)
    return samples, speeds


def compute_references(docs: list[dict], work_dir: str) -> list[dict]:
    in_path = os.path.join(work_dir, "oracle-in.json")
    out_path = os.path.join(work_dir, "oracle-out.json")
    with open(in_path, "w") as fh:
        json.dump(docs, fh)
    run_child([sys.executable, os.path.join(HERE, "oracles.py"), in_path, out_path])
    with open(out_path) as fh:
        return json.load(fh)


def check_request(requests, docs, refs, j, rc, stdout, error) -> tuple[list[str], float | None]:
    """(problems, relative dual gap or None) of request j's output."""
    k, argv = requests[j % len(requests)]
    problems, gap = checks.check_output(argv, rc, stdout, docs[k], refs[k])
    if error is not None and rc is None:
        problems.append(error)
    return problems, gap


def closed_loop(send, argvs, seconds, check, limit=None):
    """Send argvs[j % len(argvs)] for j = 0, 1, ... until the requests have
    taken `seconds` at reference speed (or WALL_CAP times that on the
    clock), or
    `limit` were sent.  Bounding the loop at reference speed makes a run
    cover the same requests whether the machine runs fast or slow.  The
    kernel is timed before each request and `check` runs after it; neither
    counts as request time.  Returns one (latency, kernel time, problems,
    dual gap) per request."""
    records = []
    recent = collections.deque(maxlen=KERNEL_WINDOW)
    busy = at_reference = 0.0
    j = 0
    while (limit is None or j < limit) and at_reference < seconds and busy < WALL_CAP * seconds:
        kernel = calibration_kernel()
        recent.append(kernel)
        argv = argvs[j % len(argvs)]
        out, err = io.StringIO(), io.StringIO()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc, error = send(j, argv), None
        except (Exception, SystemExit) as exc:  # a crash counts as a failed request
            rc, error = None, repr(exc)
        latency = time.perf_counter() - t0
        busy += latency
        at_reference += latency * CALIBRATION_REF_S / statistics.median(recent)
        problems, gap = check(j, rc, out.getvalue(), error)
        records.append((latency, kernel, problems, gap))
        j += 1
    return records


def tail_latency(latencies: list[float]) -> tuple[float, float]:
    """(percentile, value): the highest percentile with TAIL_BEYOND requests
    above it; the maximum when there are too few requests."""
    ordered = sorted(latencies)
    k = len(ordered) - TAIL_BEYOND
    if k < 1:
        return 100.0, ordered[-1]
    return 100.0 * k / len(ordered), ordered[k - 1]


def speed(records) -> float:
    """Kernel time over its reference: above 1 on a machine running slow."""
    return statistics.median(r[1] for r in records) / CALIBRATION_REF_S


def local_kernel_times(records) -> list[float]:
    """Per request, the median kernel time of the KERNEL_WINDOW requests
    around it: follows the machine's speed through a run without taking
    one noisy sample at its word."""
    kernel = [r[1] for r in records]
    half = KERNEL_WINDOW // 2
    return [statistics.median(kernel[max(0, j - half):j + half + 1]) for j in range(len(kernel))]


def git_commit() -> str | None:
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        if os.path.exists(os.path.join(git, name)):
            with open(os.path.join(git, name)) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + name):
                    return line.split()[0]
    except OSError:
        pass
    return None


def end_to_end_metrics(latencies, setup_samples) -> dict[str, float]:
    return {
        "setup_s": statistics.median(setup_samples),
        "solves_per_s": len(latencies) / sum(latencies),
        "latency_p50_ms": 1000.0 * statistics.median(latencies),
        "latency_tail_ms": 1000.0 * tail_latency(latencies)[1],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "uplift_zero", "cli.py")):
        print(f"error: no uplift_zero sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    os.environ.pop(THREADS_ENV_VAR, None)
    work_dir = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    shutil.rmtree(work_dir, ignore_errors=True)
    os.makedirs(work_dir)

    docs, requests = workloads.generate(args.workload, args.seed)
    refs = compute_references(docs, work_dir)
    setup_samples, setup_speeds = measure_setup(args.workload, args.seed, work_dir)

    sys.path.insert(0, SRC)
    from uplift_zero import cli

    instance_dir = os.path.join(work_dir, "instances")
    argvs = workloads.argv_lists(workloads.write_instances(instance_dir, docs), requests)

    def check(j, rc, stdout, error):
        return check_request(requests, docs, refs, j, rc, stdout, error)

    def send(j, argv):
        return cli.main(argv)

    tracer = None
    if args.trace:
        import tracing
        untraced = closed_loop(send, argvs, args.seconds * UNTRACED_SHARE, check)
        tracer = tracing.Tracer()
        tracer.install()
        try:
            traced = closed_loop(lambda j, argv: tracer.run_request(j, cli.main, argv), argvs,
                                 args.seconds * (1 - UNTRACED_SHARE), check, limit=len(untraced))
        finally:
            tracer.uninstall()
        common = untraced[:len(traced)]
        overhead = (sum(r[0] for r in traced) / speed(traced)) / (
            sum(r[0] for r in common) / speed(common)) - 1.0
        records = untraced + traced
    else:
        records = closed_loop(send, argvs, args.seconds, check)
    shutil.rmtree(instance_dir)

    timed = untraced if tracer is not None else records
    measured = end_to_end_metrics([r[0] for r in timed], setup_samples)
    reported = end_to_end_metrics(
        [r[0] * CALIBRATION_REF_S / k for r, k in zip(timed, local_kernel_times(timed))],
        [t * CALIBRATION_REF_S / k for t, k in zip(setup_samples, setup_speeds)])
    failures = [{"request": j, "argv": argvs[j % len(argvs)], "problems": r[2]}
                for j, r in enumerate(records) if r[2]]
    gaps = [r[3] for r in records if r[3] is not None]
    quality = {"failed_frac": len(failures) / len(records),
               "dual_gap_rel": statistics.fmean(gaps) if gaps else 0.0}

    if tracer is not None:
        tracer.write_spans(os.path.join(work_dir, "spans.csv"))
        per_layer = tracer.layer_metrics(len(traced), speed(traced))
        per_layer["trace.overhead_frac"] = (overhead, "ratio")
        per_layer["pricing.dual_gap_rel"] = (quality["dual_gap_rel"], "ratio")
        metrics = {name: {"value": v, "unit": u} for name, (v, u) in per_layer.items()}
    else:
        metrics = {name: {"value": reported[name], "unit": unit}
                   for name, unit in END_TO_END_UNITS.items()}

    tail_pct = tail_latency([r[0] for r in timed])[0]
    provenance = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "commit": git_commit(),
        "requests": len(records),
        "timed_requests": len(timed),
        "tail_percentile": tail_pct,
        "kernel_s_median": speed(timed) * CALIBRATION_REF_S,
        "setup_samples_s": setup_samples,
        "setup_kernel_s": setup_speeds,
    }
    with open(os.path.join(work_dir, "result.json"), "w") as fh:
        json.dump({"provenance": provenance, "end_to_end": reported,
                   "end_to_end_wall_clock": measured, "quality": quality, "metrics": metrics,
                   "failures": failures,
                   "requests": [{"latency_s": r[0], "kernel_s": r[1]} for r in records]},
                  fh, indent=1)

    print(f"# {args.workload} seed={args.seed} trace={args.trace} python={provenance['python']} "
          f"nproc={provenance['nproc']} commit={provenance['commit'] or 'unknown'}")
    print(f"# requests={len(records)} failed={len(failures)} timed={len(timed)} tail=p{tail_pct:.1f} "
          f"kernel={1000 * provenance['kernel_s_median']:.3f} ms (reference "
          f"{1000 * CALIBRATION_REF_S:g} ms)")
    print(f"#   {'metric':<16} {'at reference':>14} {'wall clock':>14}")
    for name, unit in END_TO_END_UNITS.items():
        print(f"#   {name:<16} {reported[name]:>14.6g} {measured[name]:>14.6g} {unit}")
    for name, value in quality.items():
        print(f"#   {name:<16} {value:>14.6g} {'':>14} ratio")
    for failure in failures[:5]:
        print(f"# FAILED request {failure['request']}: {'; '.join(failure['problems'])}")
    print(json.dumps({"correct": not failures, "attempted": len(records),
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
