"""One measuring process: runs a workload's passes and prints one JSON
object on stdout.  ``run.py`` starts a fresh one per run, so its peak
RSS is the run's own.

    python3 bench/worker.py '{"mode": "loop", "workload": "ftc-exhaustive",
                              "seed": 1, "seconds": 20, "smoke": false}'

Modes: ``loop`` (timed passes through ``hypergrid.cli.run``, tracing
off) and ``trace`` (untraced and traced passes of ``cli.run`` in turn,
plus the layer probes; traced outputs must equal untraced ones).  A run
makes whole passes, at least two in ``loop`` mode so every output can
be compared with a second run of the same job, and stops starting
passes once the next one would end more than half a pass past
``seconds``.  Times are reported in reference seconds
(``speed.py``), raw wall times beside them; a workload with a job that
runs more than one worker, and every traced run, is timed in raw
seconds only.
"""

import json
import os
import resource
import statistics
import sys
from time import monotonic, perf_counter

from speed import RawClock, SpeedMeter

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
RESULTS = os.path.join(HERE, "results")


def import_hypergrid():
    """Import hypergrid from this checkout's ``src``, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "hypergrid", "__init__.py")):
        raise SystemExit(f"hypergrid sources not found under {SRC}")
    sys.path.insert(0, SRC)
    import hypergrid

    if not os.path.abspath(hypergrid.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"hypergrid imported from {hypergrid.__file__}, not {SRC}")


def _run_pass(run, configs):
    """Returns (pass interval, job intervals, outputs) in perf_counter time."""
    outputs, intervals = [], []
    start = perf_counter()
    for config in configs:
        t0 = perf_counter()
        try:
            out = list(run(config))
        except Exception as exc:  # a job that raises is a failed job, not a crash
            out = [None, f"{type(exc).__name__}: {exc}"]
        intervals.append((t0, perf_counter()))
        outputs.append(out)
    return (start, perf_counter()), intervals, outputs


def _meter(configs):
    """Reference seconds, or raw ones where a job may use several cores."""
    return RawClock() if any(c.workers > 1 for c in configs) else SpeedMeter()


def _done(start, passes, minimum, seconds, last):
    return passes >= minimum and monotonic() - start + last / 2 >= seconds


def _compare(mismatches, outputs, first):
    return [m + (o != f) for m, o, f in zip(mismatches, outputs, first)]


def loop(jobs, seconds):
    from hypergrid.cli import JobConfig, run

    configs = [JobConfig(**job) for job in jobs]
    recorded, first = [], None
    mismatches = [0] * len(jobs)
    start = monotonic()
    with _meter(configs) as meter:
        while True:
            interval, intervals, outputs = _run_pass(run, configs)
            recorded.append((interval, intervals))
            first = first or outputs
            mismatches = _compare(mismatches, outputs, first)
            if _done(start, len(recorded), 2, seconds, interval[1] - interval[0]):
                break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    # the parallel reduction must be bit-identical to the serial one
    parity = []
    for i, config in enumerate(configs):
        if config.workers > 1:
            serial = list(run(JobConfig(**dict(jobs[i], workers=1))))
            parity.append({"job": i, "equal": serial == first[i]})
    passes = [{"wall": meter.reference(*interval),
               "raw_wall": interval[1] - interval[0],
               "latencies": [meter.reference(*i) for i in intervals]}
              for interval, intervals in recorded]
    return {"passes": passes, "first": first, "mismatches": mismatches,
            "peak_rss_mb": peak_rss_mb, "parity": parity}


def trace(name, jobs, seconds, seed, smoke, workers):
    from hypergrid.cli import JobConfig, run

    import tracing
    import workloads

    configs = [JobConfig(**job) for job in jobs]
    subjects = workloads.subjects(name, smoke)
    probe_tau = workloads.WORKLOADS[name].probe_tau
    tracer = tracing.Tracer()

    def traced_run(config):
        with tracer.span("job"):
            return run(config)

    untraced, traced, cycles = [], [], []
    first = None
    mismatches = [0] * len(jobs)
    parity = True
    start = monotonic()
    with RawClock() as meter:  # the probes reduce with workers = nproc
        while True:
            t_cycle = perf_counter()
            interval, _, outputs = _run_pass(run, configs)
            untraced.append(interval)
            first = first or outputs
            mismatches = _compare(mismatches, outputs, first)

            mark = len(tracer.spans)
            with tracing.traced_cli(tracer):
                interval, _, outputs = _run_pass(traced_run, configs)
            traced.append(interval)
            mismatches = _compare(mismatches, outputs, first)
            stops, prefix_bits, same = tracing.run_probes(
                tracer, subjects, probe_tau, seed, workers)
            parity = parity and same
            cycles.append((mark, len(tracer.spans), stops,
                           tracing.max_bits(prefix_bits, outputs)))
            if _done(start, len(traced), 1, seconds, perf_counter() - t_cycle):
                break

    layers = []
    for first_span, last_span, stops, _ in cycles:
        metrics = tracing.layer_metrics(tracer, first_span, last_span, meter.reference)
        metrics["series.stop_index_mean"] = statistics.fmean(stops)
        layers.append(metrics)
    metrics = {k: statistics.median(m[k] for m in layers) for k in layers[0]}
    metrics["rational.max_bits"] = max(c[3] for c in cycles)
    metrics["trace.overhead_s"] = (statistics.median(meter.reference(*i) for i in traced)
                                   - statistics.median(meter.reference(*i) for i in untraced))
    os.makedirs(RESULTS, exist_ok=True)
    spans_path = os.path.join(RESULTS, f"spans-{name}-seed{seed}{'-smoke' if smoke else ''}.json")
    tracer.dump(spans_path)
    return {"first": first, "mismatches": mismatches,
            "passes": len(traced), "metrics": metrics,
            "parity": [{"job": "probes", "equal": parity}], "spans": spans_path}


def main(argv):
    config = json.loads(argv[1])
    import_hypergrid()
    import workloads

    name, seed, smoke = config["workload"], config["seed"], config["smoke"]
    jobs = workloads.jobs(name, seed, smoke)
    if config["mode"] == "loop":
        result = loop(jobs, config["seconds"])
    else:
        result = trace(name, jobs, config["seconds"], seed, smoke, workloads.nproc())
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
