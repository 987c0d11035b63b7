"""The traced run: spans around calls into each hypergrid module.

Spans are recorded here, in the benchmark; nothing inside hypergrid is
instrumented.  A traced job is ``cli.run`` itself, with the names it
calls its layers by swapped for span-recording wrappers
(``traced_cli``), so its outputs are the CLI's own and go through the
same oracle as the untraced ones.  The layer probes then call into each
module on the workload's own expressions, so every per-layer metric
exists on every workload.

Import only after hypergrid's source directory is on ``sys.path``.
"""

import json
import random
from contextlib import contextmanager
from fractions import Fraction
from time import perf_counter

from hypergrid import cli, expr
from hypergrid.calculus import cumulative_values
from hypergrid.context import ObservationContext
from hypergrid.grid import GridSpec, round_to_grid
from hypergrid.gridfun import continuity_check
from hypergrid.sampling import SamplingPlan, sample_unit_fractions
from hypergrid.series import exp_series, log_approx
from workloads import K

# the CLI's plan for check jobs
EXHAUSTIVE_LIMIT = 2**16 + 1
DYADIC_DEPTH = 12

# probe sizes: calls per probe, fixed so that a probe's time compares across commits
SERIES_CALLS = 64
LOG_CALLS = 16
ROUND_CALLS = 256
CERTIFICATE_GAPS = range(4, 65)  # the pinned secant band, 4..64 mesh steps
CERTIFICATE_REPEATS = 64

PER_CALL = {  # per-call metrics: span name -> metric name
    "series.exp": "series.exp_us",
    "series.log": "series.log_us",
    "grid.round": "grid.round_us",
    "cli.serialize": "cli.serialize_us",
}
TOTALS = (
    "expr.compile",
    "gridfun.eval_cold",
    "gridfun.eval_warm",
    "gridfun.certificate",
    "gridfun.continuity",
    "calculus.prefix",
    "calculus.prefix_parallel",
    "calculus.check",
    "sampling.indices",
)


FIELDS = ("name", "job", "parent", "start", "end", "calls")


class Tracer:
    """Spans kept in memory as [name, job, parent, start, end, calls]: a
    span's id is its index, ``job`` is inherited from the parent span
    when not given (a top-level span without one is its own job), and
    ``calls`` counts the calls it covers."""

    def __init__(self):
        self.spans = []
        self._open = []

    def innermost(self):
        """Name of the innermost open span, or None."""
        return self.spans[self._open[-1]][0] if self._open else None

    @contextmanager
    def span(self, name: str, job=None, calls: int = 1):
        parent = self._open[-1] if self._open else None
        if job is None:
            job = self.spans[parent][1] if parent is not None else len(self.spans)
        record = [name, job, parent, perf_counter(), None, calls]
        self._open.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        finally:
            record[4] = perf_counter()
            self._open.pop()

    def self_times(self, first: int, last: int, duration) -> dict:
        """Total self time per span name over spans[first:last]: each
        span's duration(start, end) minus the durations of its children."""
        own = {}
        child = [0.0] * len(self.spans)
        for i in range(last - 1, first - 1, -1):
            name, _, parent, start, end, _ = self.spans[i]
            length = duration(start, end)
            own[name] = own.get(name, 0.0) + length - child[i]
            if parent is not None:
                child[parent] += length
        return own

    def dump(self, path: str):
        rows = [dict(zip(("id",) + FIELDS, [i] + s)) for i, s in enumerate(self.spans)]
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(rows, handle)


# the layer calls cli.run makes, by the module that binds them: span name
# per attribute.  ``_run_sum`` spans the whole sum job, so its self time is
# building and dumping the record once its ``countable_sum`` child is taken out.
CLI_LAYERS = {
    expr: {"parse": "expr.compile", "compile": "expr.compile"},
    cli: {
        "ftc_check": "calculus.check",
        "secant_check": "calculus.check",
        "grid_independence_check": "calculus.check",
        "limit_check": "calculus.check",
        "integral": "calculus.check",
        "countable_sum": "calculus.check",
        "continuity_check": "gridfun.continuity",
        "_report_text": "cli.serialize",
        "_value_record": "cli.serialize",
        "_run_sum": "cli.serialize",
    },
}


def _spanned(tracer: Tracer, name: str, fn):
    def call(*args, **kwargs):
        if tracer.innermost() == name:  # a recursive call, as in expr.compile
            return fn(*args, **kwargs)
        with tracer.span(name):
            return fn(*args, **kwargs)

    return call


@contextmanager
def traced_cli(tracer: Tracer):
    """While active, the layer calls ``hypergrid.cli.run`` makes record
    spans: its own names for them are replaced by span-recording
    wrappers, so a traced job runs the CLI's code and prints its bytes."""
    saved = []
    try:
        for module, names in CLI_LAYERS.items():
            for attr, name in names.items():
                fn = getattr(module, attr)
                saved.append((module, attr, fn))
                setattr(module, attr, _spanned(tracer, name, fn))
        yield
    finally:
        for module, attr, fn in reversed(saved):
            setattr(module, attr, fn)


def run_probes(tracer: Tracer, subjects, probe_tau: int, seed: int, workers: int):
    """Layer probes on each (expression, tau, H) of a workload.  Grid-wide
    probes run on min(probe_tau, tau) points, series and sampling probes
    at the workload's own tau.  Returns (stop indices, prefix-sum bit
    lengths, whether every parallel prefix sum equalled the serial one)."""
    rng = random.Random(seed)
    stops, bits, parity = [], [], True
    for text, tau, H in subjects:
        jid = f"probe {text} tau={tau}"
        ctx = ObservationContext(H, K)
        pspec = GridSpec(min(probe_tau, tau))
        plan = SamplingPlan(seed=seed, dyadic_depth=DYADIC_DEPTH,
                            random_points=1024, exhaustive_limit=EXHAUSTIVE_LIMIT)
        ks = sorted(rng.randrange(tau + 1) for _ in range(SERIES_CALLS))
        units = list(sample_unit_fractions(ROUND_CALLS, seed))
        spec = GridSpec(tau)
        with tracer.span("probe", jid):
            tree = expr.parse(text)
            f = expr.compile(tree, pspec)
            with tracer.span("gridfun.eval_cold"):
                f.materialize()
            with tracer.span("gridfun.eval_warm"):
                f.materialize()
            qcert = f.quotient_certificate
            if qcert is not None:
                gaps = [Fraction(k, pspec.tau) for k in CERTIFICATE_GAPS]
                with tracer.span("gridfun.certificate", calls=CERTIFICATE_REPEATS * len(gaps)):
                    for _ in range(CERTIFICATE_REPEATS):
                        for d in gaps:
                            qcert.modulus(d)
            fresh = expr.compile(tree, pspec)
            with tracer.span("gridfun.continuity"):
                continuity_check(fresh, ctx, plan)
            with tracer.span("series.exp", calls=len(ks)):
                stops.extend(exp_series(Fraction(k, tau), tau)[1] for k in ks)
            with tracer.span("series.log", calls=LOG_CALLS):
                for k in ks[:LOG_CALLS]:
                    log_approx(1 + Fraction(k, tau), tau)
            fresh = expr.compile(tree, pspec)
            with tracer.span("calculus.prefix"):
                serial = cumulative_values(fresh, 1)
            fresh = expr.compile(tree, pspec)
            with tracer.span("calculus.prefix_parallel"):
                parallel = cumulative_values(fresh, workers)
            parity = parity and parallel == serial
            bits.append(_bits(serial[-1]))
            with tracer.span("sampling.indices"):
                plan.indices(tau)
            with tracer.span("grid.round", calls=len(units)):
                for u in units:
                    round_to_grid(u, spec)
    return stops, bits, parity


def _bits(q: Fraction) -> int:
    return max(q.numerator.bit_length(), q.denominator.bit_length())


def layer_metrics(tracer: Tracer, first: int, last: int, duration) -> dict:
    """Per-layer metrics of spans[first:last]; ``duration(start, end)``
    converts a span's perf_counter interval to seconds."""
    own = tracer.self_times(first, last, duration)
    calls = {}
    for name, *_, n in tracer.spans[first:last]:
        calls[name] = calls.get(name, 0) + n
    out = {f"{name}_s": own.get(name, 0.0) for name in TOTALS}
    for name, metric in PER_CALL.items():
        out[metric] = own.get(name, 0.0) / max(1, calls.get(name, 0)) * 1e6
    return out


def max_bits(prefix_bits, outputs) -> int:
    """Largest bit length over the probes' final prefix sums and the worst
    gaps the check reports in ``outputs`` (exit code, JSON text) state."""
    gaps = [json.loads(text).get("max_gap") for code, text in outputs if code is not None]
    return max(list(prefix_bits) + [_bits(Fraction(g)) for g in gaps if g is not None])
