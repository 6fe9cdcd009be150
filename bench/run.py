#!/usr/bin/env python3
"""Run one benchmark workload of symgraph and print its metrics.

    python3 bench/run.py --workload wave_exact --seed 1 --seconds 40 --trace 0

Run from the repository root; the package is imported from ``src/``.  One
single-threaded process runs one workload as a closed loop: one client, the
next request sent when the previous one returns.  Every request's output is
checked.  Between requests a fixed calibration kernel is timed, and every
``*_cal`` metric divides by the run's mean kernel time (see calibration.py).

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the loop
untraced for half the time, then one full round of requests traced layer by
layer (see tracing.py), and prints the per-layer metrics.  The last line of
standard output is the result object; the line before it is a report with
the run header, raw timings and, for a traced cli_mix run, the census of
known defects.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import threading
from importlib import metadata
from pathlib import Path
from time import perf_counter

import tracing
import workloads
from calibration import Calibration

ROOT = Path(__file__).resolve().parent.parent
OUT = Path(__file__).resolve().parent / "out"
SETUP_REPEATS = 7
ROUNDS = 16
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
PER_LAYER_COUNTS = (
    "words.distance.calls", "words.vertices_enumerated", "words.products",
    "wave.direct.calls", "wave.closed.calls", "wave.field_values",
    "algebraic.ring_ops", "algebraic.values_created",
    "transforms.calls", "boundary.horocycle_count.calls",
    "spectral.quad.calls", "spectral.quad.levels", "spectral.quad.nodes",
    "spectral.quad.failures", "spectral.phi_oracle.calls", "boundary.busemann.calls",
    "cli.output_bytes",
)
END_TO_END_UNITS = (
    ("cost_per_request_cal", "cal"), ("latency_p50_cal", "cal"), ("latency_p90_cal", "cal"),
    ("setup_s", "s"), ("peak_rss_mb", "MB"), ("ops_ok_ratio", "ratio"),
)
SELF_TIME_LAYERS = ("words", "wave", "algebraic", "transforms", "spectral", "boundary", "cli", "checks")


def _parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _single_thread() -> None:
    """One BLAS/OpenMP thread: the run is single-threaded, well inside nproc.

    Must run before numpy is imported.  An idle second BLAS thread on a
    two-core box only adds noise; these workloads make no large BLAS calls.
    """
    for var in THREAD_VARS:
        os.environ[var] = "1"


def _read(path: str) -> str | None:
    try:
        return Path(path).read_text()
    except OSError:
        return None


def _steal_ticks() -> int | None:
    text = _read("/proc/stat")
    if not text or not text.startswith("cpu "):
        return None
    fields = text.split("\n", 1)[0].split()
    return int(fields[8]) if len(fields) > 8 else None


def _loadavg() -> str | None:
    text = _read("/proc/loadavg")
    return " ".join(text.split()[:3]) if text else None


def _commit() -> str | None:
    head = _read(str(ROOT / ".git" / "HEAD"))
    if head is None:
        return None
    head = head.strip()
    if head.startswith("ref: "):
        ref = _read(str(ROOT / ".git" / head[5:]))
        return ref.strip() if ref else head[5:]
    return head


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "symgraph").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()[:16]


def _version(package: str) -> str | None:
    try:
        return metadata.version(package)
    except metadata.PackageNotFoundError:
        return None


def _import_symgraph():
    """(Re)import the package from this checkout's src/, as a user would."""
    for name in [n for n in sys.modules if n == "symgraph" or n.startswith("symgraph.")]:
        del sys.modules[name]
    sg = importlib.import_module("symgraph")
    importlib.import_module("symgraph.cli")
    if Path(sg.__file__).resolve().parent != ROOT / "src" / "symgraph":
        raise SystemExit(f"symgraph imported from {sg.__file__}, not from this checkout")
    return sg


# -- statistics ---------------------------------------------------------------------


def _weighted_quantile(pairs: list[tuple[float, float]], p: float) -> float:
    """Quantile of weighted samples, interpolated between neighbouring samples.

    Each sample sits at the middle of its share of the total weight, so the
    estimate moves smoothly with the samples instead of jumping between them.
    """
    pairs = sorted(pairs)
    total = sum(w for _, w in pairs)
    below, previous = 0.0, None
    for value, weight in pairs:
        position = (below + weight / 2) / total
        if position >= p:
            if previous is None:
                return value
            share = (p - previous[1]) / (position - previous[1])
            return previous[0] + share * (value - previous[0])
        previous = (value, position)
        below += weight
    return pairs[-1][0]


class Phase:
    """The samples of one timed loop and the calibration interleaved with it."""

    def __init__(self, calibration):
        self.calibration = calibration
        self.samples: list[tuple[tuple, float]] = []
        self.failures: list[dict] = []
        self.request_seconds = 0.0
        self.wall_seconds = 0.0

    def add(self, kind: tuple, seconds: float, problem: str | None) -> None:
        self.samples.append((kind, seconds))
        self.request_seconds += seconds
        if problem is not None:
            self.failures.append({"kind": list(kind), "problem": problem})

    def per_kind(self) -> dict[tuple, list[float]]:
        groups: dict[tuple, list[float]] = {}
        for kind, seconds in self.samples:
            groups.setdefault(kind, []).append(seconds)
        return groups

    def cost_s(self) -> float:
        """Mean request time over a round: every kind weighs the same.

        A timed run ends part way through a round; weighting by kind keeps
        the kinds that round happened to reach from skewing the mean.
        """
        return statistics.fmean(statistics.fmean(v) for v in self.per_kind().values())

    def latency_s(self, p: float) -> float:
        groups = self.per_kind()
        return _weighted_quantile(
            [(s, 1.0 / len(groups[kind])) for kind, s in self.samples], p)


def _send(workload, sg, req):
    start = perf_counter()
    try:
        outcome = workload.run(sg, req)
    except Exception as exc:  # counted as a failed request
        outcome = exc
    return outcome, perf_counter() - start


def _timed_loop(workload, sg, requests, seconds: float | None, calibration,
                tracer=None) -> Phase:
    """Send requests one after another until ``seconds`` have passed and every
    kind has run at least once; with ``seconds`` None, send each request once."""
    phase = Phase(calibration)
    kinds = len(workload.kinds)
    seen: set = set()
    gc.collect()
    calibration.top_up(0.0)
    started = perf_counter()
    deadline = started + (seconds or 0.0)
    for index, req in enumerate(requests):
        if seconds is not None and len(seen) == kinds and perf_counter() >= deadline:
            break
        if tracer is None:
            outcome, elapsed = _send(workload, sg, req)
        else:
            with tracer.request(index):
                outcome, elapsed = _send(workload, sg, req)
            if isinstance(outcome, workloads.CliOutcome):
                tracer.counts["cli.output_bytes"] += workloads.deterministic_bytes(outcome.stdout)
        phase.add(req.kind, elapsed, workload.check(sg, req, outcome))
        seen.add(req.kind)
        calibration.top_up(phase.request_seconds)
    phase.wall_seconds = perf_counter() - started
    return phase


def _cycle(rounds):
    while True:
        for batch in rounds:
            yield from batch


# -- main ------------------------------------------------------------------------------


def main(argv=None) -> int:
    args = _parse_args(argv)
    _single_thread()
    os.environ.pop("SYMGRAPH_FAULT", None)
    if not (ROOT / "src" / "symgraph" / "__init__.py").is_file():
        print(f"error: no symgraph sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    if threading.active_count() != 1:
        print("error: the benchmark must run single-threaded", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    load_start, steal_start = _loadavg(), _steal_ticks()
    sys.path.insert(0, str(ROOT / "src"))

    setup = []
    for _ in range(SETUP_REPEATS):
        start = perf_counter()
        sg = _import_symgraph()
        rounds = workload.generate(args.seed, ROUNDS)
        setup.append(perf_counter() - start)

    # The requests live for the whole run: keep them out of the collector's
    # scans, so its cost follows the program's allocations, not the harness's.
    gc.collect()
    gc.freeze()
    timed_seconds = args.seconds / 2 if args.trace else args.seconds
    main_phase = _timed_loop(workload, sg, _cycle(rounds), timed_seconds, Calibration())
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    phases = [main_phase]
    tracer = None
    if args.trace:
        tracer = tracing.Tracer(sg)
        phases.append(_timed_loop(workload, sg, rounds[0], None, Calibration(), tracer))

    # The census re-runs known-defect inputs, one of which spends seconds in
    # failing quadrature: it belongs with the per-layer diagnosis, not with
    # every timed run.
    census = None
    if args.trace and workload.name == "cli_mix":
        census = workloads.defect_census(sg, args.seed)
    if threading.active_count() != 1:
        print("error: a thread was started during the run", file=sys.stderr)
        return 2

    steal_end = _steal_ticks()
    unit = main_phase.calibration.unit_s
    attempted = sum(len(p.samples) for p in phases)
    failures = [f for p in phases for f in p.failures]
    if args.trace:
        traced = phases[1]
        metrics = _per_layer(tracer, traced.cost_s() / traced.calibration.unit_s
                             / (main_phase.cost_s() / unit))
        OUT.mkdir(exist_ok=True)
        tracer.write_spans(OUT / f"spans-{workload.name}-{args.seed}.jsonl")
    else:
        values = (main_phase.cost_s() / unit, main_phase.latency_s(0.5) / unit,
                  main_phase.latency_s(0.9) / unit, statistics.median(setup), peak_rss_mb,
                  (attempted - len(failures)) / attempted)
        metrics = {name: (value, unit_name)
                   for (name, unit_name), value in zip(END_TO_END_UNITS, values)}

    report = {
        "header": {
            "workload": workload.name, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "commit": _commit(), "source_sha256": _source_digest(),
            "python": platform.python_version(), "numpy": _version("numpy"),
            "scipy": _version("scipy"), "nproc": os.cpu_count(),
            "thread_vars": {var: os.environ[var] for var in THREAD_VARS},
            "loadavg_start": load_start, "loadavg_end": _loadavg(),
            "steal_ticks": None if None in (steal_start, steal_end) else steal_end - steal_start,
        },
        "raw": {
            "requests": len(main_phase.samples),
            "kinds": len(workload.kinds),
            "throughput_rps": len(main_phase.samples) / main_phase.wall_seconds,
            "latency_p50_ms": main_phase.latency_s(0.5) * 1e3,
            "latency_p90_ms": main_phase.latency_s(0.9) * 1e3,
            "cost_per_request_ms": main_phase.cost_s() * 1e3,
            "cal_unit_ms": unit * 1e3,
            "cal_samples": len(main_phase.calibration.samples),
            "setup_samples_s": setup,
        },
        "failures": failures[:20],
        "defect_census": census,
    }
    print(json.dumps({"report": report}))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit_name}
                    for name, (value, unit_name) in metrics.items()},
    }))
    return 0


def _per_layer(tracer, overhead: float) -> dict:
    metrics = {name: (tracer.counts.get(name, 0), "bytes" if name.endswith("bytes") else "count")
               for name in PER_LAYER_COUNTS}
    for layer in SELF_TIME_LAYERS:
        metrics[f"{layer}.self_ms"] = (tracer.self_s.get(layer, 0.0) * 1e3, "ms")
    for suite in workloads.SUITES:
        metrics[f"checks.{suite}.ms"] = (tracer.inclusive_s.get(f"checks.{suite}", 0.0) * 1e3, "ms")
    metrics["trace_overhead_ratio"] = (overhead, "ratio")
    return metrics


if __name__ == "__main__":
    sys.exit(main())
