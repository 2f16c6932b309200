"""Two-clock benchmark of the SHC reproduction: four TPC-DS workloads.

Run from the repository root::

    python3 perfbench/run.py --workload olap_q39 --seed 1 --seconds 10 --trace 0

One client thread runs a closed loop over a seeded, fixed operation
sequence (see ``ops.py``) against the program's public API and checks every
answer.  ``--trace 0`` prints the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` runs the sequence untraced, then again on a fresh deployment
with wall-clock spans around each layer's entry points (``layers.py``), and
prints the per-layer metrics.  The last line of standard output is one JSON
object; the lines before it are a human-readable report.  ``NOTES.md``
explains the workloads and metrics.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import resource
import statistics
import sys
import time
import traceback
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
#: per-(workload, seed, length) fingerprints of simulated totals and counts,
#: compared across runs of one source tree
STATE_DIR = BENCH_DIR / ".seedcheck"

SETUP_REPEATS = 5
#: speed probes timed on each side of a set-up; their median is its speed
SETUP_PROBES = 5
#: time the speed probe after every this many nanoseconds of operations;
#: short enough to follow the tens-of-milliseconds stalls of a shared host
PROBE_EVERY_NS = 10_000_000
#: the probe's typical time on the reference host (2-core x86 VM); scaling by
#: it makes normalised figures read as that host's milliseconds
REFERENCE_PROBE_NS = 1_000_000
TAIL_PERCENTILES = (99.9, 99.0, 90.0)
FRONTEND_SPANS = ("sql.parse", "sql.analyze", "sql.optimize", "sql.plan")

WRITE_METRICS = ("write_p50_ms", "write_tail_ms", "write_rows_per_s", "sim_write_s")


class DeterminismError(RuntimeError):
    """Simulated totals or counts differed between runs of one seed."""


# -- statistics ------------------------------------------------------------------
def percentile(samples: Sequence[float], p: float) -> float:
    """Linear-interpolated percentile ``p`` (0-100) of ``samples``."""
    ordered = sorted(samples)
    k = (len(ordered) - 1) * p / 100.0
    lo = int(k)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (k - lo)


def tail(samples: Sequence[float]) -> Tuple[float, float]:
    """``(p, value)``: the highest of p99.9/p99/p90 with >= 10 samples beyond.

    Under 100 samples none qualifies, and the tail is the highest percentile
    that still has ten samples beyond it (at least the median).
    """
    n = len(samples)
    p = next((p for p in TAIL_PERCENTILES if round(n * (100.0 - p) / 100.0, 6) >= 10),
             max(50.0, 100.0 * (1 - 10 / n)))
    return p, percentile(samples, p)


# -- machine speed ------------------------------------------------------------------
def speed_probe() -> int:
    """Nanoseconds a fixed slice of interpreter work takes right now.

    A shared host runs the same code up to 2x slower from one tenth of a
    second to the next, and drifts over minutes.  The probe uses no code of
    the program, so dividing by its time cancels the machine's speed and
    keeps the program's.
    """
    start = time.perf_counter_ns()
    table: Dict[tuple, int] = {}
    rows = []
    x = 12345
    for i in range(500):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        key = (x % 4096, i % 7)
        table[key] = table.get(key, 0) + int.from_bytes(x.to_bytes(4, "big")[1:], "big")
        rows.append((key, f"v{x % 97}"))
    rows.sort()
    return time.perf_counter_ns() - start


# -- one pass over the operation sequence ----------------------------------------
@dataclass
class PassResult:
    #: per operation kind, reference-speed milliseconds (see ``run_pass``)
    latencies_ms: Dict[str, List[float]] = field(
        default_factory=lambda: {"read": [], "write": []})
    sim_s: Dict[str, List[float]] = field(
        default_factory=lambda: {"read": [], "write": []})
    counts: Dict[str, Counter] = field(
        default_factory=lambda: {"read": Counter(), "write": Counter()})
    stages: int = 0
    result_rows: int = 0
    rows_written: int = 0
    attempted: int = 0
    failed: int = 0
    probes_ns: List[int] = field(default_factory=list)
    space_amp: float = 1.0
    store_files_per_region: List[float] = field(default_factory=list)

    @property
    def speed(self) -> float:
        """Machine speed during the pass relative to the reference host."""
        return REFERENCE_PROBE_NS / statistics.median(self.probes_ns)

    @property
    def ops_per_s(self) -> float:
        """Operations per second of operation time, at reference speed."""
        busy_ms = sum(map(sum, self.latencies_ms.values()))
        return self.attempted / (busy_ms / 1e3)

    def ms(self, ns: float) -> float:
        """Nanoseconds measured in this pass as reference-speed milliseconds."""
        return ns * self.speed / 1e6

    def fingerprint(self) -> dict:
        """Everything that must repeat exactly for one seed."""
        return json.loads(json.dumps({
            "sim_read_s": sum(self.sim_s["read"]),
            "sim_write_s": sum(self.sim_s["write"]),
            "space_amp": self.space_amp,
            "counts": {k: dict(sorted(c.items())) for k, c in self.counts.items()},
            "stages": self.stages,
            "result_rows": self.result_rows,
            "rows_written": self.rows_written,
            "store_files_per_region": self.store_files_per_region,
        }))


def store_files_per_region(deployment) -> float:
    cluster = deployment.env.cluster
    files = regions = 0
    for table in deployment.tables:
        for location in cluster.region_locations(table):
            files += len(cluster.get_region(location.region_name).store_file_ids())
            regions += 1
    return files / regions


def timed_deploy(plan, seed: int, size_gb: int):
    """Deploy; returns it with its set-up time in reference-speed seconds.

    A set-up is one long call, so it is scaled by the host's speed just
    before and just after it.
    """
    import ops as bench_ops

    gc.collect()
    before = statistics.median(speed_probe() for __ in range(SETUP_PROBES))
    deployment = bench_ops.deploy(plan, seed, size_gb)
    after = statistics.median(speed_probe() for __ in range(SETUP_PROBES))
    return deployment, deployment.setup_s * 2 * REFERENCE_PROBE_NS / (before + after)


def run_pass(plan, deployment, tracer=None) -> PassResult:
    """Execute the plan's operations in order; answers are checked after.

    The speed probe runs before the first operation, after every
    ``PROBE_EVERY_NS`` of operation time and after the last; each latency is
    scaled by the mean of the two probes around it, which tracks the host's
    speed over a fraction of a second.
    """
    import ops as bench_ops

    result = PassResult()
    outcomes = []
    timed = []  # (kind, wall ns, index of the probe before the operation)
    clock = time.perf_counter_ns
    result.probes_ns.append(speed_probe())
    since_probe = 0
    for op in plan.ops:
        if op.kind == "read":
            result.store_files_per_region.append(store_files_per_region(deployment))
        began = clock()
        try:
            if tracer is None:
                outcome = bench_ops.execute(deployment, op)
            else:
                with tracer.op(op.kind):
                    outcome = bench_ops.execute(deployment, op)
        except Exception:  # a failed operation is counted, and the loop goes on
            traceback.print_exc(file=sys.stderr)
            outcome = None
        latency = clock() - began if tracer is None else tracer.ops[-1].wall_ns
        timed.append((op.kind, latency, len(result.probes_ns) - 1))
        outcomes.append(outcome)
        since_probe += latency
        if since_probe >= PROBE_EVERY_NS:
            result.probes_ns.append(speed_probe())
            since_probe = 0
    result.probes_ns.append(speed_probe())
    probes = result.probes_ns
    for kind, latency, before in timed:
        local = (probes[before] + probes[before + 1]) / 2
        result.latencies_ms[kind].append(latency * REFERENCE_PROBE_NS / local / 1e6)
    for op, outcome in zip(plan.ops, outcomes):
        result.attempted += 1
        if outcome is None or not bench_ops.check(op, outcome):
            result.failed += 1
        if outcome is None:
            continue
        result.sim_s[op.kind].append(outcome.sim_s)
        result.counts[op.kind].update(
            {k: v for k, v in outcome.metrics.items() if not k.startswith("peak.")})
        result.stages += outcome.stages
        result.result_rows += len(outcome.rows or ())
        result.rows_written += outcome.written
    result.space_amp = deployment.table_bytes() / deployment.size_bytes
    return result


# -- metrics -----------------------------------------------------------------------
def _mean(values: Sequence[float]) -> float:
    return statistics.fmean(values) if values else 0.0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def end_to_end(setup_times: Sequence[float], run: PassResult,
               peak_rss_mb: float) -> Tuple[Dict[str, float], Dict[str, str]]:
    """End-to-end values plus a note per value for the report.

    Wall times are at the reference host's speed (``run_pass``,
    ``timed_deploy``).
    """
    reads = run.latencies_ms["read"]
    writes = run.latencies_ms["write"]
    read_p, read_tail = tail(reads)
    values = {
        "setup_s": statistics.median(setup_times),
        "ops_per_s": run.ops_per_s,
        "read_p50_ms": percentile(reads, 50),
        "read_tail_ms": read_tail,
        "sim_read_s": _mean(run.sim_s["read"]),
        "space_amp": run.space_amp,
        "peak_rss_mb": peak_rss_mb,
    }
    notes = {
        "setup_s": f"median of {len(setup_times)} set-ups",
        "read_p50_ms": f"n={len(reads)}",
        "read_tail_ms": f"p{read_p:.4g}, n={len(reads)}",
    }
    values.update(write_metrics(run))
    if writes:
        write_p, __ = tail(writes)
        notes["write_p50_ms"] = f"n={len(writes)}"
        notes["write_tail_ms"] = f"p{write_p:.4g}, n={len(writes)}"
    return values, notes


def write_metrics(run: PassResult) -> Dict[str, float]:
    """Write-side and error metrics; 0 on a workload without writes."""
    writes = run.latencies_ms["write"]
    return {
        "write_p50_ms": percentile(writes, 50) if writes else 0.0,
        "write_tail_ms": tail(writes)[1] if writes else 0.0,
        "write_rows_per_s": _ratio(run.rows_written, sum(writes) / 1e3),
        "sim_write_s": _mean(run.sim_s["write"]),
        "error_rate": _ratio(run.failed, run.attempted),
    }


def layer_metrics(tracer, run: PassResult) -> Dict[str, float]:
    """Per-layer metrics of a traced pass (``tracer.ops`` are its operations).

    Times are reference-speed milliseconds per operation of the workload;
    ``*_per_query`` counts are per read, ``*_per_batch`` per write.
    """
    ops = tracer.ops
    n = len(ops)

    def total(name: str) -> int:
        return sum(op.spans[name].total_ns for op in ops if name in op.spans)

    def self_ns(name: str) -> int:
        return sum(op.spans[name].self_ns for op in ops if name in op.spans)

    def ms(ns: float) -> float:
        return run.ms(ns) / n

    reads = len(run.latencies_ms["read"])
    writes = len(run.latencies_ms["write"])
    rc, wc = run.counts["read"], run.counts["write"]
    both = rc + wc
    scan = total("core.scan")
    scan_region = total("hbase.client.scan_region")
    rs_scan = total("hbase.rs.scan")
    frontend = sum(total(s) for s in FRONTEND_SPANS)
    write = total("core.write")
    put = total("hbase.client.put")
    flush = total("hbase.flush")
    maintenance = total("hbase.maintenance")
    counts = tracer.counts
    return {
        "sql.parse_ms": ms(total("sql.parse")),
        "sql.analyze_ms": ms(total("sql.analyze")),
        "sql.optimize_ms": ms(total("sql.optimize")),
        "sql.plan_ms": ms(total("sql.plan")),
        "sql.frontend_share": _ratio(frontend, sum(op.wall_ns for op in ops)),
        "engine.job_self_ms": ms(self_ns("engine.job")),
        "engine.shuffle.put_ms": ms(total("engine.shuffle.put")),
        "engine.shuffle.fetch_ms": ms(total("engine.shuffle.fetch")),
        "engine.tasks_per_query": _ratio(rc["engine.tasks"], reads),
        "engine.stages_per_query": _ratio(run.stages, reads),
        "engine.rows_processed_per_query": _ratio(rc["engine.rows_processed"], reads),
        "engine.shuffle_write_bytes_per_query":
            _ratio(rc["engine.shuffle_write_bytes"], reads),
        "core.scan_ms": ms(scan),
        "core.decode_self_ms": ms(scan - scan_region),
        "core.decode_ns_per_cell":
            _ratio((scan - scan_region) * run.speed, rc["shc.cells_decoded"]),
        "core.rows_examined_per_row_returned":
            _ratio(rc["hbase.rows_visited"], run.result_rows),
        "core.regions_scanned_per_query": _ratio(rc["shc.regions_scanned"], reads),
        "core.regions_pruned_per_query": _ratio(rc["shc.regions_pruned"], reads),
        "core.write_ms": ms(write),
        "core.encode_self_ms": ms(write - put - flush - maintenance),
        "core.cells_encoded_per_batch": _ratio(wc["shc.cells_encoded"], writes),
        "core.connection_setups": both["shc.connection_setups"],
        "hbase.client.scan_region_ms": ms(scan_region),
        "hbase.client.rpc_self_ms": ms(scan_region - rs_scan),
        "hbase.rs.scan_ms": ms(rs_scan),
        "hbase.ns_per_row_visited":
            _ratio(rs_scan * run.speed, rc["hbase.rows_visited"]),
        "hbase.rows_visited_per_query": _ratio(rc["hbase.rows_visited"], reads),
        "hbase.bytes_scanned_per_row_returned":
            _ratio(rc["hbase.bytes_scanned"], rc["hbase.rows_returned"]),
        "hbase.client.put_ms": ms(put),
        "hbase.rs.put_ms": ms(total("hbase.rs.put")),
        "hbase.flush_ms": ms(flush),
        "hbase.flushes": _ratio(counts["flushes"], writes),
        "hbase.maintenance_ms": ms(maintenance),
        "hbase.compact_ms": ms(total("hbase.compact")),
        "hbase.compaction_bytes_rewritten": _ratio(counts["compaction_bytes"], writes),
        "hbase.write_amp": _ratio(counts["flush_bytes"] + counts["compaction_bytes"],
                                  wc["hbase.bytes_written"]),
        "hbase.store_files_per_region": _mean(run.store_files_per_region),
        "hbase.retries": both["hbase.retries"],
        "shc.scan_resumes": both["shc.scan_resumes"],
    }


# -- seed determinism --------------------------------------------------------------
def source_digest() -> str:
    """Hash of the program and benchmark sources a fingerprint belongs to."""
    digest = hashlib.sha256()
    for path in sorted([*SRC.rglob("*.py"), *BENCH_DIR.glob("*.py")]):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def check_repeat(state_dir: Path, key: str, fingerprint: dict) -> None:
    """Compare with the fingerprint an earlier run of this source recorded."""
    path = state_dir / f"{key}.json"
    source = source_digest()
    if path.exists():
        earlier = json.loads(path.read_text())
        if earlier["source"] == source and earlier["fingerprint"] != fingerprint:
            raise DeterminismError(
                f"{key}: simulated totals or counts differ from an earlier run "
                f"of the same source and seed ({path})")
    state_dir.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps({"source": source, "fingerprint": fingerprint}))


# -- one benchmark run -----------------------------------------------------------------
@dataclass
class BenchResult:
    correct: bool
    attempted: int
    failed: int
    metrics: Dict[str, Tuple[float, str]]
    report: List[str]

    def json_line(self) -> str:
        return json.dumps({
            "correct": self.correct,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit) in self.metrics.items()},
        })


def benchmark(workload: str, seed: int, seconds: int, trace: bool,
              size_gb: Optional[int] = None, count: Optional[int] = None,
              state_dir: Path = STATE_DIR) -> BenchResult:
    """One run; ``size_gb`` and ``count`` shrink it for the benchmark's tests."""
    import layers
    import ops as bench_ops

    size_gb = size_gb if size_gb is not None else bench_ops.SIZE_GB
    plan = bench_ops.plan_workload(workload, seed, seconds, size_gb, count)
    key = f"{workload}-seed{seed}-sec{seconds}-gb{size_gb}-n{len(plan.ops)}"
    report = [f"perfbench {workload}: seed {seed}, {len(plan.ops)} operations, "
              f"TPC-DS {size_gb} GB nominal, one closed-loop client, "
              f"serial stage runner"]

    tracer = traced_deployment = None
    if trace:
        # both deployments exist before either pass runs, so the untraced
        # and the traced pass see the same heap
        tracer = layers.Tracer()
        gc.collect()
        with layers.installed(tracer, layers.setup_targets()):
            with tracer.op("setup"):
                traced_deployment = bench_ops.deploy(plan, seed, size_gb)
        generate_ns = tracer.ops.pop().spans["workloads.generate"].total_ns
    deployment, setup_s = timed_deploy(plan, seed, size_gb)
    setup_times = [setup_s]
    gc.collect()
    untraced = run_pass(plan, deployment)
    attempted, failed = untraced.attempted, untraced.failed
    if trace:
        gc.collect()
        with layers.installed(tracer, layers.op_targets()):
            traced = run_pass(plan, traced_deployment, tracer)
        attempted += traced.attempted
        failed += traced.failed
    if plan.upserted:
        misses = bench_ops.durability_readback(plan, deployment)
        attempted += 1
        failed += 1 if misses else 0
        report.append(f"durability read-back after a region-server crash: "
                      f"{len(plan.upserted)} upserted keys, {misses} missed")
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    fingerprint = untraced.fingerprint()
    check_repeat(state_dir, key, fingerprint)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    if trace:
        layer = traced_layer_metrics(tracer, traced, untraced, key, fingerprint)
        layer["error_rate"] = _ratio(failed, attempted)
        layer["workloads.generate_s"] = traced.ms(generate_ns) / 1e3
        layer["workloads.load_s"] = \
            traced.ms(traced_deployment.load_s * 1e9 - generate_ns) / 1e3
        report.append("per layer (traced pass; ms are per operation):")
        for name, value in layer.items():
            report.append(f"  {name:<38} {value:16.6f} {units[name]}")
        metrics = {m["name"]: (layer[m["name"]], m["unit"]) for m in spec["per_layer"]}
        return BenchResult(failed == 0, attempted, failed, metrics, report)

    deployment = None
    for __ in range(SETUP_REPEATS - 1):
        setup_times.append(timed_deploy(plan, seed, size_gb)[1])
    values, notes = end_to_end(setup_times, untraced, peak_rss_mb)
    values["error_rate"] = _ratio(failed, attempted)
    report.append(f"end-to-end (wall clock at reference speed unless sim_; "
                  f"this host ran at {untraced.speed:.3f}x the reference):")
    for name, value in values.items():
        shown = f"{value:14.6f} {units[name]}"
        if name in WRITE_METRICS and not untraced.latencies_ms["write"]:
            shown = f"{'n/a':>14} (no writes)"
        note = f"  ({notes[name]})" if name in notes else ""
        report.append(f"  {name:<18} {shown}{note}")
    metrics = {m["name"]: (values[m["name"]], m["unit"]) for m in spec["end_to_end"]}
    return BenchResult(failed == 0, attempted, failed, metrics, report)


def traced_layer_metrics(tracer, traced: PassResult, untraced: PassResult,
                         key: str, fingerprint: dict) -> Dict[str, float]:
    """Check the traced pass against the untraced one, then measure layers."""
    for i, op in enumerate(tracer.ops):
        if op.self_sum_ns() != op.wall_ns:
            raise AssertionError(
                f"operation {i}: span self times sum to {op.self_sum_ns()} ns, "
                f"not its wall time {op.wall_ns} ns")
    if traced.fingerprint() != fingerprint:
        raise DeterminismError(
            f"{key}: the traced pass's simulated totals or counts differ "
            "from the untraced pass on a fresh deployment of the same seed")
    layer = layer_metrics(tracer, traced)
    layer.update(write_metrics(untraced))
    layer["common.tracing_overhead_pct"] = \
        100.0 * (untraced.ops_per_s - traced.ops_per_s) / untraced.ops_per_s
    return layer


def parse_args(argv: Optional[Sequence[str]] = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro").is_dir() or not (ROOT / "BENCHMARK.json").is_file():
        print(f"perfbench: no program source under {SRC} (run from a checkout "
              "of the repository)", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import ops as bench_ops

    if args.workload not in bench_ops.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(bench_ops.WORKLOADS)}", file=sys.stderr)
        return 2
    result = benchmark(args.workload, args.seed, args.seconds, bool(args.trace))
    print("\n".join(result.report))
    print(result.json_line())
    return 0


if __name__ == "__main__":
    sys.exit(main())
