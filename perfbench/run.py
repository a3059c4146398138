"""Run one benchmark workload and print its metrics.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload engine-sse --seed 1 --seconds 15 --trace 0

``--trace 0`` measures the end-to-end metrics with no wrapper installed.
Times and rates are scaled to a reference host speed measured by a
probe the workloads run between their timed regions (see
``common.HostSpeed``).
``--trace 1`` spends half of ``--seconds`` on untraced passes and half on
passes with spans around every layer, and reports the per-layer metrics
plus the tracing overhead.  Metric names and units come from
``BENCHMARK.json``; the last line of standard output is one JSON object.
The spans of a traced run are written to ``perfbench/out/``.
"""
from __future__ import annotations

import time

_T0 = time.perf_counter()  # set-up time counts from here, before the imports

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / "perfbench" / "out"
WORKLOADS = ("engine-sse", "micro-baselines", "executor-stream", "spark-sse")
#: input generation is repeated this many times; set-up reports the median.
GEN_REPEATS = 3
#: host-speed probes right after the imports; their median scales the imports
SETUP_PROBES = 3


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _import_program() -> None:
    """Put the checkout's ``src`` first on the path and make sure ``repro``
    really comes from there (and not from an installed copy)."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: {src / 'repro'} not found; run from a full checkout")
    sys.path[:0] = [str(src), str(ROOT)]
    import repro

    if Path(repro.__file__).resolve().parent != (src / "repro").resolve():
        raise SystemExit(f"perfbench: repro imported from {repro.__file__}, not from {src}")


def _make(name: str, seed: int):
    if name == "engine-sse":
        from perfbench.engine_workloads import EngineSSE

        return EngineSSE(seed)
    if name == "micro-baselines":
        from perfbench.engine_workloads import MicroBaselines

        return MicroBaselines(seed)
    if name == "executor-stream":
        from perfbench.executor_stream import ExecutorStream

        return ExecutorStream(seed)
    from perfbench.spark_sse import SparkSSE

    return SparkSSE(seed, ROOT, OUT_DIR / "spark")


def _layer_metrics(tracer, n: int) -> dict[str, float]:
    """Per-pass span times and counters of ``n`` traced passes."""
    total, self_ms = tracer.totals_ms()
    c = tracer.counts

    def tot(*names):
        return sum(total.get(x, 0.0) for x in names) / n

    def per(key):
        return c.get(key, 0.0) / n

    def ratio(a, b):
        return c.get(a, 0.0) / c[b] if c.get(b) else 0.0

    return {
        "engine.data_plane_ms": self_ms.get("engine.run", 0.0) / n,
        "paradigms.init_layout_ms": tot("paradigms._init_layout"),
        "paradigms.elasticity_ms": tot("paradigms._elasticity"),
        "paradigms.elasticity_self_ms": self_ms.get("paradigms._elasticity", 0.0) / n,
        "scheduler.allocate_ms": tot("scheduler.allocate_cores"),
        "scheduler.calls": per("scheduler.calls"),
        "scheduler.infeasible_calls": per("scheduler.infeasible_calls"),
        "assignment.assign_ms": tot("assignment.assign_cores", "assignment.assign_cores_naive"),
        "assignment.calls": per("assignment.calls"),
        "assignment.phi_doublings": per("assignment.phi_doublings"),
        "assignment.infeasible_calls": per("assignment.infeasible_calls"),
        "load_balancer.rebalance_ms": tot("load_balancer.rebalance"),
        "load_balancer.calls": per("load_balancer.calls"),
        "load_balancer.moves": per("load_balancer.moves"),
        "load_balancer.useful_frac": ratio("load_balancer.useful_calls", "load_balancer.calls"),
        "shards.hash_ms": tot("shards.key_to_shard"),
        "shards.hash_calls": per("shards.hash_calls"),
        "shards.keys_per_call": ratio("shards.hash_keys", "shards.hash_calls"),
        "executor.receive_ms": tot("executor.receive"),
        "executor.step_ms": tot("executor.step"),
        "executor.reassign_ms": tot("executor.reassign_shard"),
        "executor.core_change_ms": tot("executor.add_core", "executor.remove_core"),
        # generation runs once, in the traced set-up, so these are not per pass
        "streams.trace_gen_ms": tracer.span_ms("streams.sse_trace") + tracer.span_ms("streams.micro_trace"),
        "streams.orders_gen_ms": tracer.span_ms("streams.sse_orders_pdf"),
        "bench.driver_self_ms": self_ms.get("bench.pass", 0.0) / n,
        "trace.self_ms_sum": sum(v for k, v in self_ms.items() if k != "bench.untimed") / n,
    }


def _traced(workload, out, seconds: float, run_name: str) -> dict[str, float]:
    from perfbench import common, tracing

    untraced: list[float] = []
    common.timed_passes(seconds / 2, lambda i: untraced.append(common.scaled_pass(workload, i, out)), 1)
    start = len(untraced)
    tracer = tracing.Tracer()
    tracing.install(tracer)
    traced: list[float] = []
    try:
        with tracer.span("bench.setup"):
            workload.generate()
        tracer.counts.clear()
        out.tracer = out.speed.tracer = workload.tracer = tracer

        def traced_pass(i):
            tracer.run_id = i
            with tracer.span("bench.pass"):
                traced.append(common.scaled_pass(workload, start + i, out))
            tracer.run_id = -1

        common.timed_passes(seconds / 2, traced_pass, 1)
    finally:
        tracer.uninstall()
        out.tracer = out.speed.tracer = workload.tracer = None
    tracer.write(OUT_DIR / f"trace-{run_name}.jsonl")
    layers = _layer_metrics(tracer, len(traced))
    layers.update(workload.layers(len(traced)))
    scales = out.pass_scales
    u, t = common.median(untraced), common.median(traced)
    # span times are as measured, so the pass times they add up to are too
    layers["trace.untraced_pass_ms"] = common.median([w / s for w, s in zip(untraced, scales)]) * 1000.0
    layers["trace.pass_ms"] = common.median([w / s for w, s in zip(traced, scales[start:])]) * 1000.0
    layers["trace.overhead_frac"] = t / u - 1.0
    return layers


def main(argv=None) -> int:
    args = _parse(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    _import_program()
    from perfbench import common

    workload = _make(args.workload, args.seed)
    import_s = time.perf_counter() - _T0
    # Set-up is timed without its probes, and each step is scaled by the
    # probes around it (the imports by the first few, which follow them).
    speed = common.HostSpeed()
    x = workload.scale_exponent
    for _ in range(SETUP_PROBES):
        speed.probe()

    def step(fn) -> tuple[float, float]:
        """(seconds, scaled seconds) of ``fn()``, followed by a probe."""
        t0 = time.perf_counter()
        fn()
        t1 = time.perf_counter()
        speed.probe()
        return t1 - t0, (t1 - t0) * speed.scale_between(t0, t1, 0.0) ** x

    steps = {"imports": (import_s, import_s * speed.scale() ** x)}
    gens = [step(workload.generate) for _ in range(GEN_REPEATS)]
    steps["generation"] = (common.median([g[0] for g in gens]), common.median([g[1] for g in gens]))
    out = common.Outcome()
    try:
        steps["prepare"] = step(workload.prepare)
        workload.prepare_checks()
        # warm-up passes: checked, but their timings are discarded
        warm = common.Outcome(speed=speed)
        runs = [workload.run_pass(-1, warm) for _ in range(workload.warmup_passes)]
        steps["warm-up"] = (sum(r[1] for r in runs), sum(r[2] for r in runs))
        setup_raw_s = sum(raw for raw, _ in steps.values())
        out.setup_s = sum(scaled for _, scaled in steps.values())
        print(
            "set-up (seconds, scaled): "
            + ", ".join(f"{k} {raw:.3f} {scaled:.3f}" for k, (raw, scaled) in steps.items()),
            file=sys.stderr,
        )
        out.attempted, out.failed = warm.attempted, warm.failed
        if args.trace:
            values = _traced(workload, out, args.seconds, f"{args.workload}-{args.seed}")
            values.update(
                {
                    "host.probe_us": common.median(out.speed.samples) * 1e6,
                    "host.raw_throughput_per_s": common.median(out.raw_rates),
                    "host.raw_setup_s": setup_raw_s,
                }
            )
            wanted = spec["per_layer"]
        else:
            common.timed_passes(args.seconds, lambda i: common.scaled_pass(workload, i, out))
            values = {}
            wanted = spec["end_to_end"]
        out.peak_rss_mb = common.peak_rss_mb()
    finally:
        workload.close()

    lat = out.latency_ms
    values.update(
        {
            "throughput_per_s": common.median(out.pass_rates),
            "latency_ms_p50": common.percentile(lat, 50),
            "latency_ms_p90": common.percentile(lat, 90),
            "setup_s": out.setup_s,
            "peak_rss_mb": out.peak_rss_mb,
        }
    )
    # a layer the workload never calls reports 0 (e.g. the allocator on micro-baselines)
    get = (lambda n: values.get(n, 0.0)) if args.trace else values.__getitem__
    metrics = {m["name"]: {"value": float(get(m["name"])), "unit": m["unit"]} for m in wanted}
    print(
        f"# {args.workload} seed={args.seed} trace={args.trace}: {len(out.pass_rates)} passes, "
        f"{len(lat)} latency samples, {out.attempted} checks, {out.failed} failed "
        f"(ops_failed_frac={out.failed / max(out.attempted, 1):.4g}); host scale "
        f"{common.median(out.pass_scales):.3f} (raw throughput {common.median(out.raw_rates):.6g}/s)"
    )
    for name, m in metrics.items():
        print(f"{name:40s} {m['value']:.6g} {m['unit']}")
    result = {
        "correct": out.failed == 0 and out.attempted > 0,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
