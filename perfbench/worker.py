"""One workload run in a fresh, single-threaded process; started by run.py.

    worker.py --probe-setup WORKLOAD --root DIR
        time the fresh-process import of what WORKLOAD uses and print it,
        scaled to the reference speed (see speed.py) and raw;
    worker.py --workload W --seed N --seconds S --trace 0|1 --root DIR
              --workdir DIR --result FILE [--spans FILE]
        run passes of W until S seconds are spent and write the result.

Only ``sys`` and ``time`` are imported before the set-up probe reads the
clock, so the import it times is not already half done.
"""

import sys
import time


def probe_setup(workload: str, root: str) -> None:
    sys.path.insert(0, f"{root}/src")
    start = time.perf_counter()
    import eprbus

    if workload == "scenario_batch":
        import eprbus.cli  # noqa: F401  the batch drives the command line front end
    elapsed = time.perf_counter() - start
    _require_checkout(eprbus, root)
    from speed import kernel_seconds, scale

    kernel_seconds()  # first call pays for lazy numpy set-up
    print(repr(elapsed * scale([kernel_seconds() for _ in range(9)])), repr(elapsed))


def _require_checkout(package, root: str) -> None:
    from pathlib import Path

    origin = Path(package.__file__).resolve()
    if not origin.is_relative_to(Path(root, "src").resolve()):
        raise SystemExit(f"eprbus imported from {origin}, not from {root}/src")


def machine_facts() -> dict:
    import os
    import platform

    import numpy as np

    facts = {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "cpu_model": "unknown",
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {},
        "thread_pins": {
            k: os.environ.get(k)
            for k in (
                "OMP_NUM_THREADS",
                "OPENBLAS_NUM_THREADS",
                "MKL_NUM_THREADS",
                "BLIS_NUM_THREADS",
                "VECLIB_MAXIMUM_THREADS",
                "NUMEXPR_NUM_THREADS",
            )
        },
        "limits": (
            "the harness measures only its own processes (perf_counter, "
            "ru_maxrss of the workload process); no system-wide tracing, no "
            "page-cache dropping, no CPU pinning or frequency control"
        ),
    }
    try:
        with open("/proc/cpuinfo") as cpuinfo:
            for line in cpuinfo:
                if line.startswith("model name"):
                    facts["cpu_model"] = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
        facts["blas"] = {k: deps[k].get("name") + " " + str(deps[k].get("version")) for k in ("blas", "lapack")}
    except (TypeError, KeyError, AttributeError):
        facts["blas"] = {"config": "unavailable from this numpy"}
    return facts


def run_workload(args) -> dict:
    import resource
    import statistics
    from pathlib import Path

    sys.path.insert(0, f"{args.root}/src")
    import eprbus
    import eprbus.cli  # noqa: F401  bound in sys.modules for the tracer and the batch

    _require_checkout(eprbus, args.root)
    from speed import kernel_seconds, scale, scale_each
    from stats import tail_percentile, percentile
    from tracing import LAYERS, Tracer
    from workloads import make_workload

    modules = {layer: sys.modules[f"eprbus.{layer}"] for layer in LAYERS}
    workload = make_workload(args.workload, args.seed, modules, Path(args.workdir))
    tracer = Tracer() if args.trace else None
    clock = time.perf_counter

    passes: list[dict] = []
    op_pass: list[int] = []
    seen_models: set = set()
    counts = {"attempted": 0, "failed": 0, "valid_failed": 0, "invalid": 0, "rejected": 0, "reused": 0}
    failures: list[str] = []
    started = clock()
    pass_seconds: list[float] = []
    while len(passes) < workload.max_passes:
        index = len(passes)
        pass_start = clock()
        inputs = workload.generate(index)
        traced = tracer is not None and index % 2 == 1
        if traced:
            tracer.install()
        latencies, steps, kernel = [], 0, []
        for op in inputs:
            op_id = len(op_pass)
            op_pass.append(index)
            if traced:
                tracer.op_id = op_id
            kernel.append(kernel_seconds())
            t0 = clock()
            try:
                result, error = workload.run(op), None
            except Exception as err:  # noqa: BLE001  any escape is a failed operation
                result, error = None, err
            latencies.append(clock() - t0)
            outcome = workload.check(op, result, error)
            counts["attempted"] += 1
            if outcome.model is not None:
                counts["reused"] += outcome.model in seen_models
                seen_models.add(outcome.model)
            steps += outcome.n_steps
            counts["invalid"] += outcome.invalid_input
            counts["rejected"] += outcome.rejected
            if not outcome.ok:
                counts["failed"] += 1
                counts["valid_failed"] += not outcome.invalid_input
                if len(failures) < 20:
                    failures.append(f"pass {index} {op.get('kind', op.get('cls'))}: {outcome.detail}")
        kernel.append(kernel_seconds())
        if traced:
            tracer.uninstall()
        scaled = scale_each(latencies, kernel)
        passes.append(
            {
                "traced": traced,
                "factor": scale(kernel),
                "raw_wall_s": sum(latencies),
                "wall_s": sum(scaled),
                "latencies": scaled,
                "rk4_steps": steps,
            }
        )
        pass_seconds.append(clock() - pass_start)
        elapsed = clock() - started
        if len(passes) >= workload.min_passes and elapsed + statistics.median(pass_seconds) > args.seconds:
            break

    plain = [p for p in passes if not p["traced"]]
    all_latencies = [x for p in plain for x in p["latencies"]]
    tail_pct = tail_percentile(workload.ops_per_pass * workload.min_passes)
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "passes": len(passes),
        "ops_per_pass": workload.ops_per_pass,
        "counts": counts,
        "failures": failures,
        "model_reuse": counts["reused"] / counts["attempted"],
        "rejected_share": counts["rejected"] / counts["invalid"] if counts["invalid"] else 0.0,
        "speed_factors": [p["factor"] for p in passes],
        "raw_wall_s_passes": [p["raw_wall_s"] for p in plain],
        "raw_wall_s": statistics.median(p["raw_wall_s"] for p in plain),
        "wall_s_passes": [p["wall_s"] for p in plain],
        "latencies_s_passes": [p["latencies"] for p in plain],
        "wall_s": statistics.median(p["wall_s"] for p in plain),
        "op_p50_ms": 1e3 * statistics.median(all_latencies),
        "op_samples": len(all_latencies),
        "tail_percentile": tail_pct,
        "op_tail_ms": 1e3 * percentile(all_latencies, tail_pct),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "machine": machine_facts(),
    }
    if tracer is not None:
        result["trace_summary"] = _trace_metrics(tracer, passes, op_pass)
        if args.spans:
            import json

            Path(args.spans).write_text(
                json.dumps({"functions": tracer.functions, "op_pass": op_pass, "spans": tracer.spans})
            )
    return result


def _trace_metrics(tracer, passes, op_pass) -> dict:
    """Per-layer numbers of each traced pass, and their medians."""
    import statistics

    from tracing import summarize

    groups = summarize(tracer.spans, tracer.functions, group_of=lambda op_id: op_pass[op_id])
    per_pass = []
    for index, summary in sorted(groups.items()):
        # spans hold raw times; shares use the raw wall time, times are scaled
        wall = passes[index]["raw_wall_s"]
        factor = passes[index]["factor"]
        steps = passes[index]["rk4_steps"]
        row = {}
        self_total = 0.0
        for layer in tracer.layers:
            entry = summary["layers"].get(layer, {"calls": 0, "self_s": 0.0})
            self_total += entry["self_s"]
            row[f"{layer}.calls"] = entry["calls"]
            row[f"{layer}.self_ms"] = 1e3 * factor * entry["self_s"]
            row[f"{layer}.share"] = entry["self_s"] / wall
            row[f"{layer}.us_per_call"] = (
                1e6 * factor * entry["self_s"] / entry["calls"] if entry["calls"] else 0.0
            )
        propagate = summary["functions"].get("oracle.propagate_moments", {"self_s": 0.0})
        row["oracle.rk4_steps"] = steps
        row["oracle.us_per_step"] = 1e6 * factor * propagate["self_s"] / steps if steps else 0.0
        # layer self times plus the benchmark's own time inside operations
        # (outside every root span) must add up to the traced wall time
        row["trace.accounted"] = (self_total + (wall - summary["root_s"])) / wall
        if abs(row["trace.accounted"] - 1.0) > 1e-6:
            raise ArithmeticError(f"pass {index}: spans account for {row['trace.accounted']!r} of the wall time")
        per_pass.append(row)
    traced_walls = [p["wall_s"] for p in passes if p["traced"]]
    plain_walls = [p["wall_s"] for p in passes if not p["traced"]]
    medians = {key: statistics.median(row[key] for row in per_pass) for key in per_pass[0]}
    medians["trace.overhead_s"] = statistics.median(traced_walls) - statistics.median(plain_walls)
    return {"medians": medians, "per_pass": per_pass, "traced_passes": len(per_pass)}


def main(argv: list[str]) -> int:
    if len(argv) == 4 and argv[0] == "--probe-setup" and argv[2] == "--root":
        probe_setup(argv[1], argv[3])
        return 0
    import argparse
    import json

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--root", required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--spans", default=None)
    args = parser.parse_args(argv)
    result = run_workload(args)
    with open(args.result, "w") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
