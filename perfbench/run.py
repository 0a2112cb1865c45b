"""The eprbus benchmark: one workload per call, measured in a fresh process.

    python3 perfbench/run.py --workload oracle_sweep --seed 1 --seconds 35 --trace 0

Run from the root of a checkout; the program is imported from ``src/``.
With ``--trace 0`` it prints the end-to-end metrics of BENCHMARK.json
(median wall time of a pass, median and tail operation latency, set-up time,
peak RSS), with ``--trace 1`` the per-layer metrics from a traced run.  The
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; lines before it, starting with
``#``, give sample counts, the error rate with its base, and the machine.

``--out DIR`` also writes the full result (and, traced, the spans) to DIR,
which ``compare.py`` reads.  Scratch files live in ``.perfbench_tmp/`` under
the checkout and are removed on exit.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: Fresh processes timed for ``setup_s``; the median is reported.
SETUP_PROBES = 11
#: Every run must end well within this many seconds.
RUN_LIMIT_S = 170.0

THREAD_PINS = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "BLIS_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}


def _child_env(scratch: Path) -> dict:
    env = dict(os.environ)
    env.update(THREAD_PINS)
    env["PYTHONHASHSEED"] = "0"
    # bytecode goes to scratch, so no run writes into src/
    env["PYTHONPYCACHEPREFIX"] = str(scratch / "pycache")
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def _python(args: list[str], env: dict, timeout: float) -> str:
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), *args],
        env=env,
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=timeout,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker failed with exit {proc.returncode}:\n{proc.stderr[-4000:]}")
    return proc.stdout


def measure_setup(workload: str, env: dict) -> list[list[float]]:
    """``[scaled, raw]`` seconds of fresh-process imports of what ``workload`` uses.

    The first probe compiles bytecode into the scratch cache and is not kept:
    users pay that once per install, not once per run.
    """
    args = ["--probe-setup", workload, "--root", str(ROOT)]
    _python(args, env, timeout=60)
    return [[float(v) for v in _python(args, env, timeout=60).split()] for _ in range(SETUP_PROBES)]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="eprbus benchmark, one workload per call")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--out", default=None, help="directory for the full result and spans")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "eprbus" / "__init__.py").is_file():
        print(f"error: no eprbus sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    started = time.perf_counter()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    scratch = ROOT / ".perfbench_tmp" / f"{os.getpid()}"
    workdir = scratch / "work"
    workdir.mkdir(parents=True, exist_ok=True)
    env = _child_env(scratch)
    try:
        setup = [] if args.trace else measure_setup(args.workload, env)
        out_dir = Path(args.out).resolve() if args.out else None
        stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
        result_file = scratch / "result.json"
        worker_args = [
            "--workload", args.workload,
            "--seed", str(args.seed),
            "--seconds", str(args.seconds),
            "--trace", str(args.trace),
            "--root", str(ROOT),
            "--workdir", str(workdir),
            "--result", str(result_file),
        ]
        if out_dir is not None and args.trace:
            out_dir.mkdir(parents=True, exist_ok=True)
            worker_args += ["--spans", str(out_dir / f"{stem}-spans.json")]
        remaining = RUN_LIMIT_S - (time.perf_counter() - started)
        _python(worker_args, env, timeout=remaining)
        result = json.loads(result_file.read_text())
    except (RuntimeError, subprocess.TimeoutExpired, OSError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            scratch.parent.rmdir()
        except OSError:
            pass  # another run still uses it

    counts = result["counts"]
    if args.trace:
        metrics = dict(
            result["trace_summary"]["medians"],
            **{"oracle.model_reuse": result["model_reuse"], "cli.rejected": result["rejected_share"]},
        )
        declared = bench["per_layer"]
    else:
        metrics = {
            "wall_s": result["wall_s"],
            "op_p50_ms": result["op_p50_ms"],
            "op_tail_ms": result["op_tail_ms"],
            "setup_s": statistics.median(scaled for scaled, _ in setup),
            "peak_rss_mb": result["peak_rss_mb"],
        }
        declared = bench["end_to_end"]
    missing = [m["name"] for m in declared if m["name"] not in metrics]
    if missing:
        print(f"error: metrics not measured: {missing}", file=sys.stderr)
        return 1
    final = {
        "correct": counts["valid_failed"] == 0,
        "attempted": counts["attempted"],
        "failed": counts["failed"],
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in declared},
    }

    error_rate = counts["failed"] / counts["attempted"]
    print(f"# machine {json.dumps(result['machine'], sort_keys=True)}")
    print(
        f"# {args.workload} seed={args.seed} trace={args.trace}: {result['passes']} passes of "
        f"{result['ops_per_pass']} operations"
    )
    if not args.trace:
        print(
            f"# times at reference speed (speed.py); pass speed factors "
            f"{min(result['speed_factors']):.3f}..{max(result['speed_factors']):.3f}"
        )
        print(
            f"# wall_s = {result['wall_s']:.6g} s (median of {len(result['wall_s_passes'])} passes; "
            f"raw {result['raw_wall_s']:.6g} s)"
        )
        print(f"# op_p50_ms = {result['op_p50_ms']:.6g} ms (n={result['op_samples']})")
        print(
            f"# op_tail_ms = {result['op_tail_ms']:.6g} ms "
            f"(p{result['tail_percentile']:g}, n={result['op_samples']})"
        )
        raw_setup = statistics.median(raw for _, raw in setup)
        print(
            f"# setup_s = {metrics['setup_s']:.6g} s (median of {len(setup)} fresh processes; "
            f"raw {raw_setup:.6g} s)"
        )
        print(f"# peak_rss_mb = {result['peak_rss_mb']:.6g} MB")
    else:
        summary = result["trace_summary"]
        print(f"# per-layer medians over {summary['traced_passes']} traced passes")
    print(f"# error_rate = {error_rate:.6g} ({counts['failed']}/{counts['attempted']} operations)")
    print(
        f"# cli.rejected = {result['rejected_share']:.6g} "
        f"({counts['rejected']}/{counts['invalid']} invalid files); "
        f"oracle.model_reuse = {result['model_reuse']:.6g} "
        f"({counts['reused']}/{counts['attempted']} operations)"
    )
    for failure in result["failures"][:5]:
        print(f"# failed: {failure}")
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
        full = dict(result, final=final, setup_s_samples=setup)
        (out_dir / f"{stem}.json").write_text(json.dumps(full, indent=1) + "\n")
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
