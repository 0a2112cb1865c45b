"""Compare two result sets of the benchmark, metric by metric and workload by workload.

    python3 perfbench/compare.py BASE_DIR NEW_DIR

Each directory holds the files ``run.py --out DIR`` writes.  Runs are paired
by workload and seed; make the pairs by alternating which side runs first.
Every end-to-end metric x workload pairing is printed as better, worse,
unchanged or unresolved under the bounds in BENCHMARK.json and the rules of
:func:`stats.verdict`.  Per-layer medians from traced runs follow, without a
verdict, since they have no bound.  Exits 1 when any pairing is worse.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

from stats import verdict

HERE = Path(__file__).resolve().parent


def load_set(directory: Path) -> dict:
    """``{(workload, trace): {seed: {metric: value}}}`` from one result directory."""
    runs: dict = {}
    for path in sorted(directory.glob("*-seed*-trace*.json")):
        if path.name.endswith("-spans.json"):
            continue
        result = json.loads(path.read_text())
        values = {name: entry["value"] for name, entry in result["final"]["metrics"].items()}
        runs.setdefault((result["workload"], result["trace"]), {})[result["seed"]] = values
    return runs


def compare(base: dict, new: dict, bench: dict) -> list[tuple[str, str, str, str]]:
    rows = []
    workloads = [w["name"] for w in bench["workloads"]]
    for metric in bench["end_to_end"]:
        for workload in workloads:
            base_runs = base.get((workload, 0), {})
            new_runs = new.get((workload, 0), {})
            name = metric["name"]
            decision, reason = verdict(
                {s: v[name] for s, v in base_runs.items()},
                {s: v[name] for s, v in new_runs.items()},
                metric["better"],
                metric["bound"],
            )
            rows.append((name, workload, decision, reason))
    return rows


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    base, new = load_set(Path(argv[0])), load_set(Path(argv[1]))
    rows = compare(base, new, bench)
    for name, workload, decision, reason in rows:
        print(f"{name:12s} {workload:18s} {decision:10s} {reason}")
    for workload in (w["name"] for w in bench["workloads"]):
        base_runs, new_runs = base.get((workload, 1), {}), new.get((workload, 1), {})
        if not base_runs or not new_runs:
            continue
        print(f"# per-layer medians on {workload} ({len(base_runs)} vs {len(new_runs)} traced runs)")
        for metric in bench["per_layer"]:
            name = metric["name"]
            b = statistics.median(v[name] for v in base_runs.values())
            n = statistics.median(v[name] for v in new_runs.values())
            print(f"#   {name:24s} {b:12.6g} -> {n:12.6g} {metric['unit']}")
    return 1 if any(decision == "worse" for _, _, decision, _ in rows) else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
