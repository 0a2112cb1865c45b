"""Record the oracle reference values and tolerances the benchmark checks against.

Run from the repository root, once, on the commit whose oracle is the
authority:

    python3 perfbench/record_reference.py

It writes ``perfbench/reference.json`` with

* ``matched_tolerance``: for each period count used, twice the largest
  relative deviation of the oracle's conditional EPR variance from the
  closed form over a grid of matched lossless pulses (kappa 0.6..2,
  n_i 0..900); the deviation grows with n_i and pulse length;
* ``table``: mismatch and damping drift models for ``oracle_sweep``, each
  with its n_i grid and the oracle's EPR variances, since only the oracle
  can say what those should be.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from eprbus import build_model, oracle_epr_after_measurement  # noqa: E402
from eprbus.iomaps import ProtocolParams  # noqa: E402

from workloads import (  # noqa: E402
    KAPPA_RANGE,
    PLAIN_N_I,
    REFERENCE_FILE,
    SWEEP_LAYOUT,
    TRAJECTORY_LAYOUT,
    closed_form,
    pulse_params,
)

#: Entries per table key; one is used per pass, so this caps the passes of a run.
TABLE_ENTRIES = 64
STUDY_KAPPA = (0.6, 1.0, 1.5, 2.0)
STUDY_N_I = (0.0, 50.0, 300.0, 900.0)


def _oracle_delta(op: dict) -> float:
    model = build_model(
        pulse_params(ProtocolParams, op),
        damping=op["cls"] == "damping",
        mismatch=op["cls"] == "mismatch",
    )
    return oracle_epr_after_measurement(model).delta_epr


def tolerance_study() -> tuple[dict, dict]:
    periods_used = sorted(
        {float(p) for _, p, _ in SWEEP_LAYOUT} | {float(p) for _, p in TRAJECTORY_LAYOUT}
    )
    worst, tolerance = {}, {}
    for periods in periods_used:
        deviation = 0.0
        for kappa in STUDY_KAPPA:
            for n_i in STUDY_N_I:
                op = {"cls": "plain", "periods": periods, "kappa": kappa, "n_i": n_i,
                      "eps": 0.0, "gamma_m": 0.0, "n_th": 0.0}
                delta = _oracle_delta(op)
                deviation = max(deviation, abs(delta / closed_form(kappa, n_i) - 1.0))
        key = repr(periods)
        worst[key] = deviation
        tolerance[key] = float(f"{2.0 * deviation:.2g}")
        print(f"periods {periods}: max deviation {deviation:.3e}", file=sys.stderr)
    return worst, tolerance


def record_table() -> dict:
    rng = np.random.default_rng(2008)
    table = {}
    for cls, periods, grid in SWEEP_LAYOUT:
        if cls not in ("mismatch", "damping"):
            continue
        entries = []
        for _ in range(TABLE_ENTRIES):
            entry = {
                "kappa": float(rng.uniform(*KAPPA_RANGE)),
                "eps": float(rng.uniform(0.01, 0.05)) if cls == "mismatch" else 0.0,
                "gamma_m": float(rng.uniform(0.005, 0.05)) if cls == "damping" else 0.0,
                "n_th": float(rng.uniform(0.0, 2.0)) if cls == "damping" else 0.0,
                "n_i": sorted(float(v) for v in rng.uniform(*PLAIN_N_I, size=grid)),
            }
            entry["delta"] = [
                _oracle_delta(dict(entry, cls=cls, periods=periods, n_i=n_i))
                for n_i in entry["n_i"]
            ]
            entries.append(entry)
        table[f"{cls}@{periods}"] = entries
        print(f"{cls}@{periods}: {len(entries)} entries", file=sys.stderr)
    return table


def main() -> int:
    worst, tolerance = tolerance_study()
    payload = {
        "note": "oracle values of this commit; see record_reference.py",
        "matched_max_deviation": worst,
        "matched_tolerance": tolerance,
        "table": record_table(),
    }
    if not all(math.isfinite(d) for e in payload["table"].values() for x in e for d in x["delta"]):
        raise FloatingPointError("the oracle returned a non-finite reference value")
    REFERENCE_FILE.write_text(json.dumps(payload, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
