"""The per-piece timing script runs, times every piece and counts its page faults."""

import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "tools" / "piece_timings.py"

PIECES = [
    "GaussianState construction",
    "qnd_bigstep",
    "condition_on_readout",
    "run_epr_generation (conditional)",
    "oracle_epr_after_measurement (cached)",
    "_model_parts",
    "_check_symmetry",
    "_rk4_increment (RK4 step)",
    "_power_increment (powering)",
    "_pulse_maps (fresh build)",
    "_per_step_values (12 periods)",
    "_write_trajectory (12 periods)",
    "_write_trajectory (64 periods)",
    "load_scenario",
    "render_json",
    "render_json (sweep report)",
]


def test_piece_timings_smoke():
    done = subprocess.run(
        [sys.executable, str(SCRIPT), "--number", "1", "--repeat", "1"],
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    lines = done.stdout.splitlines()
    assert lines[0].startswith("# best of 1 x 1 calls, one BLAS thread")
    timed = [line.rsplit(None, 4) for line in lines[1:]]
    assert [name for name, *_ in timed] == PIECES
    assert all(float(us) > 0.0 and unit == "us" for _, us, unit, _, _ in timed)
    assert all(float(faults) >= 0.0 and label == "faults" for *_, faults, label in timed)


def test_piece_timings_refuses_a_zero_count():
    done = subprocess.run(
        [sys.executable, str(SCRIPT), "--number", "0"], capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 2 and "at least 1" in done.stderr
