"""Per-piece timings of the package, best of N, in microseconds.

Run from anywhere; the package is imported from the ``src`` directory of
the checkout that holds this script:

    python tools/piece_timings.py                  # 7 repeats of 1000 calls
    python tools/piece_timings.py --number 1 --repeat 1

Each piece is called once untimed, which fills every cache it reads, and
then timed with ``timeit``: the best of ``--repeat`` runs of ``--number``
calls, per call.  Beside each time stands the mean count of minor page
faults a call took over all the timed runs (``ru_minflt``): a piece whose
scratch the allocator hands back to the system between calls faults its
pages in again on every call.  BLAS and OpenMP run on one thread, as in the
benchmark.
The pieces are the layers of a cached ``oracle_sweep`` operation and of a
CLI run, whose report is rendered at two sizes: one run's and a sweep's.
The fresh pulse-map build calls the uncached function, with the rotation
lifts and the unmixing inverse that a grid's models share already cached;
its pieces are timed alone before it: the model's parts, the symmetry
check, the RK4 step with its generators' lift, and the powering of its
increment.  The fresh build of the means' map, which a pulse from a
displaced state pays once per drift model, is timed after it.  The trajectory
layer of an ``oracle_trajectory`` operation is timed on a cached pulse of
``TRAJECTORY_PERIODS``: its per-step values, and their CSV text written to
a fresh ``StringIO``.  The text is also timed for a pulse of
``LONG_TRAJECTORY_PERIODS``, where the writer's chunk size shows, and the
``%.17g`` kernel alone on the first ``CHUNK_ROWS`` rows of the first pulse's
table, as the writer passes them in one chunk.  Uses only
the standard library, numpy and the package's own runtime dependencies.
"""

from __future__ import annotations

import os

# before numpy is imported, so that its BLAS starts with one thread
for _var in (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import io  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import timeit  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from eprbus import cli, gaussian, iomaps, oracle, protocols  # noqa: E402
from eprbus._g17 import format_g17  # noqa: E402

#: The operating point of every piece: 16 Larmor periods, as most of a sweep.
KAPPA, N_I, PERIODS = 1.3, 20.0, 16
#: The pulse of the trajectory pieces, as most of an ``oracle_trajectory`` pass.
TRAJECTORY_PERIODS = 12
#: The longest pulse of an ``oracle_trajectory`` pass: one operation in ten,
#: but about a third of the pass's time.
LONG_TRAJECTORY_PERIODS = 64
#: The rows of the kernel's piece: one chunk of the writer.
CHUNK_ROWS = 1024
SCENARIO = ROOT / "scenarios" / "epr_conditional.yaml"
#: The kappa sweep, whose report is the largest a shipped scenario writes: the
#: size of the sweep reports in a batch's latency tail.
SWEEP = ROOT / "scenarios" / "kappa_sweep.yaml"


def pieces() -> dict:
    """The timed calls, by name, each with its inputs made once."""
    params = iomaps.ProtocolParams.dimensionless(KAPPA, N_I, larmor_periods=PERIODS)
    initial = gaussian.make_state(
        [
            (gaussian.mechanical_mode("m"), N_I, (0.0, 0.0)),
            (gaussian.atomic_mode("a"), 0.0, (0.0, 0.0)),
        ]
    )
    modes, mean, cov = initial.modes, initial.mean, initial.cov
    joint = iomaps.qnd_bigstep(initial, params)
    conditional = protocols.FeedbackConfig.conditional()
    model = oracle.build_model(params)
    drift, diffusion = oracle._model_parts(model)
    step = oracle._pulse_maps(model)[0]
    increment = step - np.eye(len(step))
    trajectory, long_trajectory = (
        oracle.build_model(iomaps.ProtocolParams.dimensionless(KAPPA, N_I, larmor_periods=periods))
        for periods in (TRAJECTORY_PERIODS, LONG_TRAJECTORY_PERIODS)
    )
    start = oracle._start(trajectory, None)[0]
    trajectory_step = oracle._pulse_maps(trajectory)[0]
    values = oracle._per_step_values(trajectory, trajectory_step, start)
    long_values = oracle._per_step_values(
        long_trajectory,
        oracle._pulse_maps(long_trajectory)[0],
        oracle._start(long_trajectory, None)[0],
    )
    # the writer's table: k dt and the four written columns of each step
    chunk = np.column_stack(
        (np.arange(CHUNK_ROWS) * trajectory.dt, values[:CHUNK_ROWS, [0, 2, 3, 4]])
    )
    scenario = cli.load_scenario(SCENARIO)
    report = cli.assemble_report(scenario, cli.execute(scenario))
    sweep = cli.load_scenario(SWEEP)
    sweep_report = cli.assemble_report(sweep, {"sweep": cli.execute_sweep(sweep)})
    return {
        "GaussianState construction": lambda: gaussian.GaussianState(modes, mean, cov),
        "qnd_bigstep": lambda: iomaps.qnd_bigstep(initial, params),
        "condition_on_readout": lambda: iomaps.condition_on_readout(joint),
        "run_epr_generation (conditional)": lambda: protocols.run_epr_generation(
            initial, params, conditional
        ),
        "oracle_epr_after_measurement (cached)": lambda: oracle.oracle_epr_after_measurement(
            model
        ),
        "_model_parts": lambda: oracle._model_parts(model),
        "_check_symmetry": lambda: oracle._check_symmetry(drift, diffusion),
        "_rk4_increment (RK4 step)": lambda: oracle._rk4_increment(
            model, oracle._covariance_generators(model, drift, diffusion)
        ),
        "_power_increment (powering)": lambda: oracle._power_increment(increment, model.n_steps),
        "_pulse_maps (fresh build)": lambda: oracle._pulse_maps.__wrapped__(model),
        "_mean_map (fresh build)": lambda: oracle._mean_map.__wrapped__(model),
        f"_per_step_values ({TRAJECTORY_PERIODS} periods)": lambda: oracle._per_step_values(
            trajectory, trajectory_step, start
        ),
        f"_write_trajectory ({TRAJECTORY_PERIODS} periods)": lambda: oracle._write_trajectory(
            io.StringIO(), trajectory.dt, values
        ),
        f"_write_trajectory ({LONG_TRAJECTORY_PERIODS} periods)": lambda: oracle._write_trajectory(
            io.StringIO(), long_trajectory.dt, long_values
        ),
        f"format_g17 ({CHUNK_ROWS} x 5)": lambda: format_g17(chunk, oracle._CSV_SEPARATORS),
        "load_scenario": lambda: cli.load_scenario(SCENARIO),
        "render_json": lambda: cli.render_json(report),
        "render_json (sweep report)": lambda: cli.render_json(sweep_report),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.partition("\n")[0])
    parser.add_argument("--number", type=int, default=1000, help="calls per timed run")
    parser.add_argument("--repeat", type=int, default=7, help="timed runs; the best is kept")
    args = parser.parse_args(argv)
    if args.number < 1 or args.repeat < 1:
        parser.error("--number and --repeat must be at least 1")
    print(f"# best of {args.repeat} x {args.number} calls, one BLAS thread, numpy {np.__version__}")
    for name, call in pieces().items():
        call()
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        best = min(timeit.repeat(call, number=args.number, repeat=args.repeat)) / args.number
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults
        per_call = faults / (args.number * args.repeat)
        print(f"{name:<40} {best * 1e6:9.1f} us {per_call:9.1f} faults")
    return 0


if __name__ == "__main__":
    sys.exit(main())
