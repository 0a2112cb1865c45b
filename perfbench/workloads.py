"""The three workloads: inputs from the seed, the operations, and their checks.

A run repeats *passes*.  Every pass of a workload has the same fixed list of
operation slots, so its cost does not depend on the seed; the seed (and the
pass index) only draws the numbers that go into the slots.  Passes never
repeat a drift model, so nothing a cache could keep crosses a pass boundary.

Operations call the program through module attributes (``self.oracle.
build_model``), never through names bound at import time, so the tracer's
rebinding reaches them.  The checks use closed forms written out here, not
the library's own, so a traced run does not count them as program calls.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
REFERENCE_FILE = HERE / "reference.json"

HALF_PI = math.pi / 2.0
KAPPA_RANGE = (0.6, 2.0)
PLAIN_N_I = (0.0, 50.0)
HOT_N_I = (300.0, 900.0)

#: Agreement demanded of results that should equal a closed form exactly.
EXACT_RTOL = 1e-9
#: Agreement of the oracle with values recorded from the per-step integrator;
#: loose enough for a reordered but equivalent integration.
REFERENCE_RTOL = 1e-8
#: Conservation drift allowed on matched lossless trajectories.
DRIFT_LIMIT = 1e-6


def closed_form(kappa: float, n_i: float) -> float:
    """Conditional EPR variance ``2 / [(1 + n_i)^-1 + 2 kappa^2]``."""
    return 2.0 / (1.0 / (1.0 + n_i) + 2.0 * kappa**2)


def budget_form(delta, kappa, n_i, eps_mismatch=0.0, photon_loss=0.0, gamma_m_tau=0.0, n_th=0.0):
    """Loss budget folded into an EPR variance, as documented for ``apply_budget``.

    The keywords are the keys of a scenario's ``losses`` section.
    """
    penalties = (eps_mismatch * kappa * (n_i + 2.0)) ** 2 + 2.0 * gamma_m_tau * (n_th + 1.0)
    return (1.0 - photon_loss) * (delta + penalties) + 2.0 * photon_loss


def feedback_form(kappa: float, n_i: float, gain: float) -> float:
    """Unconditional EPR variance after feedback at a fixed gain."""
    v = 1.0 + n_i
    return 2.0 * ((1.0 - gain * kappa) ** 2 * v + gain**2 / 2.0)


def close(value, target, rtol: float) -> bool:
    return math.isfinite(value) and abs(value - target) <= rtol * abs(target)


def all_finite(node) -> bool:
    if isinstance(node, bool) or node is None or isinstance(node, str):
        return True
    if isinstance(node, (int, float)):
        return math.isfinite(node)
    if isinstance(node, dict):
        return all(all_finite(v) for v in node.values())
    if isinstance(node, (list, tuple)):
        return all(all_finite(v) for v in node)
    return False


def model_key(model) -> tuple:
    """What fixes a pulse's drift and diffusion; ``n_i`` only sets the start."""
    p = model.params
    return (
        model.kappa_mech,
        model.kappa_atom,
        model.damping,
        model.n_steps,
        model.dt,
        p.Omega,
        p.gamma_m if model.damping else 0.0,
        p.n_th if model.damping else 0.0,
    )


def epr_sum(cov: np.ndarray) -> tuple[float, float]:
    """``Var(X_m + X_a)`` and ``Var(P_m - P_a)`` for modes ordered (m, a, ...)."""
    return (
        float(cov[0, 0] + cov[2, 2] + 2.0 * cov[0, 2]),
        float(cov[1, 1] + cov[3, 3] - 2.0 * cov[1, 3]),
    )


@dataclass
class Outcome:
    """What the benchmark learned from one operation."""

    ok: bool
    invalid_input: bool = False
    rejected: bool = False  # invalid input refused with exit 2 naming the key
    model: tuple | None = None
    n_steps: int = 0
    detail: str = ""


@dataclass
class Workload:
    min_passes: int
    max_passes: int
    ops_per_pass: int
    modules: dict = field(repr=False)

    def __post_init__(self) -> None:
        for key, module in self.modules.items():
            setattr(self, key, module)


# ---------------------------------------------------------------------------
# oracle_sweep


#: (class, Larmor periods, n_i grid size) of the drift models in one pass.
#: Ten of the 18 operations are 16-period pulses, so both the median and the
#: 75th percentile fall well inside that class, where run-to-run noise cannot
#: flip them between classes of different cost.
SWEEP_LAYOUT = (
    ("plain", 8, 3),
    ("mismatch", 8, 3),
    ("plain", 16, 2),
    ("hot", 16, 3),
    ("mismatch", 16, 2),
    ("damping", 16, 3),
    ("hot", 64, 2),
)


def load_reference() -> dict:
    return json.loads(REFERENCE_FILE.read_text())


def matched_tolerance(reference: dict, periods: float) -> float:
    return reference["matched_tolerance"][repr(float(periods))]


class OracleSweep(Workload):
    """build_model -> oracle_epr_after_measurement -> run_epr_generation -> predict.

    Plain and hot models draw kappa and n_i afresh and are checked against the
    closed form within the tolerance measured by ``record_reference.py``.
    Mismatch and damping models come from the recorded table, without
    replacement, and are checked against the recorded oracle values.
    """

    def __init__(self, seed: int, modules: dict) -> None:
        reference = load_reference()
        table_len = min(len(v) for v in reference["table"].values())
        super().__init__(
            min_passes=3,
            max_passes=table_len,
            ops_per_pass=sum(grid for _, _, grid in SWEEP_LAYOUT),
            modules=modules,
        )
        self.seed = seed
        self.reference = reference
        self.order = {
            key: np.random.default_rng([seed, 7, i]).permutation(len(entries))
            for i, (key, entries) in enumerate(sorted(reference["table"].items()))
        }

    def generate(self, pass_index: int) -> list[dict]:
        rng = np.random.default_rng([self.seed, pass_index])
        ops = []
        for cls, periods, grid in SWEEP_LAYOUT:
            if cls in ("plain", "hot"):
                kappa = float(rng.uniform(*KAPPA_RANGE))
                n_i = rng.uniform(*(HOT_N_I if cls == "hot" else PLAIN_N_I), size=grid)
                base = {"kappa": kappa, "eps": 0.0, "gamma_m": 0.0, "n_th": 0.0}
                expected = [None] * grid
            else:
                key = f"{cls}@{periods}"
                entry = self.reference["table"][key][int(self.order[key][pass_index])]
                base = {k: entry[k] for k in ("kappa", "eps", "gamma_m", "n_th")}
                n_i, expected = entry["n_i"], entry["delta"]
            for value, want in zip(n_i, expected):
                ops.append(dict(base, cls=cls, periods=periods, n_i=float(value), expected=want))
        return ops

    def run(self, op: dict):
        params = pulse_params(self.iomaps.ProtocolParams, op)
        model = self.oracle.build_model(
            params, damping=op["cls"] == "damping", mismatch=op["cls"] == "mismatch"
        )
        oracle_report = self.oracle.oracle_epr_after_measurement(model)
        g = self.gaussian
        initial = g.make_state(
            [
                (g.mechanical_mode("m"), op["n_i"], (0.0, 0.0)),
                (g.atomic_mode("a"), 0.0, (0.0, 0.0)),
            ]
        )
        _, ideal, _ = self.protocols.run_epr_generation(
            initial, params, self.protocols.FeedbackConfig.conditional()
        )
        predicted = self.protocols.predict_epr_variance(op["kappa"], op["n_i"])
        return model, oracle_report.delta_epr, ideal.delta_epr, predicted

    def check(self, op: dict, result, error) -> Outcome:
        if error is not None:
            return Outcome(False, detail=repr(error))
        model, oracle_delta, ideal_delta, predicted = result
        exact = closed_form(op["kappa"], op["n_i"])
        out = Outcome(True, model=model_key(model), n_steps=model.n_steps)
        if not (close(predicted, exact, EXACT_RTOL) and close(ideal_delta, exact, EXACT_RTOL)):
            out.ok, out.detail = False, f"idealized {ideal_delta!r} / predicted {predicted!r} vs {exact!r}"
        elif op["expected"] is None:
            tol = matched_tolerance(self.reference, op["periods"])
            if not close(oracle_delta, exact, tol):
                out.ok, out.detail = False, f"oracle {oracle_delta!r} vs closed form {exact!r}"
        elif not close(oracle_delta, op["expected"], REFERENCE_RTOL):
            out.ok, out.detail = False, f"oracle {oracle_delta!r} vs recorded {op['expected']!r}"
        return out


# ---------------------------------------------------------------------------
# oracle_trajectory


#: (class, Larmor periods) of the pulses in one pass, each its own drift model.
#: Seven of the ten pulses take 2400 or 2500 steps (12 or 12.5 periods), so the
#: median and the 75th percentile both fall inside that class.
TRAJECTORY_LAYOUT = (
    ("plain", 8),
    ("damping", 8),
    ("plain", 12),
    ("mismatch", 12),
    ("hot", 12),
    ("plain", 12.5),
    ("hot", 12.5),
    ("mismatch", 12.5),
    ("damping", 12.5),
    ("hot", 64),
)


def pulse_params(ProtocolParams, op: dict):
    """Unit-length pulse of ``op["periods"]`` Larmor periods, matched couplings.

    Whole periods go through ``ProtocolParams.dimensionless``; fractional ones
    are built field by field with the same choices of ``g`` and ``gamma_c``.
    """
    extra = {"eps_mismatch": op["eps"], "gamma_m": op["gamma_m"], "n_th": op["n_th"]}
    if float(op["periods"]).is_integer():
        return ProtocolParams.dimensionless(
            op["kappa"], op["n_i"], larmor_periods=int(op["periods"]), **extra
        )
    omega = 2.0 * math.pi * op["periods"]
    gamma_c = 1e6
    return ProtocolParams(
        kappa=op["kappa"],
        n_i=op["n_i"],
        g=op["kappa"] * math.sqrt(gamma_c),
        gamma_c=gamma_c,
        omega_m=omega,
        Omega=omega,
        tau=1.0,
        **extra,
    )


class OracleTrajectory(Workload):
    """propagate_moments with a per-step trajectory, then both conditionings.

    Non-integer period counts are built through ``ProtocolParams`` directly,
    since ``dimensionless`` only takes whole periods.
    """

    def __init__(self, seed: int, modules: dict) -> None:
        super().__init__(
            min_passes=5,
            max_passes=10_000,
            ops_per_pass=len(TRAJECTORY_LAYOUT),
            modules=modules,
        )
        self.seed = seed
        self.reference = load_reference()

    def generate(self, pass_index: int) -> list[dict]:
        rng = np.random.default_rng([self.seed, pass_index])
        ops = []
        for cls, periods in TRAJECTORY_LAYOUT:
            ops.append(
                {
                    "cls": cls,
                    "periods": periods,
                    "kappa": float(rng.uniform(*KAPPA_RANGE)),
                    "n_i": float(rng.uniform(*(HOT_N_I if cls == "hot" else PLAIN_N_I))),
                    "eps": float(rng.uniform(0.01, 0.05)) if cls == "mismatch" else 0.0,
                    "gamma_m": float(rng.uniform(0.005, 0.05)) if cls == "damping" else 0.0,
                    "n_th": float(rng.uniform(0.0, 2.0)) if cls == "damping" else 0.0,
                }
            )
        return ops

    def run(self, op: dict):
        model = self.oracle.build_model(
            pulse_params(self.iomaps.ProtocolParams, op),
            damping=op["cls"] == "damping",
            mismatch=op["cls"] == "mismatch",
        )
        buffer = io.StringIO()
        state, info = self.oracle.propagate_moments(model, trajectory=buffer, return_info=True)
        g, cos_mode, sin_mode = self.gaussian, self.iomaps.COS_MODE, self.iomaps.SIN_MODE
        conditioned, _ = g.condition_on_homodyne(state, cos_mode, HALF_PI, 0.0)
        conditioned, _ = g.condition_on_homodyne(conditioned, sin_mode, HALF_PI, 0.0)
        return model, buffer, state.cov, info, conditioned.cov

    def check(self, op: dict, result, error) -> Outcome:
        if error is not None:
            return Outcome(False, detail=repr(error))
        model, buffer, cov, info, conditioned = result
        out = Outcome(True, model=model_key(model), n_steps=model.n_steps)
        text = buffer.getvalue()
        rows = text.count("\n") - 1  # minus the header
        last = [float(v) for v in text[text.rstrip("\n").rfind("\n") + 1 :].split(",")]
        final = (*epr_sum(cov), float(cov[5, 5]), float(cov[7, 7]))
        matched = op["cls"] in ("plain", "hot")
        drift = max(info["max_rel_drift_xsum"], info["max_rel_drift_pdiff"])
        delta = sum(epr_sum(conditioned))
        if rows != model.n_steps + 1 or info["n_steps"] != model.n_steps:
            out.ok, out.detail = False, f"{rows} rows for {model.n_steps} steps"
        elif not close(last[0], model.params.tau, EXACT_RTOL):
            out.ok, out.detail = False, f"last row at t={last[0]!r}"
        elif not all(close(a, b, EXACT_RTOL) for a, b in zip(last[1:], final)):
            out.ok, out.detail = False, f"last row {last[1:]} vs covariance {final}"
        elif not (np.all(np.isfinite(conditioned)) and delta > 0.0):
            out.ok, out.detail = False, f"conditioned EPR variance {delta!r}"
        elif matched and not drift < DRIFT_LIMIT:
            out.ok, out.detail = False, f"conservation drift {drift!r}"
        elif matched and not close(
            delta,
            closed_form(op["kappa"], op["n_i"]),
            matched_tolerance(self.reference, op["periods"]),
        ):
            out.ok, out.detail = False, f"conditioned EPR variance {delta!r} vs closed form"
        return out


# ---------------------------------------------------------------------------
# scenario_batch


#: Slot kinds of one pass and how many of each; about 10% are invalid files.
SCENARIO_MIX = (
    ("conditional", 8),
    ("conditional_losses", 6),
    ("feedback_optimal", 5),
    ("feedback_fixed", 4),
    ("verify_exact", 5),
    ("verify_shots", 4),
    ("teleport_asymptotic", 5),
    ("teleport_finite", 4),
    ("sweep_kappa_json", 4),
    ("sweep_n_i_csv", 2),
    ("plan", 4),
    ("setup_run", 3),
    ("invalid_nonfinite", 1),
    ("invalid_wrong_type", 1),
    ("invalid_unknown_key", 1),
    ("invalid_out_of_range", 1),
    ("invalid_bad_enum", 1),
    ("invalid_missing_key", 1),
)

#: Micromirror reference setup (SI units), perturbed per slot.
SETUP_BASE = {
    "mech": {"omega_m_hz": 5.0e6, "mass_kg": 1.0e-12, "q_factor": 5.0e5, "temperature_k": 0.2},
    "cavity": {"finesse": 4500.0, "length_m": 300.0e-6, "power_w": 100.0e-6, "tau_s": 2.0e-6},
    "atoms": {
        "gamma_hz": 5.2e6,
        "delta_hz": 1.0e9,
        "sigma_m2": 1.0e-13,
        "area_m2": 1.0e-8,
        "n_atoms": 1.78e5,
        "larmor_hz": 5.0e6,
    },
}


def _num(x: float) -> str:
    """``repr`` of a float, spelled so that PyYAML reads back the same float.

    PyYAML takes ``1e-05`` for a string; ``1.0e-05`` is a float.
    """
    text = repr(float(x))
    mantissa, e, exponent = text.partition("e")
    if e and "." not in mantissa:
        text = f"{mantissa}.0e{exponent}"
    return text


def _slot_order() -> list[str]:
    slots = [kind for kind, count in SCENARIO_MIX for _ in range(count)]
    order = np.random.default_rng(2008).permutation(len(slots))
    return [slots[i] for i in order]


class ScenarioBatch(Workload):
    """In-process ``eprbus.cli.main([verb, "--scenario", f, "--out", tmp])``."""

    def __init__(self, seed: int, modules: dict, workdir: Path) -> None:
        slots = _slot_order()
        super().__init__(
            min_passes=20,
            max_passes=100_000,
            ops_per_pass=len(slots),
            modules=modules,
        )
        self.seed = seed
        self.slots = slots
        self.workdir = workdir

    def generate(self, pass_index: int) -> list[dict]:
        rng = np.random.default_rng([self.seed, pass_index])
        ops = []
        for i, kind in enumerate(self.slots):
            op = self._scenario(kind, rng)
            op["kind"] = kind
            op["file"] = self.workdir / f"slot_{i:02d}.yaml"
            op["out"] = self.workdir / f"out_{i:02d}.{'csv' if kind == 'sweep_n_i_csv' else 'json'}"
            op["file"].write_text(op.pop("text"))
            op["out"].unlink(missing_ok=True)
            ops.append(op)
        return ops

    def _scenario(self, kind: str, rng) -> dict:
        def r6(lo: float, hi: float) -> float:
            return round(float(rng.uniform(lo, hi)), 6)

        kappa, n_i = r6(*KAPPA_RANGE), r6(*PLAIN_N_I)
        seed = int(rng.integers(0, 2**31))
        model = f"model:\n  kappa: {_num(kappa)}\n  n_i: {_num(n_i)}\n"
        head = f"seed: {seed}\n"
        op = {"verb": "run", "kappa": kappa, "n_i": n_i}
        if kind == "conditional":
            op["text"] = "protocol: epr_conditional\n" + head + model
        elif kind == "conditional_losses":
            losses = {
                "eps_mismatch": r6(0.001, 0.02),
                "photon_loss": r6(0.01, 0.2),
                "gamma_m_tau": r6(0.001, 0.03),
                "n_th": r6(0.0, 3.0),
            }
            op["losses"] = losses
            body = "".join(f"  {k}: {_num(v)}\n" for k, v in losses.items())
            op["text"] = "protocol: epr_conditional\n" + head + model + "losses:\n" + body
        elif kind == "feedback_optimal":
            op["text"] = "protocol: epr_feedback\n" + head + model + "feedback:\n  mode: optimal\n"
        elif kind == "feedback_fixed":
            op["gain"] = r6(0.2, 1.0) / kappa
            op["text"] = (
                "protocol: epr_feedback\n" + head + model
                + f"feedback:\n  mode: fixed\n  gain: {_num(op['gain'])}\n"
            )
        elif kind == "verify_exact":
            op["text"] = "protocol: verify\n" + head + model
        elif kind == "verify_shots":
            op["text"] = "protocol: verify\n" + head + model + "verify:\n  shots: 4000\n"
        elif kind in ("teleport_asymptotic", "teleport_finite"):
            op["input_mean"] = [r6(-1.0, 1.0), r6(-1.0, 1.0)]
            mean = f"  input_mean: [{_num(op['input_mean'][0])}, {_num(op['input_mean'][1])}]\n"
            if kind == "teleport_asymptotic":
                section = "  asymptotic: true\n" + mean
            else:
                k_qnd = r6(2.0, 5.0)
                section = f"  kappa_qnd: {_num(k_qnd)}\n  bell_gain: {_num(r6(0.8, 1.0) / k_qnd)}\n" + mean
            op["text"] = "protocol: teleport\n" + head + model + "teleport:\n" + section
        elif kind == "sweep_kappa_json":
            op["verb"] = "sweep"
            op["values"] = sorted(r6(*KAPPA_RANGE) for _ in range(5))
            op["losses"] = {"photon_loss": r6(0.01, 0.2)}
            op["text"] = (
                "protocol: epr_conditional\n" + head + model
                + f"losses:\n  photon_loss: {_num(op['losses']['photon_loss'])}\n"
                + "sweep:\n  path: model.kappa\n"
                + f"  values: [{', '.join(_num(v) for v in op['values'])}]\n"
            )
        elif kind == "sweep_n_i_csv":
            op["values"] = sorted(r6(*PLAIN_N_I) for _ in range(5))
            op["text"] = (
                "protocol: epr_conditional\n" + head + model
                + "sweep:\n  path: model.n_i\n"
                + f"  values: [{', '.join(_num(v) for v in op['values'])}]\n"
                + "output:\n  format: csv\n"
            )
        elif kind in ("plan", "setup_run"):
            op["verb"] = "plan" if kind == "plan" else "run"
            factor = {
                "temperature_k": r6(0.5, 2.0),
                "power_w": r6(0.9, 1.1),
                "finesse": r6(0.9, 1.1),
                "n_atoms": r6(0.9, 1.1),
            }
            lines = ["protocol: epr_conditional\n", head, "setup:\n"]
            for sub, values in SETUP_BASE.items():
                lines.append(f"  {sub}:\n")
                for key, value in values.items():
                    lines.append(f"    {key}: {_num(value * factor.get(key, 1.0))}\n")
            lines.append(f"  cooling_factor: {_num(r6(20.0, 40.0))}\n")
            op["text"] = "".join(lines)
        elif kind == "invalid_nonfinite":
            op["key"] = "kappa"
            op["text"] = f"protocol: epr_conditional\n{head}model:\n  kappa: .nan\n  n_i: {_num(n_i)}\n"
        elif kind == "invalid_wrong_type":
            op["key"] = "losses"
            op["text"] = (
                "protocol: epr_conditional\n" + head + model
                + f"losses: [{_num(r6(0, 0.1))}, {_num(r6(0, 0.1))}]\n"
            )
        elif kind == "invalid_unknown_key":
            op["key"] = "kapa"
            op["text"] = "protocol: epr_conditional\n" + head + model + f"  kapa: {_num(kappa)}\n"
        elif kind == "invalid_out_of_range":
            op["key"] = "n_i"
            op["text"] = (
                f"protocol: epr_conditional\n{head}model:\n  kappa: {_num(kappa)}\n"
                f"  n_i: {_num(-n_i - 1.0)}\n"
            )
        elif kind == "invalid_bad_enum":
            op["key"] = "mode"
            op["text"] = "protocol: epr_feedback\n" + head + model + "feedback:\n  mode: adaptive\n"
        elif kind == "invalid_missing_key":
            op["key"] = "kappa"
            op["text"] = f"protocol: epr_conditional\n{head}model:\n  n_i: {_num(n_i)}\n"
        else:  # pragma: no cover - SCENARIO_MIX and this table are kept in step
            raise ValueError(f"unknown slot kind {kind!r}")
        return op

    def run(self, op: dict):
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = self.cli.main([op["verb"], "--scenario", str(op["file"]), "--out", str(op["out"])])
        return code, stderr.getvalue()

    def check(self, op: dict, result, error) -> Outcome:
        invalid = op["kind"].startswith("invalid_")
        if error is not None:
            return Outcome(False, invalid_input=invalid, detail=f"raised {error!r}")
        code, stderr = result
        if invalid:
            rejected = code == 2 and op["key"] in stderr
            return Outcome(
                rejected,
                invalid_input=True,
                rejected=rejected,
                detail="" if rejected else f"exit {code}: {stderr.strip()[:120]}",
            )
        if code != 0:
            return Outcome(False, detail=f"exit {code}: {stderr.strip()[:120]}")
        text = op["out"].read_text()
        if op["kind"] == "sweep_n_i_csv":
            detail = self._check_csv(op, text)
        else:
            report = json.loads(text)
            detail = "report has non-finite numbers" if not all_finite(report["results"]) else ""
            detail = detail or self._check_report(op, report["results"])
        return Outcome(not detail, detail=detail)

    def _check_csv(self, op: dict, text: str) -> str:
        rows = list(csv.DictReader(io.StringIO(text)))
        if len(rows) != len(op["values"]):
            return f"{len(rows)} csv rows for {len(op['values'])} sweep values"
        for row, n_i in zip(rows, op["values"]):
            want = closed_form(op["kappa"], n_i)
            for column in ("delta_epr", "delta_epr_predicted"):
                if not close(float(row[column]), want, EXACT_RTOL):
                    return f"csv {column} {row[column]} vs closed form {want!r} at n_i={n_i}"
        return ""

    def _check_report(self, op: dict, results: dict) -> str:
        kind = op["kind"]
        if kind == "plan":
            ok = isinstance(results.get("feasible"), bool) and len(results.get("checks", ())) > 0
            return "" if ok else "plan report lacks feasibility checks"
        if kind == "setup_run":
            kappa, n_i = results["params"]["kappa"], results["params"]["n_i"]
        else:
            kappa, n_i = op["kappa"], op["n_i"]
        want = closed_form(kappa, n_i)
        expected = {"predicted": want}
        if kind == "sweep_kappa_json":
            points = results["sweep"]["points"]
            if [p["value"] for p in points] != op["values"]:
                return "sweep points do not follow the sweep values"
            for point, value in zip(points, op["values"]):
                target = budget_form(closed_form(value, n_i), value, n_i, **op["losses"])
                got = point["results"]["corrected"]["delta_epr"]
                if not close(got, target, EXACT_RTOL):
                    return f"sweep point {value}: corrected {got!r} vs {target!r}"
            return ""
        expected["achieved"] = want
        if kind == "conditional_losses":
            expected["corrected"] = budget_form(want, kappa, n_i, **op["losses"])
        if kind == "feedback_fixed":
            expected["achieved"] = feedback_form(kappa, n_i, op["gain"])
        if kind == "verify_exact":
            expected["inferred"] = want
            v1 = want / 2.0
            expected["post_verification"] = 2.0 * v1 / (1.0 + 2.0 * kappa**2 * v1)
        for section, target in expected.items():
            got = results[section]["delta_epr"]
            if not close(got, target, EXACT_RTOL):
                return f"{section} {got!r} vs closed form {target!r}"
        if kind == "verify_shots":
            got, err = results["inferred"]["delta_epr"], results["inferred"]["stderr"]
            if not (err > 0.0 and abs(got - want) <= 8.0 * err):
                return f"sampled inferred {got!r} +- {err!r} vs closed form {want!r}"
        if kind.startswith("teleport"):
            tele = results["teleport"]
            if not 0.0 < tele["fidelity"] <= 1.0 + 1e-12:
                return f"teleport fidelity {tele['fidelity']!r}"
            if kind == "teleport_asymptotic":
                if not close(tele["fidelity"], 2.0 / (2.0 + want), EXACT_RTOL):
                    return f"asymptotic fidelity {tele['fidelity']!r} vs {2.0 / (2.0 + want)!r}"
                if not all(close(a, b, EXACT_RTOL) or a == b == 0.0
                           for a, b in zip(tele["output_mean"], op["input_mean"])):
                    return f"output mean {tele['output_mean']} vs input {op['input_mean']}"
        return ""


WORKLOADS = ("oracle_sweep", "oracle_trajectory", "scenario_batch")


def make_workload(name: str, seed: int, modules: dict, workdir: Path) -> Workload:
    if name == "oracle_sweep":
        return OracleSweep(seed, modules)
    if name == "oracle_trajectory":
        return OracleTrajectory(seed, modules)
    if name == "scenario_batch":
        return ScenarioBatch(seed, modules, workdir)
    raise ValueError(f"unknown workload {name!r}; choose from {WORKLOADS}")
