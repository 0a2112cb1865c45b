"""Scenario-driven command line front end.

A scenario is a small YAML file with sections::

    protocol: epr_conditional   # epr_feedback | verify | teleport | oracle_compare
    seed: 1234
    model:                      # dimensionless parameters ...
      kappa: 1.0
      n_i: 0.0
    # setup:                    # ... or an SI-unit hardware description
    #   mech:   {omega_m_hz: 5.0e6, mass_kg: 1.0e-12, q_factor: 5.0e5, temperature_k: 0.2}
    #   cavity: {finesse: 4500, length_m: 300.0e-6, power_w: 100.0e-6, tau_s: 2.0e-6}
    #   atoms:  {gamma_hz: 5.2e6, delta_hz: 1.0e9, sigma_m2: 1.0e-13,
    #            area_m2: 1.0e-8, n_atoms: 1.8e5, larmor_hz: 5.0e6}
    #   cooling_factor: 30
    losses: {eps_mismatch: 0.0, photon_loss: 0.0, gamma_m_tau: 0.0, n_th: 0.0}
    sweep:  {path: model.kappa, values: [0.25, 0.5, 1.0, 2.0]}
    output: {format: json, path: out.json}

Exactly one of ``model``/``setup`` must be present.  Verbs: ``run``,
``compare`` (oracle vs closed form vs idealized map), ``plan`` (feasibility
only) and ``sweep``.  Exit codes: 0 success, 2 scenario/validation error,
3 numerical failure.  Identical scenario and seed produce byte-identical
reports up to the ``metadata`` block, which holds the timestamp.
"""

from __future__ import annotations

import argparse
import copy
import csv
import dataclasses
import functools
import inspect
import io
import json
import math
import sys
from datetime import datetime, timezone
from pathlib import Path

import numpy as np
import yaml

from . import __version__
from .decoherence import (
    LossBudget,
    apply_budget,
    damping_penalty,
    mismatch_excess,
    mismatch_penalty,
)
from .gaussian import (
    EPRReport,
    InvalidChannelError,
    InvalidStateError,
    atomic_mode,
    epr_variance,
    make_state,
    mechanical_mode,
)
from .iomaps import MatchingError, ProtocolParams
from .oracle import MIN_STEPS_PER_PERIOD, build_model, oracle_epr_after_measurement
from .planner import (
    AtomSpec,
    CavitySpec,
    FeasibilityReport,
    MechanicalSpec,
    PhysicalSetup,
    coherence_budget,
    derive_params,
)
from .protocols import (
    FeedbackConfig,
    TeleportConfig,
    predicted_report,
    run_epr_generation,
    teleport,
    verify_epr,
)

SCHEMA_VERSION = 1

PROTOCOLS = ("epr_conditional", "epr_feedback", "verify", "teleport", "oracle_compare")

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NUMERICAL = 3


class ScenarioError(ValueError):
    """Scenario file failed validation; the message names the offending key."""


# ---------------------------------------------------------------------------
# scenario loading


def _field_names(cls) -> set[str]:
    return {field.name for field in dataclasses.fields(cls)}


#: The keys each section takes, by dotted name.  ``losses``, ``feedback`` and
#: ``teleport`` take the fields of the object they configure.  ``model`` takes
#: the arguments of :meth:`ProtocolParams.dimensionless` except ``tau`` (the
#: pulse is the unit of time), and the ``setup`` keys carry SI units.
_SECTION_KEYS = {
    "model": set(inspect.signature(ProtocolParams.dimensionless).parameters) - {"tau"},
    "setup": {"mech", "cavity", "atoms", "cooling_factor"},
    "setup.mech": {"omega_m_hz", "mass_kg", "q_factor", "temperature_k"},
    "setup.cavity": {"finesse", "length_m", "wavelength_m", "power_w", "tau_s"},
    "setup.atoms": {"gamma_hz", "delta_hz", "sigma_m2", "area_m2", "n_atoms", "larmor_hz"},
    "losses": _field_names(LossBudget),
    "feedback": _field_names(FeedbackConfig),
    "teleport": _field_names(TeleportConfig),
    "verify": {"shots"},
    "oracle": {"steps_per_period"},
    "output": {"format", "path"},
    "sweep": {"path", "values"},
}
_ROOT_KEYS = {"protocol", "seed", *(name for name in _SECTION_KEYS if "." not in name)}


def _require_keys(section: dict, allowed: set[str], where: str) -> None:
    unknown = set(section) - allowed
    if unknown:
        raise ScenarioError(f"unknown key(s) {sorted(unknown, key=str)} in section {where!r}")


def _require_finite(node, where: str = "") -> None:
    """Reject NaN and infinity anywhere under ``node``, naming the dotted key."""
    if isinstance(node, dict):
        for key, value in node.items():
            _require_finite(value, f"{where}.{key}" if where else str(key))
    elif isinstance(node, list):
        for index, value in enumerate(node):
            _require_finite(value, f"{where}[{index}]")
    elif isinstance(node, float) and not math.isfinite(node):
        raise ScenarioError(f"key {where} must be finite, got {node!r}")


def _section(raw: dict, where: str) -> dict:
    """A copy of the section at the dotted name ``where``, with its keys checked.

    ``raw`` holds the section under the last part of the name.  An absent or
    empty section is ``{}``.
    """
    value = raw.get(where.rpartition(".")[2])
    if value is None:
        value = {}
    if not isinstance(value, dict):
        raise ScenarioError(
            f"section {where!r} must be a mapping of keys, got {type(value).__name__}"
        )
    _require_keys(value, _SECTION_KEYS[where], where)
    return dict(value)


#: libyaml's parser where PyYAML was built with it.  The resolver and the
#: constructors are the same Python ones, so every scalar reads the same.
_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)


def load_scenario(path: str | Path) -> dict:
    """Parse a scenario file into a plain dict and check its shape: keys,
    types, finiteness and the sweep path.  The values of the sections are
    checked when a run is built from them."""
    try:
        text = Path(path).read_text()
    except OSError as err:
        raise ScenarioError(f"cannot read scenario file: {err}") from err
    try:
        raw = yaml.load(text, Loader=_LOADER)
    except yaml.YAMLError as err:
        raise ScenarioError(f"scenario is not valid YAML: {err}") from err
    if not isinstance(raw, dict):
        raise ScenarioError("scenario must be a mapping of sections")
    return validate_scenario(raw)


def validate_scenario(raw: dict) -> dict:
    _require_keys(raw, _ROOT_KEYS, "<root>")
    _require_finite(raw)
    protocol = raw.get("protocol")
    if protocol not in PROTOCOLS:
        raise ScenarioError(f"key 'protocol' must be one of {PROTOCOLS}, got {protocol!r}")
    if ("model" in raw) == ("setup" in raw):
        raise ScenarioError("exactly one of the keys 'model'/'setup' must be present")

    try:
        seed = int(raw.get("seed", 0))
    except (TypeError, ValueError) as err:
        raise ScenarioError(f"key 'seed' must be an integer: {err}") from err
    scenario = {
        "protocol": protocol,
        "seed": seed,
        **{
            name: _section(raw, name)
            for name in ("losses", "feedback", "teleport", "verify", "oracle", "output")
        },
    }
    if "model" in raw:
        model = _section(raw, "model")
        if "kappa" not in model:
            raise ScenarioError("key 'model.kappa' is required")
        scenario["model"] = model
    else:
        scenario["setup"] = _validate_setup(_section(raw, "setup"))

    fmt = scenario["output"].get("format", "json")
    if fmt not in ("json", "csv"):
        raise ScenarioError(f"key 'output.format' must be 'json' or 'csv', got {fmt!r}")

    if "sweep" in raw:
        sweep = _section(raw, "sweep")
        if "path" not in sweep or "values" not in sweep:
            raise ScenarioError("sweep section requires keys 'path' and 'values'")
        if not isinstance(sweep["values"], list) or not sweep["values"]:
            raise ScenarioError("key 'sweep.values' must be a non-empty list")
        _resolve_sweep_target(scenario, str(sweep["path"]))  # fail early
        scenario["sweep"] = {"path": str(sweep["path"]), "values": list(sweep["values"])}
    return scenario


def _is_integer(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _require_steps(steps, name: str) -> None:
    """Oracle steps per Larmor period, from the scenario or ``--oracle-steps``."""
    if not _is_integer(steps) or steps < MIN_STEPS_PER_PERIOD:
        raise ScenarioError(f"{name} must be an integer >= {MIN_STEPS_PER_PERIOD}, got {steps!r}")


def _validate_setup(section: dict) -> dict:
    for sub in ("mech", "cavity", "atoms"):
        if sub not in section:
            raise ScenarioError(f"key 'setup.{sub}' is required")
        values = _section(section, f"setup.{sub}")
        missing = _SECTION_KEYS[f"setup.{sub}"] - set(values) - {"wavelength_m"}
        if missing:
            raise ScenarioError(f"missing key(s) {sorted(missing)} in section 'setup.{sub}'")
    return section


def _resolve_sweep_target(scenario: dict, path: str) -> tuple[dict, str]:
    parts = path.split(".")
    node = scenario
    for part in parts[:-1]:
        if not isinstance(node, dict) or part not in node:
            raise ScenarioError(f"sweep path {path!r} does not resolve (at {part!r})")
        node = node[part]
    leaf = parts[-1]
    if not isinstance(node, dict):
        raise ScenarioError(f"sweep path {path!r} does not resolve to a field")
    section = ".".join(parts[:-1])
    if leaf not in (_SECTION_KEYS[section] if section else _ROOT_KEYS):
        raise ScenarioError(f"sweep path {path!r} names no key of section {section or '<root>'!r}")
    current = node.get(leaf, 0.0)
    if current is not None and not isinstance(current, (int, float)):
        raise ScenarioError(f"sweep path {path!r} must point at a numeric field")
    return node, leaf


# ---------------------------------------------------------------------------
# scenario -> objects


def _configure(factory, section: dict, where: str, **convert):
    """``factory`` called with the section at ``where`` as keywords.

    Each value goes through ``float`` unless ``convert`` gives the key
    another type.  A value that does not convert, or that ``factory``
    rejects, is an error naming its dotted key: the objects' messages start
    with the name of the argument.
    """
    keywords = {}
    for key, value in section.items():
        try:
            keywords[key] = convert.get(key, float)(value)
        except (TypeError, ValueError):
            raise ScenarioError(
                f"invalid {where!r} section: key '{where}.{key}' must be numeric, got {value!r}"
            ) from None
    try:
        return factory(**keywords)
    except (TypeError, ValueError) as err:
        message = str(err)
        name, _, rest = message.partition(" ")
        if name in inspect.signature(factory).parameters:
            message = f"key '{where}.{name}' {rest}"
        raise ScenarioError(f"invalid {where!r} section: {message}") from err


@dataclasses.dataclass(frozen=True)
class _Run:
    """A scenario's sections as a run reads them.  ``setup`` and
    ``feasibility`` are ``None`` for a ``model`` scenario, ``teleport`` where
    nothing configures it, and ``shots`` for exact verification statistics."""

    params: ProtocolParams
    setup: PhysicalSetup | None
    feasibility: FeasibilityReport | None
    losses: LossBudget
    feedback: FeedbackConfig
    teleport: TeleportConfig | None
    shots: int | None
    steps: int


def _build(scenario: dict) -> _Run:
    """Every section of ``scenario`` built, whatever its protocol reads.  A
    value that does not build is a :class:`ScenarioError` naming its key."""
    losses = _configure(LossBudget, scenario["losses"], "losses")
    feedback = _feedback_config(scenario["feedback"])
    teleport = None
    if scenario["teleport"] or scenario["protocol"] == "teleport":
        teleport = _teleport_config(scenario["teleport"])
    shots = scenario["verify"].get("shots", 0)
    if not _is_integer(shots) or shots < 0 or shots == 1:
        raise ScenarioError(
            f"key 'verify.shots' must be 0 (exact statistics) or an integer >= 2, got {shots!r}"
        )
    steps = scenario["oracle"].get("steps_per_period", MIN_STEPS_PER_PERIOD)
    _require_steps(steps, "key 'oracle.steps_per_period'")
    setup = feasibility = None
    if "model" in scenario:
        periods = scenario["model"].get("larmor_periods", 64)
        if not _is_integer(periods):
            raise ScenarioError(f"key 'model.larmor_periods' must be an integer, got {periods!r}")
        params = _configure(
            ProtocolParams.dimensionless, scenario["model"], "model", larmor_periods=int
        )
    else:
        setup = build_setup(scenario)
        params, feasibility = derive_params(setup)
    return _Run(params, setup, feasibility, losses, feedback, teleport, shots or None, steps)


def _setup_number(value, where: str) -> float:
    """One number of the ``setup`` section, which YAML may hand over as text
    (``5.0e6`` and ``nan`` are strings to PyYAML)."""
    try:
        number = float(value)
    except (TypeError, ValueError):
        raise ScenarioError(f"key {where} must be a number, got {value!r}") from None
    if not math.isfinite(number):
        raise ScenarioError(f"key {where} must be finite, got {value!r}")
    return number


def build_setup(scenario: dict) -> PhysicalSetup:
    raw = scenario["setup"]
    mech, cavity, atoms = (
        {key: _setup_number(value, f"setup.{sub}.{key}") for key, value in raw[sub].items()}
        for sub in ("mech", "cavity", "atoms")
    )
    two_pi = 2.0 * math.pi
    try:
        cavity_kwargs = {
            "finesse": cavity["finesse"],
            "length": cavity["length_m"],
            "power": cavity["power_w"],
            "tau": cavity["tau_s"],
        }
        if "wavelength_m" in cavity:
            cavity_kwargs["wavelength"] = cavity["wavelength_m"]
        return PhysicalSetup(
            mech=MechanicalSpec(
                omega_m=two_pi * mech["omega_m_hz"],
                mass=mech["mass_kg"],
                q_factor=mech["q_factor"],
                temperature=mech["temperature_k"],
            ),
            cavity=CavitySpec(**cavity_kwargs),
            atoms=AtomSpec(
                gamma=two_pi * atoms["gamma_hz"],
                delta=two_pi * atoms["delta_hz"],
                sigma_scatter=atoms["sigma_m2"],
                beam_area=atoms["area_m2"],
                n_atoms=atoms["n_atoms"],
                larmor=two_pi * atoms["larmor_hz"],
            ),
            cooling_factor=_setup_number(raw.get("cooling_factor", 1.0), "setup.cooling_factor"),
        )
    except (KeyError, TypeError, ValueError) as err:
        raise ScenarioError(f"invalid 'setup' section: {err}") from err


def _report_dict(report: EPRReport) -> dict:
    payload = {
        "delta_epr": report.delta_epr,
        "var_xsum": report.var_xsum,
        "var_pdiff": report.var_pdiff,
        "entangled": report.entangled,
        "provenance": report.provenance.value,
    }
    if report.corrections is not None:
        payload["corrections"] = report.corrections
    if report.stderr is not None:
        payload["stderr"] = report.stderr
    return payload


# ---------------------------------------------------------------------------
# protocol execution


def execute(scenario: dict) -> dict:
    """Run the scenario's protocol once and return the results section.

    Every protocol starts from one generation pulse, with the scenario's
    feedback under ``epr_feedback`` and conditioned on its record otherwise.
    """
    run = _build(scenario)
    params, losses = run.params, run.losses
    rng = np.random.default_rng(scenario["seed"])
    protocol = scenario["protocol"]
    predicted = predicted_report(params.kappa, params.n_i)
    feedback = protocol == "epr_feedback"
    state, report, records = run_epr_generation(
        make_state(
            [(mechanical_mode("m"), params.n_i, (0.0, 0.0)), (atomic_mode("a"), 0.0, (0.0, 0.0))]
        ),
        params,
        run.feedback if feedback else FeedbackConfig.conditional(),
        rng=rng if feedback else None,
    )
    results: dict = {"params": dataclasses.asdict(params), "predicted": _report_dict(predicted)}
    if protocol == "oracle_compare":
        results.update(_compare_results(run, report, predicted.delta_epr))
        return results

    results["achieved"] = _report_dict(report)
    if protocol in ("epr_conditional", "epr_feedback"):
        results["records"] = [
            {"mode": rec.mode.name, "outcome": rec.outcome, "variance": rec.outcome_variance}
            for rec in records
        ]
        if not losses.empty:
            corrected = apply_budget(report, losses, params.kappa, params.n_i)
            results["corrected"] = _report_dict(corrected)
            if losses.eps_mismatch:
                # the exact excess of the modeled mismatch; ``corrected``
                # keeps the paper's budget term
                results["mismatch_excess"] = mismatch_excess(
                    losses.eps_mismatch, params.kappa, params.n_i
                )
    elif protocol == "verify":
        inferred, post = verify_epr(state, params, shots=run.shots, rng=rng)
        results["inferred"] = _report_dict(inferred)
        results["post_verification"] = _report_dict(epr_variance(post, "m", "a"))
    elif protocol == "teleport":
        final, fidelity = teleport(state, params, run.teleport)
        results["teleport"] = {
            **dataclasses.asdict(run.teleport),
            "fidelity": fidelity,
            "output_mean": final.mean.tolist(),
            "added_noise_x": final.cov[0, 0] - 0.5,
            "added_noise_p": final.cov[1, 1] - 0.5,
        }
    return results


def _feedback_config(section: dict) -> FeedbackConfig:
    """The feedback of ``epr_feedback``; ``epr_conditional`` keeps the record."""
    mode = section.get("mode", "optimal")
    if mode == "optimal":
        return FeedbackConfig.optimal()
    if mode == "fixed":
        if "gain" not in section:
            raise ScenarioError("key 'feedback.gain' is required for mode 'fixed'")
        return _configure(FeedbackConfig.with_gain, {"gain": section["gain"]}, "feedback")
    raise ScenarioError(f"key 'feedback.mode' must be 'optimal' or 'fixed', got {mode!r}")


def _teleport_config(section: dict) -> TeleportConfig:
    asymptotic = section.get("asymptotic", False)
    if not isinstance(asymptotic, bool):
        raise ScenarioError(f"key 'teleport.asymptotic' must be true or false, got {asymptotic!r}")
    mean = section.get("input_mean", (0.0, 0.0))
    if not isinstance(mean, (list, tuple)) or len(mean) != 2:
        raise ScenarioError("key 'teleport.input_mean' must be a pair [x, p]")
    return _configure(
        TeleportConfig,
        section,
        "teleport",
        input_mean=lambda pair: tuple(map(float, pair)),
        asymptotic=bool,
    )


def _compare_results(run: _Run, idealized: EPRReport, predicted: float) -> dict:
    """The oracle against the closed form ``predicted`` and the idealized map."""
    params, steps = run.params, run.steps
    mismatch = params.eps_mismatch > 0.0
    damping = params.gamma_m > 0.0
    model = build_model(params, damping=damping, mismatch=mismatch, steps_per_period=steps)
    oracle_report = oracle_epr_after_measurement(model)

    out = {
        "idealized": _report_dict(idealized),
        "oracle": _report_dict(oracle_report),
        "oracle_steps_per_period": steps,
        "rel_deviation_idealized": idealized.delta_epr / predicted - 1.0,
        "rel_deviation_oracle": oracle_report.delta_epr / predicted - 1.0,
    }
    if mismatch or damping:
        baseline = oracle_epr_after_measurement(
            build_model(params, steps_per_period=steps)
        )
        excess = oracle_report.delta_epr - baseline.delta_epr
        out["oracle_excess"] = excess
        closed_form = 0.0
        if mismatch:
            penalty = mismatch_penalty(params.eps_mismatch, params.kappa, params.n_i)
            out["mismatch_penalty"] = penalty
            closed_form += penalty
        if damping:
            penalty = 2.0 * damping_penalty(params.gamma_m * params.tau, params.n_th)
            out["damping_penalty_total"] = penalty
            closed_form += penalty
        out["excess_over_closed_form"] = excess / closed_form if closed_form else math.nan
    return out


# ---------------------------------------------------------------------------
# sweeps and output


def execute_sweep(scenario: dict) -> dict:
    sweep = scenario["sweep"]
    points = []
    for value in sweep["values"]:
        sub = copy.deepcopy(scenario)
        sub.pop("sweep")
        node, leaf = _resolve_sweep_target(sub, sweep["path"])
        node[leaf] = value
        points.append({"value": value, "results": execute(sub)})
    return {"path": sweep["path"], "points": points}


def _point_row(point: dict) -> dict:
    results = point["results"]
    # the corrected figure is the bottom line whenever a loss budget applies
    achieved = (
        results.get("corrected") or results.get("achieved") or results.get("oracle") or {}
    )
    fidelity = results.get("teleport", {}).get("fidelity", "")
    return {
        "value": point["value"],
        "delta_epr_predicted": results["predicted"]["delta_epr"],
        "delta_epr": achieved.get("delta_epr", ""),
        "entangled": achieved.get("entangled", ""),
        "fidelity": fidelity,
    }


def render_csv(payload: dict) -> str:
    buffer = io.StringIO()
    writer = csv.DictWriter(
        buffer,
        fieldnames=["value", "delta_epr_predicted", "delta_epr", "entangled", "fidelity"],
        lineterminator="\n",
    )
    writer.writeheader()
    if "sweep" in payload["results"]:
        for point in payload["results"]["sweep"]["points"]:
            writer.writerow(_point_row(point))
    else:
        writer.writerow(_point_row({"value": "", "results": payload["results"]}))
    return buffer.getvalue()


def render_json(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def assemble_report(scenario: dict, results: dict) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "scenario": scenario,
        "results": results,
        "metadata": {
            "created_utc": datetime.now(timezone.utc).isoformat(),
            "package_version": __version__,
        },
    }


def write_report(report: dict, path: str | None, fmt: str) -> str:
    text = render_csv(report) if fmt == "csv" else render_json(report)
    if path:
        Path(path).write_text(text)
    return text


# ---------------------------------------------------------------------------
# entry point


def _run_plan(scenario: dict) -> dict:
    if "setup" not in scenario:
        raise ScenarioError("the 'plan' verb requires a 'setup' section")
    run = _build(scenario)
    budget = coherence_budget(run.setup)
    return {
        "params": dataclasses.asdict(run.params),
        "derived": run.feasibility.derived,
        "checks": [
            {"name": c.name, "ratio": c.ratio, "status": c.status.value, "detail": c.detail}
            for c in run.feasibility.checks
        ],
        "feasible": run.feasibility.ok,
        "coherence": {
            "tau_thermal_s": budget.tau_thermal,
            "tau_max_s": budget.tau_max,
            "limiting": budget.limiting,
        },
    }


@functools.cache
def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="eprbus",
        description="simulate pulsed QND entanglement between a mechanical "
        "oscillator and an atomic ensemble",
    )
    sub = parser.add_subparsers(dest="verb", required=True)
    for verb, text in (
        ("run", "execute the scenario's protocol"),
        ("compare", "closed form vs idealized map vs oracle"),
        ("plan", "feasibility analysis of a hardware setup"),
        ("sweep", "repeat the protocol over the scenario's sweep values"),
    ):
        p = sub.add_parser(verb, help=text)
        p.add_argument("--scenario", required=True, help="path to the scenario YAML file")
        p.add_argument("--out", default=None, help="report path (overrides output.path)")
        p.add_argument("--format", default=None, choices=("json", "csv"))
        p.add_argument("--seed", type=int, default=None, help="overrides scenario seed")
        p.add_argument(
            "--oracle-steps",
            type=int,
            default=None,
            help="oracle integration steps per Larmor period",
        )
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as err:  # argparse printed its usage or --help
        return EXIT_VALIDATION if err.code else EXIT_OK

    try:
        scenario = load_scenario(args.scenario)
        if args.seed is not None:
            scenario["seed"] = args.seed
        if args.oracle_steps is not None:
            _require_steps(args.oracle_steps, "--oracle-steps")
            scenario["oracle"]["steps_per_period"] = args.oracle_steps
        if args.verb == "sweep" and "sweep" not in scenario:
            raise ScenarioError("the 'sweep' verb requires a 'sweep' section")
        if args.verb == "compare" and scenario["protocol"] != "oracle_compare":
            raise ScenarioError("the 'compare' verb requires protocol 'oracle_compare'")
        if args.verb == "plan":
            results = _run_plan(scenario)
        elif "sweep" in scenario and args.verb != "compare":
            results = {"sweep": execute_sweep(scenario)}
        else:
            results = execute(scenario)
    except ScenarioError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_VALIDATION
    except (
        InvalidChannelError,
        InvalidStateError,
        MatchingError,
        np.linalg.LinAlgError,
        ArithmeticError,
        ValueError,
    ) as err:
        print(f"numerical failure: {err}", file=sys.stderr)
        return EXIT_NUMERICAL

    report = assemble_report(scenario, results)
    fmt = args.format or scenario["output"].get("format", "json")
    path = args.out or scenario["output"].get("path")
    text = write_report(report, path, fmt)
    if path:
        print(f"report written to {path}")
    else:
        print(text, end="")
    return EXIT_OK


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
