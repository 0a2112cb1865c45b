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
import contextlib
import csv
import dataclasses
import functools
import inspect
import io
import json
import math
import sys
import typing
import warnings
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
from .iomaps import (
    _PARAM_NAMES,
    MatchingError,
    ParameterError,
    ProtocolParams,
    _is_integer,
    _param_values,
)
from .oracle import _steps_per_period, build_model, oracle_epr_after_measurement
from .planner import (
    FeasibilityReport,
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


#: The spec of each ``setup`` subsection, by the :class:`PhysicalSetup` field
#: that holds it.
_SETUP_SPECS = {
    name: spec
    for name, spec in typing.get_type_hints(PhysicalSetup).items()
    if dataclasses.is_dataclass(spec)
}

#: The keys each section takes, by dotted name.  ``setup``, its subsections,
#: ``losses``, ``feedback`` and ``teleport`` take the fields of the object
#: they configure.  ``model`` takes the arguments of
#: :meth:`ProtocolParams.dimensionless`.
_SECTION_KEYS = {
    "model": set(inspect.signature(ProtocolParams.dimensionless).parameters),
    "setup": _field_names(PhysicalSetup),
    **{f"setup.{name}": _field_names(spec) for name, spec in _SETUP_SPECS.items()},
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
    """Parse a scenario file into a plain dict and check its shape: sections,
    keys, finiteness and the sweep path.  Required keys, values and the
    ``setup`` subsections are checked when a run is built from them."""
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

    scenario = {
        "protocol": protocol,
        "seed": raw.get("seed", 0),
        **{
            name: _section(raw, name)
            for name in ("losses", "feedback", "teleport", "verify", "oracle", "output")
        },
    }
    kind = "model" if "model" in raw else "setup"
    scenario[kind] = _section(raw, kind)

    fmt = scenario["output"].get("format", "json")
    if fmt not in ("json", "csv"):
        raise ScenarioError(f"key 'output.format' must be 'json' or 'csv', got {fmt!r}")
    path = scenario["output"].get("path")
    if path is not None and not isinstance(path, str):
        raise ScenarioError(f"key 'output.path' must be a file path, got {path!r}")

    if "sweep" in raw:
        sweep = _section(raw, "sweep")
        if "path" not in sweep or "values" not in sweep:
            raise ScenarioError("sweep section requires keys 'path' and 'values'")
        if not isinstance(sweep["values"], list) or not sweep["values"]:
            raise ScenarioError("key 'sweep.values' must be a non-empty list")
        _resolve_sweep_target(scenario, str(sweep["path"]))  # fail early
        scenario["sweep"] = {"path": str(sweep["path"]), "values": list(sweep["values"])}
    return scenario


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


def _real(value) -> float:
    """``float(value)``, refusing a boolean: ``true`` is not the number 1."""
    if isinstance(value, bool):
        raise TypeError("a boolean is not a number")
    return float(value)


def _as_given(value):
    """A value passed on unconverted, for an object that checks its type."""
    return value


def _entries(pair):
    """A list as a tuple of its entries through :func:`_real`; anything else
    as given, for the object to refuse."""
    return tuple(map(_real, pair)) if isinstance(pair, list) else pair


def _configure(factory, section: dict, where: str, **convert):
    """``factory`` called with the section at ``where`` as keywords.

    Each value goes through :func:`_real` unless ``convert`` gives the key
    another conversion.  A value that does not convert, or that ``factory``
    rejects, is an error naming its dotted key: the objects' messages start
    with the name of the argument.  A required argument that the section
    leaves out is an error naming each such key.
    """
    keywords = {}
    for key, value in section.items():
        try:
            keywords[key] = convert.get(key, _real)(value)
        except (TypeError, ValueError):
            raise ScenarioError(
                f"invalid {where!r} section: key '{where}.{key}' must be numeric, got {value!r}"
            ) from None
    try:
        return factory(**keywords)
    except (TypeError, ValueError) as err:
        message = str(err)
        parameters = inspect.signature(factory).parameters
        missing = [k for k, p in parameters.items() if p.default is p.empty and k not in keywords]
        name, _, rest = message.partition(" ")
        if isinstance(err, TypeError) and missing:  # raised by the call, not the object
            keys = ", ".join(f"'{where}.{key}'" for key in missing)
            message = f"keys {keys} are required" if len(missing) > 1 else f"key {keys} is required"
        elif name in parameters:
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
    seed = scenario["seed"]
    if not _is_integer(seed) or seed < 0:
        raise ScenarioError(f"key 'seed' must be an integer >= 0, got {seed!r}")
    losses = _configure(LossBudget, scenario["losses"], "losses")
    feedback = _feedback_config(scenario["feedback"])
    teleport = None
    if scenario["teleport"] or scenario["protocol"] == "teleport":
        teleport = _configure(
            TeleportConfig, scenario["teleport"], "teleport",
            input_mean=_entries, asymptotic=_as_given,
        )
    shots = scenario["verify"].get("shots", 0)
    if not _is_integer(shots) or shots < 0 or shots == 1:
        raise ScenarioError(
            f"key 'verify.shots' must be 0 (exact statistics) or an integer >= 2, got {shots!r}"
        )
    steps = _configure(_steps_per_period, scenario["oracle"], "oracle", steps_per_period=_as_given)
    setup = feasibility = None
    if "model" in scenario:
        params = _configure(
            ProtocolParams.dimensionless, scenario["model"], "model", larmor_periods=_as_given
        )
    else:
        setup = build_setup(scenario)
        params, feasibility = derive_params(setup)
    return _Run(params, setup, feasibility, losses, feedback, teleport, shots or None, steps)


def build_setup(scenario: dict) -> PhysicalSetup:
    raw = scenario["setup"]
    specs = {
        name: _configure(spec, _section(raw, f"setup.{name}"), f"setup.{name}")
        for name, spec in _SETUP_SPECS.items()
    }
    rest = {key: value for key, value in raw.items() if key not in specs}
    return _configure(functools.partial(PhysicalSetup, **specs), rest, "setup")


def _params_dict(params: ProtocolParams) -> dict:
    """The fields of ``params`` by name, in order; each is a number, so
    nothing needs the deep copy of ``dataclasses.asdict``."""
    return dict(zip(_PARAM_NAMES, _param_values(params)))


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
    protocol = scenario["protocol"]
    predicted = predicted_report(params.kappa, params.n_i)
    feedback = protocol == "epr_feedback"
    # only feedback and finite-shot verification draw from the generator
    rng = None
    if feedback or (protocol == "verify" and run.shots):
        rng = np.random.default_rng(scenario["seed"])
    state, report, records = run_epr_generation(
        make_state(
            [(mechanical_mode("m"), params.n_i, (0.0, 0.0)), (atomic_mode("a"), 0.0, (0.0, 0.0))]
        ),
        params,
        run.feedback if feedback else FeedbackConfig.conditional(),
        rng=rng if feedback else None,
    )
    results: dict = {"params": _params_dict(params), "predicted": _report_dict(predicted)}
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
        try:
            inferred, post = verify_epr(state, params, shots=run.shots, rng=rng)
        except ParameterError as err:
            if run.setup is None:
                raise _refused(err, "model", "kappa", "eta_light", "eta_det") from err
            # of a setup's factors of the signal, only the drive power may be 0
            raise _refused(err, "setup", "cavity.power_w") from err
        results["inferred"] = _report_dict(inferred)
        results["post_verification"] = _report_dict(epr_variance(post, "m", "a"))
    elif protocol == "teleport":
        final, fidelity = teleport(state, run.teleport)
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
    if mode not in ("optimal", "fixed"):
        raise ScenarioError(f"key 'feedback.mode' must be 'optimal' or 'fixed', got {mode!r}")
    # a gain is checked whatever the mode; only 'fixed' reads it
    if "gain" in section:
        fixed = _configure(FeedbackConfig.with_gain, {"gain": section["gain"]}, "feedback")
    elif mode == "fixed":
        raise ScenarioError("key 'feedback.gain' is required for mode 'fixed'")
    return fixed if mode == "fixed" else FeedbackConfig.optimal()


def _refused(err: ParameterError, where: str, *keys: str) -> ScenarioError:
    """``err``, a protocol's refusal of its parameters, as an error of the
    section ``where`` naming its ``keys``, which set those parameters."""
    names = ", ".join(f"'{where}.{key}'" for key in keys)
    label = "keys" if len(keys) > 1 else "key"
    return ScenarioError(f"invalid {where!r} section: {err} ({label} {names})")


def _compare_results(run: _Run, idealized: EPRReport, predicted: float) -> dict:
    """The oracle against the closed form ``predicted`` and the idealized map."""
    params, steps = run.params, run.steps
    mismatch = params.eps_mismatch > 0.0
    damping = params.gamma_m > 0.0
    try:
        model = build_model(params, damping=damping, mismatch=mismatch, steps_per_period=steps)
    except ParameterError as err:  # a model's frequencies are equal and positive
        raise _refused(err, "setup", "mech.omega_m_hz", "atoms.larmor_hz") from err
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
        if closed_form:  # the ratio is undefined without a budget
            out["excess_over_closed_form"] = excess / closed_form
    return out


# ---------------------------------------------------------------------------
# sweeps and output


def execute_sweep(scenario: dict) -> dict:
    """:func:`execute` at each value of the sweep, with ``scenario`` unchanged."""
    sweep = scenario["sweep"]
    *sections, leaf = sweep["path"].split(".")
    points = []
    for value in sweep["values"]:
        # a point copies only the dicts on its path; execute reads the rest
        sub = {key: node for key, node in scenario.items() if key != "sweep"}
        node = sub
        for name in sections:
            child = dict(node[name])
            node[name] = child
            node = child
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


#: the string escape of ``json.dumps`` with its default ``ensure_ascii``
_quote = json.encoder.encode_basestring_ascii


def _scalar_text(value) -> str | None:
    """A number, boolean or ``None`` as JSON text, as ``json`` writes it both
    as a value and as a dict key; ``None`` for any other type."""
    if isinstance(value, float):
        if math.isfinite(value):
            return float.__repr__(value)
        raise ValueError(f"Out of range float values are not JSON compliant: {value!r}")
    if value is None or value is True or value is False:
        return "null" if value is None else "true" if value else "false"
    return int.__repr__(value) if isinstance(value, int) else None


def _append_json(node, indent: str, out: list) -> None:
    """Append ``node`` to ``out`` as ``json.dumps(node, sort_keys=True,
    indent=2, allow_nan=False)`` writes it; ``indent`` is the newline and
    indentation of its nesting.  Types are tested and dict items sorted as
    the encoder does, so a payload it refuses raises the same exception type.
    """
    if isinstance(node, str):
        out.append(_quote(node))
    elif isinstance(node, (list, tuple)):
        if not node:
            out.append("[]")
            return
        inner = indent + "  "
        sep = "[" + inner
        for item in node:
            out.append(sep)
            sep = "," + inner
            _append_json(item, inner, out)
        out.append(indent + "]")
    elif isinstance(node, dict):
        if not node:
            out.append("{}")
            return
        inner = indent + "  "
        sep = "{" + inner
        for key, value in sorted(node.items()):
            text = key if isinstance(key, str) else _scalar_text(key)
            if text is None:
                raise TypeError(
                    f"keys must be str, int, float, bool or None, not {type(key).__name__}"
                )
            if type(value) is float and math.isfinite(value):  # most of a report's values
                out.append(f"{sep}{_quote(text)}: {float.__repr__(value)}")
            else:
                out.append(f"{sep}{_quote(text)}: ")
                _append_json(value, inner, out)
            sep = "," + inner
        out.append(indent + "}")
    else:
        text = _scalar_text(node)
        if text is None:
            raise TypeError(f"Object of type {type(node).__name__} is not JSON serializable")
        out.append(text)


def render_json(payload: dict) -> str:
    """The report as JSON: ``json.dumps(payload, sort_keys=True, indent=2,
    allow_nan=False)`` and a newline, byte for byte, in one pass.  With an
    indent, ``json`` runs its pure-Python encoder, which re-yields every
    token through a generator per nesting level.  A NaN or infinity raises
    ``ValueError``."""
    out: list = []
    _append_json(payload, "\n", out)
    out.append("\n")
    return "".join(out)


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
    run = _build(scenario)
    budget = coherence_budget(run.setup)
    return {
        "params": _params_dict(run.params),
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
        with _each_warning_once():
            scenario = load_scenario(args.scenario)
            if args.seed is not None:
                scenario["seed"] = args.seed
            if args.oracle_steps is not None:
                try:
                    _steps_per_period(args.oracle_steps)
                except ValueError as err:  # the rule's message, on the flag
                    raise ScenarioError(f"--oracle-steps {str(err).partition(' ')[2]}") from None
                scenario["oracle"]["steps_per_period"] = args.oracle_steps
            if args.verb == "sweep" and "sweep" not in scenario:
                raise ScenarioError("the 'sweep' verb requires a 'sweep' section")
            if args.verb == "compare" and scenario["protocol"] != "oracle_compare":
                raise ScenarioError("the 'compare' verb requires protocol 'oracle_compare'")
            fmt = args.format or scenario["output"].get("format", "json")
            if args.verb == "plan":
                if "setup" not in scenario:
                    raise ScenarioError("the 'plan' verb requires a 'setup' section")
                if fmt == "csv":  # a CSV row holds protocol figures, which a plan has none of
                    source = "--format" if args.format else "key 'output.format'"
                    raise ScenarioError(f"the 'plan' verb writes JSON only; {source} asks for csv")
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
    path = args.out or scenario["output"].get("path")
    try:
        text = write_report(report, path, fmt)
    except OSError as err:
        print(f"error: cannot write report: {err}", file=sys.stderr)
        return EXIT_VALIDATION
    except ValueError as err:  # a non-finite figure, which JSON cannot hold
        print(f"numerical failure: {err}", file=sys.stderr)
        return EXIT_NUMERICAL
    if path:
        print(f"report written to {path}")
    else:
        print(text, end="")
    return EXIT_OK


@contextlib.contextmanager
def _each_warning_once():
    """Print each distinct :class:`UserWarning` or :class:`RuntimeWarning`
    recorded inside once, as ``warning: <message>`` on stderr, when the block
    ends.

    Only the ``UserWarning`` filter is set: every other warning meets the
    caller's filters, so a ``RuntimeWarning`` (numpy's overflow, say) that
    they turn into an error is raised.  Any other category that is recorded
    rather than raised is passed on to them when the block ends.
    """
    caught: list = []
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", UserWarning)
            yield
    finally:
        messages = {}
        for w in caught:
            if issubclass(w.category, (UserWarning, RuntimeWarning)):
                messages[str(w.message)] = None
            else:
                warnings.warn_explicit(w.message, w.category, w.filename, w.lineno)
        for message in messages:
            print(f"warning: {message}", file=sys.stderr)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
