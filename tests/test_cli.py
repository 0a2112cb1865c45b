import json
import math
import warnings
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from eprbus import cli
from eprbus.cli import (
    _LOADER,
    EXIT_NUMERICAL,
    EXIT_OK,
    EXIT_VALIDATION,
    load_scenario,
    main,
)
from eprbus.decoherence import mismatch_excess, mismatch_penalty

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"

#: A refused verification readout of a ``model`` scenario, naming the keys of its signal.
NO_SIGNAL_MESSAGE = (
    "'model' section: verification needs eta_light * eta_det * kappa > 0, otherwise light "
    "carries no signal (keys 'model.kappa', 'model.eta_light', 'model.eta_det')"
)

MICROMIRROR_SETUP = {
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
    "cooling_factor": 30.0,
}


def write_scenario(tmp_path, name: str, payload: dict) -> str:
    path = tmp_path / name
    path.write_text(yaml.safe_dump(payload))
    return str(path)


def read_json(path) -> dict:
    with open(path) as fh:
        return json.load(fh)


class TestValidation:
    def test_unknown_key_named_in_diagnostic(self, tmp_path, capsys):
        path = write_scenario(
            tmp_path, "bad.yaml", {"protocol": "epr_conditional", "model": {"kappa": 1.0}, "frobnicate": 1}
        )
        assert main(["run", "--scenario", path]) == EXIT_VALIDATION
        assert "frobnicate" in capsys.readouterr().err

    def test_unknown_keys_of_mixed_types_named(self, tmp_path, capsys):
        path = tmp_path / "s.yaml"
        path.write_text("protocol: epr_conditional\nmodel: {kappa: 1.0, 3: 1, frob: 2}\n")
        assert main(["run", "--scenario", str(path)]) == EXIT_VALIDATION
        assert "[3, 'frob'] in section 'model'" in capsys.readouterr().err

    def test_missing_file(self, capsys):
        assert main(["run", "--scenario", "/nonexistent.yaml"]) == EXIT_VALIDATION

    def test_unparseable_yaml(self, tmp_path, capsys):
        path = tmp_path / "broken.yaml"
        path.write_text("protocol: [unclosed\n")
        assert main(["run", "--scenario", str(path)]) == EXIT_VALIDATION
        err = capsys.readouterr().err
        # libyaml gives the line and column without PyYAML's caret snippet
        assert err.startswith("error: scenario is not valid YAML: ")
        assert "line 1, column 11" in err

    def test_model_and_setup_both_present(self, tmp_path, capsys):
        path = write_scenario(
            tmp_path,
            "both.yaml",
            {
                "protocol": "epr_conditional",
                "model": {"kappa": 1.0},
                "setup": MICROMIRROR_SETUP,
            },
        )
        assert main(["run", "--scenario", path]) == EXIT_VALIDATION
        assert "model" in capsys.readouterr().err

    def test_bad_protocol(self, tmp_path):
        path = write_scenario(tmp_path, "p.yaml", {"protocol": "nope", "model": {"kappa": 1.0}})
        assert main(["run", "--scenario", path]) == EXIT_VALIDATION

    def test_sweep_path_must_resolve(self, tmp_path):
        path = write_scenario(
            tmp_path,
            "s.yaml",
            {
                "protocol": "epr_conditional",
                "model": {"kappa": 1.0},
                "sweep": {"path": "model.bogus.deep", "values": [1]},
            },
        )
        assert main(["run", "--scenario", path]) == EXIT_VALIDATION

    @pytest.mark.parametrize(
        "section, value",
        [
            ("losses", [0.05, 0.07]),
            ("losses", ["a", "b"]),
            ("feedback", "optimal"),
            ("output", 3),
            ("sweep", [1.0, 2.0]),
            ("model", [1.0]),
        ],
    )
    def test_non_mapping_section_named(self, tmp_path, capsys, section, value):
        payload = {"protocol": "epr_conditional", "model": {"kappa": 1.0}, section: value}
        path = write_scenario(tmp_path, "s.yaml", payload)
        assert main(["run", "--scenario", path]) == EXIT_VALIDATION
        assert f"section '{section}' must be a mapping" in capsys.readouterr().err

    def test_non_mapping_setup_subsection_named(self, tmp_path, capsys):
        setup = dict(MICROMIRROR_SETUP, mech=[5.0e6, 1.0e-12])
        path = write_scenario(tmp_path, "s.yaml", {"protocol": "epr_conditional", "setup": setup})
        assert main(["plan", "--scenario", path]) == EXIT_VALIDATION
        assert "section 'setup.mech' must be a mapping" in capsys.readouterr().err

    def test_empty_setup_subsection_asks_for_its_keys(self, tmp_path, capsys):
        setup = dict(MICROMIRROR_SETUP, mech=None)
        path = write_scenario(tmp_path, "s.yaml", {"protocol": "epr_conditional", "setup": setup})
        assert main(["plan", "--scenario", path]) == EXIT_VALIDATION
        assert capsys.readouterr().err == (
            "error: invalid 'setup.mech' section: keys 'setup.mech.omega_m_hz', "
            "'setup.mech.mass_kg', 'setup.mech.q_factor', 'setup.mech.temperature_k' are required\n"
        )

    def test_empty_model_section_asks_for_kappa(self, tmp_path, capsys):
        path = tmp_path / "s.yaml"
        path.write_text("protocol: epr_conditional\nmodel:\n")
        assert main(["run", "--scenario", str(path)]) == EXIT_VALIDATION
        assert "model.kappa" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "section, key", [("model", "kappa"), ("model", "n_i"), ("losses", "photon_loss")]
    )
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_number_named(self, tmp_path, capsys, section, key, value):
        payload = {"protocol": "epr_conditional", "model": {"kappa": 1.0}}
        payload.setdefault(section, {})[key] = value
        path = write_scenario(tmp_path, "s.yaml", payload)
        assert main(["run", "--scenario", path]) == EXIT_VALIDATION
        assert f"{key} must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "payload, key",
        [
            (
                {
                    "protocol": "teleport",
                    "model": {"kappa": 1.0},
                    "teleport": {"asymptotic": True, "input_mean": [math.nan, 0.0]},
                },
                "teleport.input_mean",
            ),
            (
                {
                    "protocol": "epr_conditional",
                    "setup": dict(
                        MICROMIRROR_SETUP,
                        mech=dict(MICROMIRROR_SETUP["mech"], temperature_k=math.nan),
                    ),
                },
                "setup.mech.temperature_k",
            ),
            (
                {
                    "protocol": "epr_feedback",
                    "model": {"kappa": 1.0},
                    "feedback": {"mode": "fixed", "gain": math.inf},
                },
                "feedback.gain",
            ),
        ],
    )
    def test_non_finite_number_anywhere_named(self, tmp_path, capsys, payload, key):
        path = write_scenario(tmp_path, "s.yaml", payload)
        assert main(["run", "--scenario", path]) == EXIT_VALIDATION
        assert f"key {key}" in capsys.readouterr().err

    @pytest.mark.parametrize("gain", [[1.0, 2.0], "abc", -0.5])
    def test_bad_feedback_gain_is_a_validation_error(self, tmp_path, capsys, gain):
        payload = {
            "protocol": "epr_feedback",
            "model": {"kappa": 1.0},
            "feedback": {"mode": "fixed", "gain": gain},
        }
        path = write_scenario(tmp_path, "s.yaml", payload)
        assert main(["run", "--scenario", path]) == EXIT_VALIDATION
        assert "invalid 'feedback' section" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "protocol, feedback",
        [("epr_feedback", {"mode": "optimal", "gain": "abc"}), ("epr_conditional", {"gain": -3.0})],
    )
    def test_gain_checked_whatever_the_mode(self, tmp_path, capsys, protocol, feedback):
        # only mode 'fixed' reads the gain, but every mode checks it
        payload = {"protocol": protocol, "model": {"kappa": 1.0}, "feedback": feedback}
        path = write_scenario(tmp_path, "s.yaml", payload)
        assert main(["run", "--scenario", path]) == EXIT_VALIDATION
        assert "key 'feedback.gain'" in capsys.readouterr().err

    def test_valid_gain_under_optimal_is_ignored(self, tmp_path):
        results = []
        for feedback in ({"mode": "optimal", "gain": 0.5}, {"mode": "optimal"}):
            payload = {"protocol": "epr_feedback", "model": {"kappa": 1.0}, "feedback": feedback}
            out = tmp_path / "out.json"
            argv = ["run", "--scenario", write_scenario(tmp_path, "s.yaml", payload)]
            assert main(argv + ["--out", str(out)]) == EXIT_OK
            results.append(read_json(out)["results"])
        assert results[0] == results[1]

    @pytest.mark.parametrize("value", ["false", "true", 0, 1, None])
    def test_asymptotic_must_be_a_boolean(self, tmp_path, capsys, value):
        # any non-empty string used to run the asymptotic Bell limit
        payload = {
            "protocol": "teleport",
            "model": {"kappa": 1.0},
            "teleport": {"asymptotic": value, "kappa_qnd": 4.0, "bell_gain": 0.25},
        }
        path = write_scenario(tmp_path, "s.yaml", payload)
        assert main(["run", "--scenario", path]) == EXIT_VALIDATION
        assert "key 'teleport.asymptotic' must be true or false" in capsys.readouterr().err

    @pytest.mark.parametrize("protocol", ["verify", "epr_conditional", "oracle_compare"])
    @pytest.mark.parametrize(
        "key, value",
        [
            ("verify.shots", "abc"),
            ("verify.shots", 1),
            ("verify.shots", -4000),
            ("verify.shots", 4000.5),
            ("verify.shots", True),
            ("oracle.steps_per_period", "abc"),
            ("oracle.steps_per_period", 100),
            ("oracle.steps_per_period", 250.0),
            ("oracle.steps_per_period", None),
        ],
    )
    def test_integer_keys_checked_for_every_protocol(self, tmp_path, capsys, protocol, key, value):
        section, leaf = key.split(".")
        payload = {"protocol": protocol, "model": {"kappa": 1.0}, section: {leaf: value}}
        path = write_scenario(tmp_path, "s.yaml", payload)
        verb = "compare" if protocol == "oracle_compare" else "run"
        assert main([verb, "--scenario", path]) == EXIT_VALIDATION
        assert f"key '{key}' must be" in capsys.readouterr().err

    @pytest.mark.parametrize("periods", [64.9, 64.0])
    def test_larmor_periods_must_be_an_integer(self, tmp_path, capsys, periods):
        # a fractional count used to run int(periods) periods and echo the float
        payload = {"protocol": "epr_conditional", "model": {"kappa": 1.0, "larmor_periods": periods}}
        path = write_scenario(tmp_path, "s.yaml", payload)
        assert main(["run", "--scenario", path]) == EXIT_VALIDATION
        assert f"key 'model.larmor_periods' must be an integer, got {periods!r}" in (
            capsys.readouterr().err
        )

    def test_larmor_periods_sweep_runs(self, tmp_path):
        out = tmp_path / "report.json"
        payload = {
            "protocol": "epr_conditional",
            "model": {"kappa": 1.0},
            "sweep": {"path": "model.larmor_periods", "values": [64, 128]},
            "output": {"path": str(out)},
        }
        path = write_scenario(tmp_path, "s.yaml", payload)
        assert main(["sweep", "--scenario", path]) == EXIT_OK
        points = read_json(out)["results"]["sweep"]["points"]
        periods = [p["results"]["params"]["omega_m"] / (2.0 * math.pi) for p in points]
        assert periods == pytest.approx([64.0, 128.0], rel=1e-15)
        assert [p["value"] for p in points] == [64, 128]

    def test_swept_integer_key_checked_per_point(self, tmp_path, capsys):
        payload = {
            "protocol": "oracle_compare",
            "model": {"kappa": 1.0, "larmor_periods": 8},
            "oracle": {"steps_per_period": 200},
            "sweep": {"path": "oracle.steps_per_period", "values": [200, 100]},
        }
        path = write_scenario(tmp_path, "s.yaml", payload)
        assert main(["sweep", "--scenario", path]) == EXIT_VALIDATION
        assert "key 'oracle.steps_per_period' must be an integer >= 200, got 100" in (
            capsys.readouterr().err
        )

    @pytest.mark.parametrize("verb", ["compare", "run", "sweep"])
    @pytest.mark.parametrize("steps", ["100", "0", "-200"])
    def test_oracle_steps_flag_checked_like_the_key(self, tmp_path, capsys, verb, steps):
        # used to reach the oracle and exit 3 as a numerical failure
        payload = {
            "protocol": "oracle_compare",
            "model": {"kappa": 1.0, "n_i": 30.0},
            "sweep": {"path": "model.kappa", "values": [1.0]},
        }
        path = write_scenario(tmp_path, "s.yaml", payload)
        assert main([verb, "--scenario", path, "--oracle-steps", steps]) == EXIT_VALIDATION
        assert f"--oracle-steps must be an integer >= 200, got {steps}" in capsys.readouterr().err

    def test_oracle_steps_flag_sets_the_grid(self, tmp_path):
        out = tmp_path / "cmp.json"
        payload = {"protocol": "oracle_compare", "model": {"kappa": 1.0, "larmor_periods": 8}}
        path = write_scenario(tmp_path, "s.yaml", payload)
        argv = ["compare", "--scenario", path, "--out", str(out), "--oracle-steps", "250"]
        assert main(argv) == EXIT_OK
        assert read_json(out)["results"]["oracle_steps_per_period"] == 250
        assert read_json(out)["scenario"]["oracle"]["steps_per_period"] == 250

    def test_swept_oracle_steps_run_at_their_value(self, tmp_path):
        # the flag sets the scenario's grid, which the sweep then moves
        out = tmp_path / "sweep.json"
        payload = {
            "protocol": "oracle_compare",
            "model": {"kappa": 1.0, "larmor_periods": 8},
            "sweep": {"path": "oracle.steps_per_period", "values": [200, 250]},
        }
        path = write_scenario(tmp_path, "s.yaml", payload)
        argv = ["sweep", "--scenario", path, "--out", str(out), "--oracle-steps", "300"]
        assert main(argv) == EXIT_OK
        points = read_json(out)["results"]["sweep"]["points"]
        assert [p["value"] for p in points] == [200, 250]
        assert [p["results"]["oracle_steps_per_period"] for p in points] == [200, 250]

    @pytest.mark.parametrize("flag, value", [("--oracle-steps", "abc"), ("--seed", "x")])
    def test_mistyped_flag_returns_the_validation_code(self, capsys, flag, value):
        # argparse used to raise SystemExit(2) out of main
        argv = ["compare", "--scenario", "scenarios/oracle_compare.yaml", flag, value]
        assert main(argv) == EXIT_VALIDATION
        assert f"argument {flag}: invalid int value: '{value}'" in capsys.readouterr().err

    @pytest.mark.parametrize("protocol", ["epr_conditional", "verify", "oracle_compare"])
    @pytest.mark.parametrize(
        "section, message",
        [
            ({"feedback": {"mode": "nonsense"}}, "key 'feedback.mode' must be 'optimal' or 'fixed'"),
            ({"feedback": {"mode": "fixed"}}, "key 'feedback.gain' is required"),
            ({"feedback": {"mode": "fixed", "gain": "abc"}},
             "key 'feedback.gain' must be numeric, got 'abc'"),
            ({"feedback": {"mode": "fixed", "gain": -0.5}},
             "key 'feedback.gain' must be non-negative"),
            ({"teleport": {"input_mean": "abc", "asymptotic": True}},
             "key 'teleport.input_mean' must be a pair"),
            ({"teleport": {"input_mean": ["a", 0.0], "asymptotic": True}},
             "key 'teleport.input_mean' must be numeric"),
            ({"teleport": {"kappa_qnd": "xyz"}}, "key 'teleport.kappa_qnd' must be numeric"),
            ({"teleport": {"kappa_qnd": -1.0}}, "key 'teleport.kappa_qnd' must be non-negative"),
            ({"teleport": {"bell_gain": 0.5}}, "key 'teleport.kappa_qnd' must be positive"),
            ({"losses": {"photon_loss": 1.5}}, "key 'losses.photon_loss' must not exceed 1"),
            ({"losses": {"n_th": "warm"}}, "key 'losses.n_th' must be numeric"),
        ],
    )
    def test_sections_checked_whatever_the_protocol_reads(
        self, tmp_path, capsys, protocol, section, message
    ):
        payload = {"protocol": protocol, "model": {"kappa": 1.0}, **section}
        path = write_scenario(tmp_path, "s.yaml", payload)
        verb = "compare" if protocol == "oracle_compare" else "run"
        assert main([verb, "--scenario", path]) == EXIT_VALIDATION
        assert message in capsys.readouterr().err

    def test_teleport_needs_its_section(self, tmp_path, capsys):
        path = write_scenario(tmp_path, "s.yaml", {"protocol": "teleport", "model": {"kappa": 1.0}})
        assert main(["run", "--scenario", path]) == EXIT_VALIDATION
        assert "key 'teleport.kappa_qnd' must be positive" in capsys.readouterr().err

    def test_plan_checks_every_section(self, tmp_path, capsys):
        payload = {
            "protocol": "epr_conditional",
            "setup": MICROMIRROR_SETUP,
            "feedback": {"mode": "nonsense"},
        }
        path = write_scenario(tmp_path, "s.yaml", payload)
        assert main(["plan", "--scenario", path]) == EXIT_VALIDATION
        assert "key 'feedback.mode' must be 'optimal' or 'fixed'" in capsys.readouterr().err

    def test_sections_checked_when_the_run_is_built(self, tmp_path, capsys):
        # loading checks the shape only, so the verb is rejected first
        payload = {
            "protocol": "epr_conditional",
            "model": {"kappa": 1.0},
            "feedback": {"mode": "nonsense"},
        }
        path = write_scenario(tmp_path, "s.yaml", payload)
        assert load_scenario(path)["feedback"] == {"mode": "nonsense"}
        assert main(["compare", "--scenario", path]) == EXIT_VALIDATION
        assert "the 'compare' verb requires protocol 'oracle_compare'" in capsys.readouterr().err

    def test_swept_section_value_checked_per_point(self, tmp_path, capsys):
        payload = {
            "protocol": "epr_conditional",
            "model": {"kappa": 1.0},
            "teleport": {"kappa_qnd": 4.0, "bell_gain": 0.25},
            "sweep": {"path": "teleport.kappa_qnd", "values": [4.0, -4.0]},
        }
        path = write_scenario(tmp_path, "s.yaml", payload)
        assert main(["sweep", "--scenario", path]) == EXIT_VALIDATION
        assert "key 'teleport.kappa_qnd' must be non-negative" in capsys.readouterr().err

    def test_exact_and_sampled_shots_accepted(self, tmp_path):
        # at 1e11 shots the sample covariance is drawn without the outcomes
        for shots in (0, 2, 500, 100_000_000_000):
            out = tmp_path / f"{shots}.json"
            payload = {"protocol": "verify", "model": {"kappa": 1.0}, "verify": {"shots": shots}}
            path = write_scenario(tmp_path, "s.yaml", payload)
            assert main(["run", "--scenario", path, "--out", str(out)]) == EXIT_OK
            inferred = read_json(out)["results"]["inferred"]
            assert ("stderr" in inferred) == (shots > 0)
            assert shots == 0 or 0.0 < inferred["stderr"] < math.inf

    @pytest.mark.parametrize("verb", ["run", "plan"])
    @pytest.mark.parametrize(
        "sub, key, text, message",
        [
            ("mech", "temperature_k", "nan", "must be finite"),
            ("cavity", "power_w", "inf", "must be finite"),
            ("atoms", "n_atoms", "-inf", "must be finite"),
            (None, "cooling_factor", "nan", "must be finite"),
            ("mech", "mass_kg", "abc", "must be numeric"),
            ("mech", "mass_kg", "-1.0e-12", "must be positive"),
            ("cavity", "finesse", "0", "must be positive"),
            ("cavity", "power_w", "-1.0e-6", "must be non-negative"),
            ("atoms", "larmor_hz", "0", "must be positive"),
            (None, "cooling_factor", "0.5", "must be at least 1"),
        ],
    )
    def test_setup_numbers_named(self, tmp_path, capsys, verb, sub, key, text, message):
        # PyYAML reads a bare nan, inf or 5.0e6 as a string, which float() takes
        setup = {name: dict(MICROMIRROR_SETUP[name]) for name in ("mech", "cavity", "atoms")}
        (setup[sub] if sub else setup)[key] = "PLACEHOLDER"
        payload = {"protocol": "epr_conditional", "setup": setup}
        path = tmp_path / "s.yaml"
        path.write_text(yaml.safe_dump(payload).replace("PLACEHOLDER", text))
        assert main([verb, "--scenario", str(path)]) == EXIT_VALIDATION
        where = f"setup.{sub}.{key}" if sub else f"setup.{key}"
        assert f"key '{where}' {message}, got " in capsys.readouterr().err

    def test_sweep_path_must_name_a_key_of_its_section(self, tmp_path, capsys):
        # a scenario's pulse is the unit of time, so model.tau is not a key
        path = write_scenario(
            tmp_path,
            "s.yaml",
            {
                "protocol": "epr_conditional",
                "model": {"kappa": 1.0},
                "sweep": {"path": "model.tau", "values": [0.5]},
            },
        )
        assert main(["sweep", "--scenario", path]) == EXIT_VALIDATION
        assert "'model.tau'" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "route, seed",
        [
            *(("scenario", seed) for seed in ("abc", 1.5, 1.7, -5, True, "12")),
            *(("sweep", seed) for seed in ("abc", 1.5, -5, True)),
            ("flag", -1),
        ],
    )
    def test_seed_must_be_an_integer(self, tmp_path, capsys, route, seed):
        # a float seed was truncated or ended in a numpy traceback, a negative
        # one exited 3 naming no key, and true or "12" were taken
        payload = {"protocol": "epr_feedback", "model": {"kappa": 1.0}}
        verb, flags = "run", []
        if route == "scenario":
            payload["seed"] = seed
        elif route == "sweep":
            verb, payload["sweep"] = "sweep", {"path": "seed", "values": [3, seed]}
        else:
            flags = ["--seed", str(seed)]
        path = write_scenario(tmp_path, "s.yaml", payload)
        assert main([verb, "--scenario", path, *flags]) == EXIT_VALIDATION
        assert f"key 'seed' must be an integer >= 0, got {seed!r}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "payload, key",
        [
            ({"model": {"kappa": True}}, "model.kappa"),
            ({"model": {"kappa": 1.0, "n_i": False}}, "model.n_i"),
            ({"model": {"kappa": 1.0}, "losses": {"photon_loss": True}}, "losses.photon_loss"),
            (
                {"model": {"kappa": 1.0}, "feedback": {"mode": "fixed", "gain": True}},
                "feedback.gain",
            ),
            ({"model": {"kappa": 1.0}, "teleport": {"input_mean": [True, 0.0]}}, "teleport.input_mean"),
            (
                {"setup": {**MICROMIRROR_SETUP, "cooling_factor": True}},
                "setup.cooling_factor",
            ),
        ],
    )
    def test_booleans_are_not_numbers(self, tmp_path, capsys, payload, key):
        # true used to run as 1.0
        path = write_scenario(tmp_path, "s.yaml", {"protocol": "epr_feedback", **payload})
        assert main(["run", "--scenario", path]) == EXIT_VALIDATION
        assert f"key '{key}' must be numeric, got " in capsys.readouterr().err

    @pytest.mark.parametrize("value", [5, ["a"]])
    def test_output_path_must_be_a_path(self, tmp_path, capsys, value):
        # used to end in a TypeError traceback when the report was written
        payload = {"protocol": "epr_conditional", "model": {"kappa": 1.0}, "output": {"path": value}}
        path = write_scenario(tmp_path, "s.yaml", payload)
        assert main(["run", "--scenario", path]) == EXIT_VALIDATION
        assert f"key 'output.path' must be a file path, got {value!r}" in capsys.readouterr().err

    @pytest.mark.parametrize("where", ["flag", "scenario"])
    def test_unwritable_report_is_a_validation_error(self, tmp_path, capsys, where):
        # used to end in a FileNotFoundError traceback
        target = str(tmp_path / "missing" / "x.json")
        payload = {"protocol": "epr_conditional", "model": {"kappa": 1.0}}
        flags = ["--out", target] if where == "flag" else []
        if where == "scenario":
            payload["output"] = {"path": target}
        path = write_scenario(tmp_path, "s.yaml", payload)
        assert main(["run", "--scenario", path, *flags]) == EXIT_VALIDATION
        captured = capsys.readouterr()
        assert captured.err.startswith("error: cannot write report: ")
        assert target in captured.err and captured.out == ""

    @pytest.mark.parametrize(
        "protocol, section",
        [
            ("epr_conditional", {"model": {"kappa": 1.0e200}}),
            ("verify", {"model": {"kappa": 1.0e200}}),
            ("epr_conditional", {"model": {"kappa": 1.0}, "losses": {"eps_mismatch": 1.0e200}}),
            ("epr_conditional", {"model": {"kappa": 1.0, "n_i": 1.0e308}}),
        ],
    )
    def test_overflow_is_a_numerical_failure(self, tmp_path, capsys, protocol, section):
        # finite and valid, but the arithmetic overflows
        path = write_scenario(tmp_path, "s.yaml", {"protocol": protocol, **section})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["run", "--scenario", path]) == EXIT_NUMERICAL
        err = capsys.readouterr().err
        assert err.startswith("numerical failure: ") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "payload, message",
        [
            ({"model": {"kappa": 0.0}}, NO_SIGNAL_MESSAGE),
            ({"model": {"kappa": 1.0, "eta_det": 0.0}}, NO_SIGNAL_MESSAGE),
            ({"model": {"kappa": 1.0, "eta_light": 0.0}}, NO_SIGNAL_MESSAGE),
            (
                {"setup": {**MICROMIRROR_SETUP, "cavity": {**MICROMIRROR_SETUP["cavity"], "power_w": 0}}},
                "'setup' section: verification needs eta_light * eta_det * kappa > 0, otherwise "
                "light carries no signal (key 'setup.cavity.power_w')",
            ),
        ],
        ids=["kappa", "eta_det", "eta_light", "power_w"],
    )
    def test_verification_without_signal_names_its_keys(self, tmp_path, capsys, payload, message):
        # verify_epr refuses these; they used to exit 3 as a numerical failure, naming no key
        path = write_scenario(tmp_path, "v.yaml", {"protocol": "verify", **payload})
        assert main(["run", "--scenario", path]) == EXIT_VALIDATION
        assert capsys.readouterr().err.endswith(f"error: invalid {message}\n")

    @pytest.mark.parametrize("verb", ["compare", "run"])
    def test_unmatched_setup_frequencies_name_their_keys(self, tmp_path, capsys, verb):
        # build_model refuses these; they used to exit 3 as a numerical failure, naming no key
        setup = dict(MICROMIRROR_SETUP, atoms={**MICROMIRROR_SETUP["atoms"], "larmor_hz": 5.1e6})
        path = write_scenario(tmp_path, "c.yaml", {"protocol": "oracle_compare", "setup": setup})
        assert main([verb, "--scenario", path]) == EXIT_VALIDATION
        assert capsys.readouterr().err.endswith(
            "error: invalid 'setup' section: oracle requires matched frequencies omega_m == Omega; "
            "coupling mismatch is the only imperfection modeled dynamically "
            "(keys 'setup.mech.omega_m_hz', 'setup.atoms.larmor_hz')\n"
        )

    @pytest.mark.parametrize(
        "payload, flags, message",
        [
            ({"model": {"n_i": 1.0}}, [], "invalid 'model' section: key 'model.kappa' is required"),
            (
                {"setup": {k: v for k, v in MICROMIRROR_SETUP.items() if k != "mech"}},
                [],
                "invalid 'setup.mech' section: "
                "keys 'setup.mech.omega_m_hz', 'setup.mech.mass_kg', ",
            ),
            (
                {
                    "setup": dict(
                        MICROMIRROR_SETUP,
                        mech={k: v for k, v in MICROMIRROR_SETUP["mech"].items() if k != "mass_kg"},
                    )
                },
                [],
                "invalid 'setup.mech' section: key 'setup.mech.mass_kg' is required",
            ),
            (
                {"model": {"kappa": 1.0, "larmor_periods": 64.9}},
                [],
                "invalid 'model' section: key 'model.larmor_periods' must be an integer, got 64.9",
            ),
            (
                {"model": {"kappa": 1.0}, "oracle": {"steps_per_period": 100}},
                [],
                "invalid 'oracle' section: "
                "key 'oracle.steps_per_period' must be an integer >= 200, got 100",
            ),
            (
                {"model": {"kappa": 1.0}, "teleport": {"asymptotic": "yes"}},
                [],
                "invalid 'teleport' section: "
                "key 'teleport.asymptotic' must be true or false, got 'yes'",
            ),
            *(
                (
                    {"model": {"kappa": 1.0}, "teleport": {"asymptotic": True, "input_mean": mean}},
                    [],
                    "invalid 'teleport' section: "
                    f"key 'teleport.input_mean' must be a pair (x, p), got {got}",
                )
                for mean, got in ((5, "5"), ([1, 2, 3], "(1.0, 2.0, 3.0)"), ("ab", "'ab'"))
            ),
            (
                {"model": {"kappa": 1.0}},
                ["--oracle-steps", "100"],
                "--oracle-steps must be an integer >= 200, got 100\n",
            ),
        ],
        ids=[
            "model.kappa",
            "setup.mech",
            "setup.mech.mass_kg",
            "model.larmor_periods",
            "oracle.steps_per_period",
            "teleport.asymptotic",
            "teleport.input_mean-5",
            "teleport.input_mean-3",
            "teleport.input_mean-ab",
            "--oracle-steps",
        ],
    )
    def test_each_rule_named_by_its_key(self, tmp_path, capsys, payload, flags, message):
        # the object that takes each value checks it; the message names the dotted key
        path = write_scenario(tmp_path, "s.yaml", {"protocol": "oracle_compare", **payload})
        assert main(["compare", "--scenario", path, *flags]) == EXIT_VALIDATION
        assert capsys.readouterr().err.startswith(f"error: {message}")


class TestWarnings:
    def test_each_regime_warning_printed_once(self, tmp_path, capsys):
        # generation and verification pulse both warn; each warning used to
        # print with the library's file path and source line
        payload = {"protocol": "verify", "model": {"kappa": 1.0, "larmor_periods": 7}}
        path = write_scenario(tmp_path, "s.yaml", payload)
        with warnings.catch_warnings(record=True) as escaped:
            warnings.simplefilter("always")
            assert main(["run", "--scenario", path]) == EXIT_OK
        assert escaped == []
        assert capsys.readouterr().err == (
            "warning: Omega*tau = 43.9 is below 50; the cos/sin temporal modes are not "
            "independent there and the idealized map is unreliable\n"
        )

    def test_distinct_warnings_each_printed(self, tmp_path, capsys):
        payload = {
            "protocol": "epr_conditional",
            "model": {"kappa": 1.0},
            "sweep": {"path": "model.larmor_periods", "values": [7, 1, 7, 64]},
        }
        path = write_scenario(tmp_path, "s.yaml", payload)
        assert main(["sweep", "--scenario", path]) == EXIT_OK
        lines = capsys.readouterr().err.splitlines()
        assert [line.partition(";")[0] for line in lines] == [
            "warning: Omega*tau = 43.9 is below 50",
            "warning: Omega*tau = 6.2 is below 50",
        ]

    def test_warnings_printed_before_an_error(self, tmp_path, capsys):
        payload = {
            "protocol": "epr_conditional",
            "model": {"kappa": 1.0},
            "sweep": {"path": "model.larmor_periods", "values": [7, 0]},
        }
        path = write_scenario(tmp_path, "s.yaml", payload)
        assert main(["sweep", "--scenario", path]) == EXIT_VALIDATION
        first, second = capsys.readouterr().err.splitlines()
        assert first.startswith("warning: Omega*tau = 43.9")
        assert second == "error: invalid 'model' section: key 'model.larmor_periods' must be at least 1"

    @pytest.mark.parametrize(
        "category, passed_on",
        [(RuntimeWarning, False), (DeprecationWarning, True)],
        ids=["RuntimeWarning", "DeprecationWarning"],
    )
    def test_other_warnings_meet_the_callers_filters(
        self, monkeypatch, capsys, category, passed_on
    ):
        def warn(scenario):
            warnings.warn("from the run", category)
            return {}

        monkeypatch.setattr(cli, "execute", warn)
        argv = ["run", "--scenario", str(SCENARIOS / "epr_conditional.yaml")]
        with warnings.catch_warnings():
            warnings.simplefilter("error", category)
            with pytest.raises(category, match="from the run"):
                main(argv)
        capsys.readouterr()
        with warnings.catch_warnings(record=True) as passed:
            warnings.simplefilter("always")
            assert main(argv) == EXIT_OK
        # recorded, a RuntimeWarning is printed as a UserWarning is; any
        # other category is passed on
        expected = [(category, "from the run")] if passed_on else []
        assert [(w.category, str(w.message)) for w in passed] == expected
        assert capsys.readouterr().err == ("" if passed_on else "warning: from the run\n")

    @pytest.mark.parametrize(
        "payload",
        [
            {
                "protocol": "epr_feedback",
                "model": {"kappa": 1.0},
                "feedback": {"mode": "fixed", "gain": 1.0e300},
            },
            {
                "protocol": "teleport",
                "model": {"kappa": 1.0},
                "teleport": {"kappa_qnd": 1.0e200, "bell_gain": 1.0},
            },
        ],
        ids=["feedback", "teleport"],
    )
    def test_runtime_warning_printed_once_without_a_path(self, tmp_path, capsys, payload):
        # numpy's overflow warning used to reach stderr with the library's
        # file path and source line
        path = write_scenario(tmp_path, "s.yaml", payload)
        with warnings.catch_warnings():
            warnings.simplefilter("default", RuntimeWarning)
            assert main(["run", "--scenario", path]) == EXIT_NUMERICAL
        assert capsys.readouterr().err == (
            "warning: overflow encountered in matmul\nnumerical failure: cov must be finite\n"
        )


class TestParser:
    def test_cached_parser_carries_no_state_between_calls(self, capsys):
        scenario = str(SCENARIOS / "epr_conditional.yaml")
        assert main(["run", "--scenario", scenario, "--seed", "7", "--format", "csv"]) == EXIT_OK
        assert capsys.readouterr().out.startswith("value,delta_epr_predicted,")
        # neither the seed nor the format of the previous call sticks
        assert main(["run", "--scenario", scenario]) == EXIT_OK
        assert json.loads(capsys.readouterr().out)["scenario"]["seed"] == 1
        argv = ["run", "--scenario", scenario, "--oracle-steps", "abc"]
        assert main(argv) == EXIT_VALIDATION
        assert "argument --oracle-steps: invalid int value: 'abc'" in capsys.readouterr().err

    def test_help_twice(self, capsys):
        assert main(["--help"]) == EXIT_OK
        first = capsys.readouterr().out
        assert main(["--help"]) == EXIT_OK
        assert capsys.readouterr().out == first
        assert first.startswith("usage: eprbus")


@pytest.mark.skipif(not hasattr(yaml, "CSafeLoader"), reason="PyYAML built without libyaml")
class TestLoader:
    def test_cli_parses_with_libyaml(self):
        assert _LOADER is yaml.CSafeLoader

    @pytest.mark.parametrize("path", sorted(SCENARIOS.glob("*.yaml")), ids=lambda p: p.stem)
    def test_shipped_scenarios_parse_alike(self, path):
        text = path.read_text()
        assert yaml.load(text, Loader=yaml.CSafeLoader) == yaml.load(text, Loader=yaml.SafeLoader)

    @pytest.mark.parametrize(
        "scalar, expected",
        [("nan", "nan"), ("5.0e6", "5.0e6"), ("true", True), ('"false"', "false")],
    )
    def test_scalars_resolve_alike(self, scalar, expected):
        for loader in (yaml.CSafeLoader, yaml.SafeLoader):
            value = yaml.load(f"key: {scalar}\n", Loader=loader)["key"]
            assert value == expected and type(value) is type(expected)

    def test_dot_nan_is_a_float_nan(self):
        for loader in (yaml.CSafeLoader, yaml.SafeLoader):
            value = yaml.load("key: .nan\n", Loader=loader)["key"]
            assert isinstance(value, float) and math.isnan(value)


class TestRun:
    def test_conditional_reference_run(self, tmp_path):
        out = tmp_path / "report.json"
        path = write_scenario(
            tmp_path,
            "run.yaml",
            {
                "protocol": "epr_conditional",
                "model": {"kappa": 1.0, "n_i": 0.0},
                "output": {"format": "json", "path": str(out)},
            },
        )
        assert main(["run", "--scenario", path]) == EXIT_OK
        report = read_json(out)
        achieved = report["results"]["achieved"]
        assert achieved["delta_epr"] == pytest.approx(2.0 / 3.0, abs=1e-9)
        assert achieved["entangled"] is True
        assert report["schema_version"] == 1
        assert "created_utc" in report["metadata"]
        # the resolved parameter set is embedded
        assert report["results"]["params"]["kappa"] == 1.0

    def test_room_temperature_resonator(self, tmp_path):
        # about 1e8 phonons, as a 60 kHz oscillator holds at room temperature
        out = tmp_path / "hot.json"
        path = write_scenario(
            tmp_path,
            "hot.yaml",
            {
                "protocol": "epr_conditional",
                "model": {"kappa": 1.0, "n_i": 1.0e8},
                "output": {"path": str(out)},
            },
        )
        assert main(["run", "--scenario", path]) == EXIT_OK
        achieved = read_json(out)["results"]["achieved"]
        assert achieved["delta_epr"] == pytest.approx(2.0 / (1.0 / (1.0 + 1e8) + 2.0), rel=1e-5)

    def test_losses_fold_into_corrected_report(self, tmp_path):
        out = tmp_path / "r.json"
        path = write_scenario(
            tmp_path,
            "loss.yaml",
            {
                "protocol": "epr_conditional",
                "model": {"kappa": 1.0},
                "losses": {"photon_loss": 0.1},
                "output": {"path": str(out)},
            },
        )
        assert main(["run", "--scenario", path]) == EXIT_OK
        corrected = read_json(out)["results"]["corrected"]
        assert corrected["delta_epr"] == pytest.approx(0.8, abs=1e-9)

    def test_mismatch_excess_beside_corrected(self, tmp_path):
        # hot mode: the paper's budget term adds +0.1024, while the mismatch
        # the oracle models lowers the conditional EPR variance
        out = tmp_path / "r.json"
        path = write_scenario(
            tmp_path,
            "mm.yaml",
            {
                "protocol": "epr_conditional",
                "model": {"kappa": 1.0, "n_i": 30.0},
                "losses": {"eps_mismatch": 0.01},
                "output": {"path": str(out)},
            },
        )
        assert main(["run", "--scenario", path]) == EXIT_OK
        results = read_json(out)["results"]
        penalty = results["corrected"]["corrections"]["mismatch_penalty"]
        assert penalty == pytest.approx(mismatch_penalty(0.01, 1.0, 30.0), rel=1e-12)
        assert results["mismatch_excess"] == pytest.approx(
            mismatch_excess(0.01, 1.0, 30.0), rel=1e-12
        )
        assert penalty > 0.0 > results["mismatch_excess"]

    def test_no_mismatch_excess_without_declared_mismatch(self, tmp_path):
        out = tmp_path / "r.json"
        path = write_scenario(
            tmp_path,
            "loss.yaml",
            {
                "protocol": "epr_conditional",
                "model": {"kappa": 1.0},
                "losses": {"photon_loss": 0.1},
                "output": {"path": str(out)},
            },
        )
        assert main(["run", "--scenario", path]) == EXIT_OK
        assert "mismatch_excess" not in read_json(out)["results"]

    def test_teleport_protocol(self, tmp_path):
        out = tmp_path / "t.json"
        path = write_scenario(
            tmp_path,
            "tele.yaml",
            {
                "protocol": "teleport",
                "model": {"kappa": 1.0},
                "teleport": {"asymptotic": True, "input_mean": [0.25, -0.5]},
                "output": {"path": str(out)},
            },
        )
        assert main(["run", "--scenario", path]) == EXIT_OK
        tele = read_json(out)["results"]["teleport"]
        assert tele["fidelity"] == pytest.approx(0.75, abs=1e-9)
        assert tele["output_mean"] == pytest.approx([0.25, -0.5])

    def test_verify_protocol(self, tmp_path):
        out = tmp_path / "v.json"
        path = write_scenario(
            tmp_path,
            "verify.yaml",
            {
                "protocol": "verify",
                "model": {"kappa": 1.0},
                "output": {"path": str(out)},
            },
        )
        assert main(["run", "--scenario", path]) == EXIT_OK
        results = read_json(out)["results"]
        assert results["inferred"]["delta_epr"] == pytest.approx(2.0 / 3.0, abs=1e-9)
        assert results["post_verification"]["delta_epr"] < results["inferred"]["delta_epr"]


class TestSweep:
    def test_kappa_sweep_csv(self, tmp_path):
        out = tmp_path / "sweep.csv"
        path = write_scenario(
            tmp_path,
            "sweep.yaml",
            {
                "protocol": "epr_conditional",
                "model": {"kappa": 1.0, "n_i": 0.0},
                "sweep": {"path": "model.kappa", "values": [0.0, 0.5, 1.0, 2.0]},
                "output": {"format": "csv", "path": str(out)},
            },
        )
        assert main(["sweep", "--scenario", path]) == EXIT_OK
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "value,delta_epr_predicted,delta_epr,entangled,fidelity"
        assert len(lines) == 5
        deltas = [float(row.split(",")[2]) for row in lines[1:]]
        assert deltas == sorted(deltas, reverse=True)  # monotone decreasing
        assert deltas[0] == pytest.approx(2.0, abs=1e-9)

    @pytest.mark.parametrize(
        "path, values",
        [
            ("model.kappa", [0.5, 1.5]),
            ("setup.mech.mass_kg", [1.0e-12, 2.0e-12]),
            ("losses.photon_loss", [0.0, 0.2]),
            ("seed", [3, 4]),
        ],
    )
    def test_scenario_left_unchanged(self, tmp_path, path, values):
        # each point copies only the dicts on the sweep path
        body = (
            {"setup": MICROMIRROR_SETUP}
            if path.startswith("setup")
            else {"model": {"kappa": 1.0, "n_i": 2.0}}
        )
        payload = {
            "protocol": "epr_feedback",
            **body,
            "losses": {"photon_loss": 0.1},
            "sweep": {"path": path, "values": values},
        }
        scenario = load_scenario(write_scenario(tmp_path, "s.yaml", payload))
        before = json.dumps(scenario, sort_keys=True)
        points = cli.execute_sweep(scenario)["points"]
        assert json.dumps(scenario, sort_keys=True) == before
        assert [point["value"] for point in points] == values
        # the points differ, so each ran at its own value
        assert points[0]["results"] != points[1]["results"]

    def test_sweep_verb_requires_section(self, tmp_path):
        path = write_scenario(
            tmp_path, "nosweep.yaml", {"protocol": "epr_conditional", "model": {"kappa": 1.0}}
        )
        assert main(["sweep", "--scenario", path]) == EXIT_VALIDATION


@pytest.mark.parametrize(
    "protocol, section, draws",
    [
        ("epr_conditional", {}, False),
        ("epr_feedback", {}, True),
        ("verify", {}, False),
        ("verify", {"verify": {"shots": 10}}, True),
        ("teleport", {"teleport": {"asymptotic": True}}, False),
    ],
)
def test_generator_made_only_where_drawn_from(tmp_path, monkeypatch, protocol, section, draws):
    made = []
    default_rng = cli.np.random.default_rng

    def counted(seed):
        made.append(seed)
        return default_rng(seed)

    monkeypatch.setattr(cli.np.random, "default_rng", counted)
    payload = {"protocol": protocol, "seed": 5, "model": {"kappa": 1.0}, **section}
    cli.execute(load_scenario(write_scenario(tmp_path, "s.yaml", payload)))
    assert made == ([5] if draws else [])


class TestCompare:
    def test_three_routes_agree(self, tmp_path):
        out = tmp_path / "cmp.json"
        path = write_scenario(
            tmp_path,
            "cmp.yaml",
            {
                "protocol": "oracle_compare",
                "model": {"kappa": 1.0, "n_i": 0.0},
                "output": {"path": str(out)},
            },
        )
        assert main(["compare", "--scenario", path]) == EXIT_OK
        results = read_json(out)["results"]
        for key in ("predicted", "idealized", "oracle"):
            assert results[key]["delta_epr"] == pytest.approx(2.0 / 3.0, rel=0.02)
        assert abs(results["rel_deviation_oracle"]) < 0.02

    def test_mismatch_excess_reported(self, tmp_path):
        out = tmp_path / "mm.json"
        path = write_scenario(
            tmp_path,
            "mm.yaml",
            {
                "protocol": "oracle_compare",
                "model": {"kappa": 1.0, "n_i": 0.0, "eps_mismatch": 0.01},
                "output": {"path": str(out)},
            },
        )
        assert main(["compare", "--scenario", path]) == EXIT_OK
        results = read_json(out)["results"]
        assert results["oracle_excess"] > 0.0
        assert results["mismatch_penalty"] == pytest.approx((0.01 * 2.0) ** 2, rel=1e-9)
        assert "excess_over_closed_form" in results

    def test_excess_ratio_left_out_without_a_budget(self, tmp_path):
        # kappa = 0 makes the closed-form budget 0, where the ratio is undefined
        out = tmp_path / "zero.json"
        model = {"kappa": 0.0, "n_i": 30.0, "eps_mismatch": 0.01, "larmor_periods": 8}
        path = write_scenario(
            tmp_path,
            "zero.yaml",
            {"protocol": "oracle_compare", "model": model, "output": {"path": str(out)}},
        )
        assert main(["compare", "--scenario", path]) == EXIT_OK

        def strict(constant):
            raise AssertionError(f"{constant} is not valid JSON")

        results = json.loads(out.read_text(), parse_constant=strict)["results"]
        assert results["mismatch_penalty"] == 0.0
        assert "excess_over_closed_form" not in results

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_report_is_a_numerical_failure(self, tmp_path, capsys, monkeypatch, value):
        out = tmp_path / "bad.json"
        path = write_scenario(
            tmp_path,
            "bad.yaml",
            {"protocol": "epr_conditional", "model": {"kappa": 1.0}, "output": {"path": str(out)}},
        )
        monkeypatch.setattr(cli, "execute", lambda scenario: {"figure": value})
        assert main(["run", "--scenario", path]) == EXIT_NUMERICAL
        err = capsys.readouterr().err
        assert err.startswith("numerical failure: ") and err.count("\n") == 1
        assert not out.exists()

    def test_compare_verb_requires_protocol(self, tmp_path):
        path = write_scenario(
            tmp_path, "c.yaml", {"protocol": "epr_conditional", "model": {"kappa": 1.0}}
        )
        assert main(["compare", "--scenario", path]) == EXIT_VALIDATION


class TestPlan:
    def test_micromirror_plan(self, tmp_path):
        out = tmp_path / "plan.json"
        path = write_scenario(
            tmp_path,
            "plan.yaml",
            {
                "protocol": "epr_conditional",
                "setup": MICROMIRROR_SETUP,
                "output": {"path": str(out)},
            },
        )
        assert main(["plan", "--scenario", path]) == EXIT_OK
        results = read_json(out)["results"]
        assert 0.5 <= results["params"]["kappa"] <= 2.0
        assert results["coherence"]["tau_thermal_s"] == pytest.approx(19.1e-6, rel=0.05)
        names = {c["name"] for c in results["checks"]}
        assert "adiabatic_elimination_vs_g" in names

    def test_plan_requires_setup(self, tmp_path):
        path = write_scenario(
            tmp_path, "m.yaml", {"protocol": "epr_conditional", "model": {"kappa": 1.0}}
        )
        assert main(["plan", "--scenario", path]) == EXIT_VALIDATION

    @pytest.mark.parametrize(
        "output, flags, named",
        [
            ({}, ["--format", "csv"], "--format"),
            ({"format": "csv"}, [], "key 'output.format'"),
        ],
        ids=["flag", "scenario"],
    )
    def test_plan_refuses_csv(self, tmp_path, capsys, output, flags, named):
        # a CSV row holds protocol figures; a plan used to raise KeyError
        out = tmp_path / "plan.csv"
        path = write_scenario(
            tmp_path,
            "plan.yaml",
            {"protocol": "epr_conditional", "setup": MICROMIRROR_SETUP, "output": output},
        )
        assert main(["plan", "--scenario", path, "--out", str(out), *flags]) == EXIT_VALIDATION
        captured = capsys.readouterr()
        assert captured.err == f"error: the 'plan' verb writes JSON only; {named} asks for csv\n"
        assert captured.out == "" and not out.exists()

    def test_plan_format_flag_overrides_csv_scenario(self, tmp_path):
        out = tmp_path / "plan.json"
        path = write_scenario(
            tmp_path,
            "plan.yaml",
            {"protocol": "epr_conditional", "setup": MICROMIRROR_SETUP, "output": {"format": "csv"}},
        )
        assert main(["plan", "--scenario", path, "--out", str(out), "--format", "json"]) == EXIT_OK
        assert read_json(out)["results"]["feasible"] in (True, False)


class TestDeterminism:
    def scenario(self, tmp_path, out_name: str) -> str:
        return write_scenario(
            tmp_path,
            f"det-{out_name}.yaml",
            {
                "protocol": "epr_feedback",
                "seed": 424242,
                "model": {"kappa": 1.0, "n_i": 30.0},
                "feedback": {"mode": "optimal"},
                "output": {"path": str(tmp_path / out_name)},
            },
        )

    @staticmethod
    def stripped_bytes(path) -> bytes:
        payload = read_json(path)
        payload.pop("metadata")
        return json.dumps(payload, sort_keys=True).encode()

    def test_same_seed_byte_identical(self, tmp_path):
        scenario = self.scenario(tmp_path, "a.json")
        assert main(["run", "--scenario", scenario]) == EXIT_OK
        first = self.stripped_bytes(tmp_path / "a.json")
        assert main(["run", "--scenario", scenario]) == EXIT_OK
        second = self.stripped_bytes(tmp_path / "a.json")
        assert first == second

    def test_seed_override_changes_records(self, tmp_path):
        a = self.scenario(tmp_path, "a.json")
        b = self.scenario(tmp_path, "b.json")
        assert main(["run", "--scenario", a]) == EXIT_OK
        assert main(["run", "--scenario", b, "--seed", "7"]) == EXIT_OK
        rec_a = read_json(tmp_path / "a.json")["results"]["records"]
        rec_b = read_json(tmp_path / "b.json")["results"]["records"]
        assert rec_a != rec_b


def test_scenario_loader_defaults(tmp_path):
    path = write_scenario(tmp_path, "min.yaml", {"protocol": "epr_conditional", "model": {"kappa": 2.0}})
    scenario = load_scenario(path)
    assert scenario["seed"] == 0
    assert scenario["losses"] == {}
    assert scenario["output"] == {}


# ---------------------------------------------------------------------------
# report rendering: byte for byte what json.dumps writes


def dumps(payload) -> str:
    return json.dumps(payload, sort_keys=True, indent=2, allow_nan=False) + "\n"


def outcome(render, payload):
    """The text ``render`` writes, or the type of what it raises: the
    messages differ across Python versions."""
    try:
        return render(payload)
    except Exception as err:
        return type(err)


CHARS = st.one_of(st.characters(), st.sampled_from('"\\/\x00\x1f\x7f\u2028\ud800\U0001f600é'))
FINITE = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([-0.0, 5e-324, 1e16, 1e-7, 0.1, 1e22]),
)
NUMBERS = st.one_of(
    st.integers(),
    st.sampled_from([2**64, -(2**100), 10**400]),
    FINITE,
    FINITE.map(np.float64),
)
SCALARS = st.one_of(st.text(CHARS, max_size=12), NUMBERS, st.booleans(), st.none())
#: payloads json.dumps refuses: a NaN or infinity raises ValueError; an
#: unserializable type, a bad key or keys that do not sort, TypeError
BAD = [
    math.nan,
    math.inf,
    -math.inf,
    np.float64("nan"),
    np.float64("-inf"),
    np.int64(3),
    {1, 2},
    b"bytes",
    {math.nan: 0},
    {math.inf: 0},
    {-math.inf: 0},
    {1: 0, "a": 0},
    {None: 0, 2.5: 0},
    {(1, 2): 0},
]


def payloads(leaves, mixed_keys: bool = False):
    """Nested dicts, lists and tuples over ``leaves``, empty ones included.
    Each dict has keys of one kind that sort together, unless ``mixed_keys``
    adds dicts whose keys do not."""

    def extend(children):
        kinds = [
            st.text(CHARS, max_size=8),
            st.one_of(st.integers(), FINITE, st.booleans()),
            st.none(),
        ]
        if mixed_keys:
            kinds.append(st.one_of(st.text(max_size=2), st.integers(), st.none()))
        return st.one_of(
            st.lists(children, max_size=4),
            st.lists(children, max_size=4).map(tuple),
            *(st.dictionaries(keys, children, max_size=4) for keys in kinds),
        )

    return st.recursive(leaves, extend, max_leaves=24)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(payload=payloads(SCALARS))
def test_render_json_writes_what_json_dumps_writes(payload):
    assert cli.render_json(payload) == dumps(payload)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(payload=payloads(st.one_of(SCALARS, st.sampled_from(BAD)), mixed_keys=True))
def test_render_json_fails_where_json_dumps_fails(payload):
    # the first refusal in the encoder's order decides the exception type
    assert outcome(cli.render_json, payload) == outcome(dumps, payload)


@pytest.mark.parametrize("bad", BAD, ids=repr)
def test_render_json_raises_the_type_json_dumps_raises(bad):
    for payload in (bad, [bad], {"a": (1, {"b": bad})}):
        expected = outcome(dumps, payload)
        assert isinstance(expected, type) and outcome(cli.render_json, payload) is expected

