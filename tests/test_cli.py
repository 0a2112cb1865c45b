import json
import math
import warnings
from pathlib import Path

import pytest
import yaml

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
        assert "in section 'setup.mech'" in capsys.readouterr().err

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
        for shots in (0, 2, 500):
            out = tmp_path / f"{shots}.json"
            payload = {"protocol": "verify", "model": {"kappa": 1.0}, "verify": {"shots": shots}}
            path = write_scenario(tmp_path, "s.yaml", payload)
            assert main(["run", "--scenario", path, "--out", str(out)]) == EXIT_OK
            assert ("stderr" in read_json(out)["results"]["inferred"]) == (shots > 0)

    @pytest.mark.parametrize("verb", ["run", "plan"])
    @pytest.mark.parametrize(
        "sub, key, text",
        [
            ("mech", "temperature_k", "nan"),
            ("cavity", "power_w", "inf"),
            ("atoms", "n_atoms", "-inf"),
            (None, "cooling_factor", "nan"),
            ("mech", "mass_kg", "abc"),
        ],
    )
    def test_setup_numbers_named(self, tmp_path, capsys, verb, sub, key, text):
        # PyYAML reads a bare nan, inf or 5.0e6 as a string, which float() takes
        setup = {name: dict(MICROMIRROR_SETUP[name]) for name in ("mech", "cavity", "atoms")}
        (setup[sub] if sub else setup)[key] = "PLACEHOLDER"
        payload = {"protocol": "epr_conditional", "setup": setup}
        path = tmp_path / "s.yaml"
        path.write_text(yaml.safe_dump(payload).replace("PLACEHOLDER", text))
        assert main([verb, "--scenario", str(path)]) == EXIT_VALIDATION
        where = f"setup.{sub}.{key}" if sub else f"setup.{key}"
        message = "must be a number" if text == "abc" else "must be finite"
        assert f"key {where} {message}, got '{text}'" in capsys.readouterr().err

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

    def test_seed_must_be_an_integer(self, tmp_path, capsys):
        payload = {"protocol": "epr_conditional", "seed": "abc", "model": {"kappa": 1.0}}
        path = write_scenario(tmp_path, "s.yaml", payload)
        assert main(["run", "--scenario", path]) == EXIT_VALIDATION
        assert "'seed'" in capsys.readouterr().err

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

    def test_numerical_failure_exit_code(self, tmp_path, capsys):
        # verification with kappa = 0 passes validation but fails at run time
        path = write_scenario(
            tmp_path, "v.yaml", {"protocol": "verify", "model": {"kappa": 0.0}}
        )
        assert main(["run", "--scenario", path]) == EXIT_NUMERICAL


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

    def test_sweep_verb_requires_section(self, tmp_path):
        path = write_scenario(
            tmp_path, "nosweep.yaml", {"protocol": "epr_conditional", "model": {"kappa": 1.0}}
        )
        assert main(["sweep", "--scenario", path]) == EXIT_VALIDATION


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
