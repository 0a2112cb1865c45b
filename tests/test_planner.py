import dataclasses
import math

import pytest

from eprbus.iomaps import ProtocolParams
from eprbus.planner import (
    HBAR,
    K_B,
    AtomSpec,
    CavitySpec,
    CheckStatus,
    MechanicalSpec,
    PhysicalSetup,
    coherence_budget,
    derive_params,
    matched_atom_number,
    membrane_setup,
    micromirror_setup,
)

TWO_PI = 2.0 * math.pi


def scaled(setup: PhysicalSetup, **overrides) -> PhysicalSetup:
    cavity = dataclasses.replace(setup.cavity, **{
        k[len("cavity_"):]: v for k, v in overrides.items() if k.startswith("cavity_")
    })
    atoms = dataclasses.replace(setup.atoms, **{
        k[len("atoms_"):]: v for k, v in overrides.items() if k.startswith("atoms_")
    })
    return dataclasses.replace(setup, cavity=cavity, atoms=atoms)


class TestReferenceSetups:
    def test_micromirror_numbers(self):
        params, report = derive_params(micromirror_setup())
        # QND strength lands near unity under the declared conventions
        assert 0.5 <= params.kappa <= 2.0
        # thermal occupation at 0.2 K and 5 MHz
        expected_n_th = K_B * 0.2 / (HBAR * TWO_PI * 5.0e6)
        assert params.n_th == pytest.approx(expected_n_th, rel=1e-9)
        assert params.n_th == pytest.approx(850.0, rel=0.1)
        # cooling by 30 leaves about 28 quanta
        assert params.n_i == pytest.approx(expected_n_th / 30.0, rel=1e-9)
        assert params.n_i < 30.0
        assert report.derived["eps_mismatch_signed"] == pytest.approx(0.0, abs=1e-9)

    def test_membrane_numbers(self):
        params, _ = derive_params(membrane_setup())
        assert params.n_i == pytest.approx(30.0, rel=0.2)
        assert 0.5 <= params.kappa <= 2.0

    def test_coherence_budget_matches_quoted_window(self):
        budget = coherence_budget(micromirror_setup())
        assert budget.tau_thermal == pytest.approx(20e-6, rel=3.0)
        assert 20e-6 / 3.0 <= budget.tau_thermal <= 20e-6 * 3.0
        assert budget.tau_max == pytest.approx(budget.tau_thermal / 10.0)
        assert budget.limiting == "mechanical_thermalization"

    def test_coherence_budget_limits(self):
        setup = micromirror_setup()
        cold = dataclasses.replace(
            setup, mech=dataclasses.replace(setup.mech, temperature_k=1e-12)
        )
        assert coherence_budget(cold).tau_thermal > 1.0e3
        doubled = dataclasses.replace(
            setup, mech=dataclasses.replace(setup.mech, q_factor=2 * setup.mech.q_factor)
        )
        assert coherence_budget(doubled).tau_thermal == pytest.approx(
            2.0 * coherence_budget(setup).tau_thermal
        )

    def test_zero_power_drive(self):
        setup = scaled(micromirror_setup(), cavity_power_w=0.0)
        params, report = derive_params(setup)
        assert params.g == 0.0
        assert params.kappa == 0.0
        assert report.derived["eps_mismatch_signed"] == 1.0
        failed = {c.name for c in report.checks if c.status is CheckStatus.FAIL}
        assert "matching_within_tolerance" in failed


class TestTemporalModeSeparation:
    @pytest.mark.parametrize(
        "larmor_hz, status",
        [
            (5.0e6, CheckStatus.PASS),  # Omega tau = 62.8, the reference setup
            (2.0e6, CheckStatus.WARN),  # 25.1
            (1.0e6, CheckStatus.WARN),  # 12.6
            (4.0 / (TWO_PI * 2.0e-6), CheckStatus.FAIL),  # 4
        ],
    )
    def test_graded_by_the_pulse_bound(self, larmor_hz, status):
        # the pulse warns below Omega tau = 50, so the plan passes only above it
        _, report = derive_params(scaled(micromirror_setup(), atoms_larmor_hz=larmor_hz))
        (check,) = [c for c in report.checks if c.name == "temporal_mode_separation"]
        assert check.ratio == pytest.approx(TWO_PI * larmor_hz * 2.0e-6, rel=1e-12)
        assert check.status is status


class TestScalings:
    def test_kappa_scales_as_sqrt_atom_number(self):
        setup = micromirror_setup()
        base, _ = derive_params(setup)
        quadrupled, _ = derive_params(
            scaled(setup, atoms_n_atoms=4.0 * setup.atoms.n_atoms)
        )
        assert quadrupled.kappa == pytest.approx(2.0 * base.kappa, rel=1e-12)

    def test_g_scales_as_sqrt_power(self):
        setup = micromirror_setup()
        base, _ = derive_params(setup)
        quadrupled, _ = derive_params(scaled(setup, cavity_power_w=4.0 * setup.cavity.power_w))
        assert quadrupled.g == pytest.approx(2.0 * base.g, rel=1e-12)

    def test_matching_residual_is_power_independent(self):
        # both kappa and g sqrt(tau/gamma_c) scale as sqrt(P tau), so the
        # power cannot put a setup on matching
        setup = micromirror_setup()
        _, base = derive_params(setup)
        _, quadrupled = derive_params(scaled(setup, cavity_power_w=4.0 * setup.cavity.power_w))
        for key in ("kappa", "kappa_optical"):
            assert quadrupled.derived[key] == pytest.approx(2.0 * base.derived[key], rel=1e-12)
        assert quadrupled.derived["eps_mismatch_signed"] == pytest.approx(
            base.derived["eps_mismatch_signed"], rel=1e-12
        )

    def test_derivation_is_deterministic(self):
        a, _ = derive_params(micromirror_setup())
        b, _ = derive_params(micromirror_setup())
        assert a == b


class TestMatching:
    def test_matched_params(self):
        for kappa in (1.3, 0.4):
            params = ProtocolParams.dimensionless(kappa)
            assert params.kappa_optical == pytest.approx(kappa, rel=1e-12)
            assert params.matching_residual() == pytest.approx(0.0, abs=1e-14)

    def test_degenerate(self):
        # both strengths vanish: the residual is undefined, and the planner
        # scores the zero-power drive as a full mismatch
        params, report = derive_params(scaled(micromirror_setup(), cavity_power_w=0.0))
        assert math.isnan(params.matching_residual())
        assert params.eps_mismatch == 1.0

    def test_reference_residual(self):
        gamma_c, tau = 1e6, 1.0
        params = ProtocolParams(
            kappa=1.0, g=0.98 * math.sqrt(gamma_c / tau), gamma_c=gamma_c, tau=tau,
            eps_mismatch=0.05,
        )
        assert params.matching_residual() == pytest.approx(0.02 / 1.98, rel=1e-9)

    def test_sign_antisymmetry(self):
        gamma_c, tau = 1e6, 1.0
        small = ProtocolParams(
            kappa=0.98, g=1.0 * math.sqrt(gamma_c / tau), gamma_c=gamma_c, tau=tau,
            eps_mismatch=0.05,
        )
        assert small.matching_residual() == pytest.approx(-0.02 / 1.98, rel=1e-9)

    def test_matched_atom_number_round_trip(self):
        setup = scaled(micromirror_setup(), atoms_n_atoms=3.33e5)
        solved = scaled(setup, atoms_n_atoms=matched_atom_number(setup))
        _, report = derive_params(solved)
        assert report.derived["eps_mismatch_signed"] == pytest.approx(0.0, abs=1e-12)


#: Each spec with every required field at 1.
UNIT_FIELDS = {
    "mech": (MechanicalSpec, dict(omega_m_hz=1.0, mass_kg=1.0, q_factor=1.0, temperature_k=1.0)),
    "cavity": (CavitySpec, dict(finesse=1.0, length_m=1.0, power_w=1.0, tau_s=1.0)),
    "atoms": (
        AtomSpec,
        dict(gamma_hz=1.0, delta_hz=1.0, sigma_m2=1.0, area_m2=1.0, n_atoms=1.0, larmor_hz=1.0),
    ),
}


class TestValidation:
    @pytest.mark.parametrize(
        "sub, name, value, message",
        [
            ("mech", "mass_kg", 0.0, "must be positive"),
            ("cavity", "power_w", -1.0e-6, "must be non-negative"),
            ("atoms", "larmor_hz", 0.0, "must be positive"),
        ],
    )
    def test_rejects_nonpositive_quantities(self, sub, name, value, message):
        spec, values = UNIT_FIELDS[sub]
        with pytest.raises(ValueError, match=f"^{name} {message}"):
            spec(**dict(values, **{name: value}))

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize(
        "spec, values, name",
        [
            pytest.param(spec, values, field.name, id=f"{spec.__name__}.{field.name}")
            for spec, values in UNIT_FIELDS.values()
            for field in dataclasses.fields(spec)
        ],
    )
    def test_rejects_non_finite_fields(self, spec, values, name, value):
        with pytest.raises(ValueError, match=f"^{name} must be finite"):
            spec(**dict(values, **{name: value}))

    def test_rejects_cooling_below_one(self):
        setup = micromirror_setup()
        with pytest.raises(ValueError, match="^cooling_factor must be at least 1"):
            dataclasses.replace(setup, cooling_factor=0.5)
        with pytest.raises(ValueError, match="^cooling_factor must be finite"):
            dataclasses.replace(setup, cooling_factor=math.nan)
