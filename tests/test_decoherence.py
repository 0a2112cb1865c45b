import numpy as np
import pytest

from eprbus.decoherence import (
    LossBudget,
    apply_budget,
    damping_penalty,
    mismatch_excess,
    mismatch_penalty,
    photon_loss_map,
)
from eprbus.gaussian import EPRReport, Provenance
from eprbus.iomaps import ProtocolParams
from eprbus.oracle import build_model, oracle_epr_after_measurement


def report_for(delta: float) -> EPRReport:
    return EPRReport(delta / 2, delta / 2, Provenance.PREDICTED)


class TestMismatchPenalty:
    def test_zero(self):
        assert mismatch_penalty(0.0, 1.0, 30.0) == 0.0

    def test_reference_value(self):
        assert mismatch_penalty(0.01, 1.0, 30.0) == pytest.approx(0.1024, rel=1e-12)

    def test_tolerable_mismatch_is_small(self):
        n_i = 100.0
        penalty = mismatch_penalty(1.0 / (10.0 * n_i), 1.0, n_i)
        assert penalty == pytest.approx(0.010404, rel=1e-9)
        assert penalty < 0.02  # small against the entanglement bound of 2

    def test_negative_eps_rejected(self):
        with pytest.raises(ValueError):
            mismatch_penalty(-0.01, 1.0, 0.0)


class TestMismatchExcess:
    GRID = [(kappa, n_i) for kappa in (0.5, 1.0, 2.0) for n_i in (0.0, 30.0, 850.0)]

    def test_zero(self):
        for kappa, n_i in self.GRID:
            assert mismatch_excess(0.0, kappa, n_i) == 0.0

    def test_cold_mode_leading_order(self):
        eps = 1e-3
        assert mismatch_excess(eps, 1.0, 0.0) == pytest.approx(52.0 / 27.0 * eps**2, rel=1e-5)

    def test_first_order_matches_schur_coefficient(self):
        eps = 1e-6
        for kappa, n_i in self.GRID:
            slope = (mismatch_excess(eps, kappa, n_i) - mismatch_excess(-eps, kappa, n_i)) / (
                2.0 * eps
            )
            v = n_i + 1.0
            schur = -2.0 * kappa**2 * v * n_i / (0.5 + kappa**2 * v) ** 2
            assert slope == pytest.approx(schur, rel=1e-6, abs=1e-9)

    def test_equals_conditional_variance_difference(self):
        # the documented form 2 (s - c^2 / y), evaluated as written
        def delta(eps, kappa, n_i):
            v = n_i + 1.0
            s = v + 2.0 * eps**2 * kappa**2
            c = kappa * (v + eps * n_i) + 2.0 * eps**2 * kappa**3
            y = 0.5 + kappa**2 * (v * (1.0 + eps**2) + 2.0 * eps * n_i)
            y += 8.0 / 3.0 * eps**2 * kappa**4
            return 2.0 * (s - c**2 / y)

        for kappa, n_i in self.GRID:
            assert delta(0.0, kappa, n_i) == pytest.approx(
                2.0 / (1.0 / (n_i + 1.0) + 2.0 * kappa**2), rel=1e-14
            )
            for eps in (-0.2, -0.03, 0.01, 0.1, 0.2):
                expected = delta(eps, kappa, n_i) - delta(0.0, kappa, n_i)
                assert mismatch_excess(eps, kappa, n_i) == pytest.approx(expected, rel=1e-8)

    def test_matches_oracle_off_the_acceptance_grid(self):
        kappa, n_i, eps = 2.0, 30.0, 0.1
        base = oracle_epr_after_measurement(
            build_model(ProtocolParams.dimensionless(kappa, n_i))
        ).delta_epr
        params = ProtocolParams.dimensionless(kappa, n_i, eps_mismatch=eps)
        realized = oracle_epr_after_measurement(build_model(params, mismatch=True)).delta_epr
        assert realized - base == pytest.approx(mismatch_excess(eps, kappa, n_i), rel=1e-3)


class TestDampingPenalty:
    def test_zero(self):
        assert damping_penalty(0.0, 830.0) == 0.0

    def test_reference_value(self):
        # gamma_m tau n_th = 0.83 also exercises the perturbative-limit warning
        with pytest.warns(UserWarning, match="perturbative"):
            assert damping_penalty(1e-3, 830.0) == pytest.approx(0.831, rel=1e-12)

    def test_warns_outside_perturbative_regime(self):
        with pytest.warns(UserWarning, match="perturbative"):
            damping_penalty(2e-4, 830.0)

    @pytest.mark.parametrize("excess", [0.10004, 0.1 + 1e-12])
    def test_value_just_above_the_limit_never_prints_as_it(self, excess):
        # the warning fires above its limit, so its value is rounded up
        with pytest.warns(UserWarning, match=r"gamma_m\*tau\*n_th = 0\.101 exceeds"):
            damping_penalty(1.0, excess)


class TestPhotonLossMap:
    def test_identity(self):
        assert photon_loss_map(0.55, 0.0) == 0.55

    def test_reference_value(self):
        assert photon_loss_map(2.0 / 3.0, 0.1) == pytest.approx(0.8, rel=1e-14)

    def test_fixed_point(self):
        for eps in (0.0, 0.3, 0.9, 1.0):
            assert photon_loss_map(2.0, eps) == pytest.approx(2.0)

    def test_monotone_and_contracting(self, rng):
        for _ in range(50):
            d1, d2 = sorted(rng.uniform(0.0, 4.0, size=2))
            eps = rng.uniform(0.0, 1.0)
            m1, m2 = photon_loss_map(d1, eps), photon_loss_map(d2, eps)
            assert m1 <= m2 + 1e-14
            assert abs(m1 - 2.0) <= abs(d1 - 2.0) + 1e-14

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            photon_loss_map(1.0, 1.5)


class TestLossBudget:
    @pytest.mark.parametrize("name", ["eps_mismatch", "photon_loss", "gamma_m_tau", "n_th"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_entry_named(self, name, value):
        with pytest.raises(ValueError, match=f"^{name} must be finite$"):
            LossBudget(**{name: value})


class TestApplyBudget:
    def test_empty_budget_is_identity(self):
        rep = report_for(2.0 / 3.0)
        out = apply_budget(rep, LossBudget(), 1.0, 0.0)
        assert out.delta_epr == pytest.approx(rep.delta_epr)
        assert out.provenance is rep.provenance

    def test_optical_loss_only(self):
        out = apply_budget(report_for(2.0 / 3.0), LossBudget(photon_loss=0.05), 1.0, 0.0)
        assert out.delta_epr == pytest.approx(0.95 * 2.0 / 3.0 + 0.1, rel=1e-12)
        assert out.corrections["photon_loss"] == 0.05

    def test_ordering_system_terms_inside(self):
        budget = LossBudget(eps_mismatch=0.01, photon_loss=0.1, gamma_m_tau=1e-4, n_th=500.0)
        rep = report_for(2.0 / 3.0)
        out = apply_budget(rep, budget, 1.0, 30.0)
        expected = 0.9 * (2.0 / 3.0 + 0.1024 + 2.0 * 1e-4 * 501.0) + 0.2
        assert out.delta_epr == pytest.approx(expected, rel=1e-12)

    def test_can_destroy_entanglement(self):
        budget = LossBudget(eps_mismatch=0.05, photon_loss=0.0)
        out = apply_budget(report_for(0.5), budget, 1.0, 30.0)
        assert out.delta_epr > 2.0
        assert not out.entangled

    def test_never_decreases_delta(self, rng):
        for _ in range(50):
            rep = report_for(float(rng.uniform(0.05, 1.9)))
            budget = LossBudget(
                eps_mismatch=float(rng.uniform(0.0, 0.02)),
                photon_loss=float(rng.uniform(0.0, 0.3)),
                gamma_m_tau=float(rng.uniform(0.0, 1e-5)),
                n_th=float(rng.uniform(0.0, 1000.0)),
            )
            out = apply_budget(rep, budget, 1.0, 10.0)
            assert out.delta_epr >= rep.delta_epr - 1e-14

    def test_budget_validation(self):
        with pytest.raises(ValueError):
            LossBudget(photon_loss=1.2)
        with pytest.raises(ValueError):
            LossBudget(eps_mismatch=-0.1)
