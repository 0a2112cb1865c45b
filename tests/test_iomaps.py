import math

import numpy as np
import pytest

from eprbus.gaussian import (
    GaussianState,
    atomic_mode,
    condition_on_homodyne,
    epr_variance,
    loss_channel,
    make_state,
    mechanical_mode,
    symplectic_form,
    vacuum_state,
)
from eprbus.iomaps import (
    COS_MODE,
    SIN_MODE,
    MatchingError,
    ProtocolParams,
    condition_on_readout,
    is_symplectic,
    qnd_bigstep,
)

M = mechanical_mode("m")
A = atomic_mode("a")

HALF_PI = math.pi / 2


def system_vacuum(n_i: float = 0.0) -> GaussianState:
    return make_state([(M, n_i, (0.0, 0.0)), (A, 0.0, (0.0, 0.0))])


class TestProtocolParams:
    def test_dimensionless_is_matched(self):
        params = ProtocolParams.dimensionless(1.3, 12.0)
        assert params.matching_residual() == pytest.approx(0.0, abs=1e-14)
        assert params.omega_tau == pytest.approx(2 * math.pi * 64)

    def test_validation(self):
        with pytest.raises(ValueError, match="kappa"):
            ProtocolParams(kappa=-1.0)
        with pytest.raises(ValueError, match="eta_det"):
            ProtocolParams(kappa=1.0, eta_det=1.5)

    @pytest.mark.parametrize(
        "name", ["kappa", "n_i", "g", "Omega", "tau", "eps_mismatch", "eta_det"]
    )
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_field_named(self, name, value):
        # nan slips through every range check (nan < 0 is False)
        with pytest.raises(ValueError, match=f"^{name} must be finite$"):
            ProtocolParams(**{"kappa": 1.0, name: value})

    def test_degenerate_matching_is_nan(self):
        params = ProtocolParams(kappa=0.0, g=0.0)
        assert math.isnan(params.matching_residual())


class TestCavityIOMap:
    """The cavity half of the cascade, ``p_out = -p_in - g sqrt(2/gamma_c) X_m``.

    Its strength is the light-side ``kappa_optical = g sqrt(tau/gamma_c)``,
    and it reaches the readout through :func:`qnd_bigstep`.
    """

    def test_decoupled_is_pure_reflection(self):
        # g = 0 (and so kappa = 0 by matching): the light carries nothing of
        # the system out, and the system means pass through untouched
        params = ProtocolParams(kappa=0.0, g=0.0, gamma_c=2.0, Omega=2 * math.pi * 64)
        state = make_state([(M, 3.0, (1.5, -0.5)), (A, 0.0, (0.7, 0.2))])
        joint = qnd_bigstep(state, params).joint
        assert joint.mean[joint.p_index(COS_MODE)] == 0.0
        assert joint.mean[joint.p_index(SIN_MODE)] == 0.0
        assert joint.mean[[joint.x_index(M), joint.p_index(M)]] == pytest.approx([1.5, -0.5])

    def test_mean_substitution(self):
        # <X_m> = 2 with the atoms at rest shifts the cos readout by
        # kappa_optical <X_m>
        params = ProtocolParams.dimensionless(0.5)
        state = make_state([(M, 100.0, (2.0, 0.0)), (A, 0.0, (0.0, 0.0))])
        joint = qnd_bigstep(state, params).joint
        assert params.kappa_optical == pytest.approx(0.5, rel=1e-12)
        assert joint.mean[joint.p_index(COS_MODE)] == pytest.approx(0.5 * 2.0)
        assert joint.mean[joint.p_index(SIN_MODE)] == pytest.approx(0.0)

    def test_invalid_gamma(self):
        with pytest.raises(ValueError, match="gamma_c"):
            ProtocolParams(kappa=1.0, g=1.0, gamma_c=0.0)


class TestCascadeIOMap:
    """The matched cascade, ``p_out_cos = p_in_cos + kappa (X_m + X_a)`` and
    ``p_out_sin = p_in_sin + kappa (P_m - P_a)``, on the readout means."""

    def readout(self, kappa: float, mech: tuple, atom: tuple) -> tuple[float, float]:
        state = make_state([(M, 0.0, mech), (A, 0.0, atom)])
        joint = qnd_bigstep(state, ProtocolParams.dimensionless(kappa)).joint
        return joint.mean[joint.p_index(COS_MODE)], joint.mean[joint.p_index(SIN_MODE)]

    def test_epr_symmetric_cancellation(self):
        # X_m + X_a = 0 and P_m - P_a = 0: both readouts stay at zero
        cos, sin = self.readout(1.0, (1.0, 0.3), (-1.0, 0.3))
        assert cos == pytest.approx(0.0, abs=1e-14)
        assert sin == pytest.approx(0.0, abs=1e-14)

    def test_equal_means_shift(self):
        cos, sin = self.readout(1.0, (1.0, 1.0), (1.0, -1.0))
        assert cos == pytest.approx(2.0)
        assert sin == pytest.approx(2.0)

    def test_mismatch_rejected(self):
        params = ProtocolParams(kappa=1.0, g=0.9 * math.sqrt(1e6), gamma_c=1e6, tau=1.0)
        with pytest.raises(MatchingError):
            qnd_bigstep(system_vacuum(), params)


class TestQndBigstep:
    def test_kappa_zero_leaves_everything_alone(self):
        pulse = qnd_bigstep(system_vacuum(3.0), ProtocolParams.dimensionless(0.0))
        joint = pulse.joint
        assert np.allclose(
            joint.cov,
            np.diag([3.5, 3.5, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5]),
        )

    def test_readout_variance(self):
        pulse = qnd_bigstep(system_vacuum(), ProtocolParams.dimensionless(1.0))
        joint = pulse.joint
        pc = joint.p_index(COS_MODE)
        assert joint.cov[pc, pc] == pytest.approx(1.5)

    def test_epr_observables_conserved_exactly(self):
        for n_i in (0.0, 7.0, 850.0):
            state = system_vacuum(n_i)
            before = epr_variance(state, M, A)
            pulse = qnd_bigstep(state, ProtocolParams.dimensionless(1.7, n_i))
            after = epr_variance(pulse.joint, M, A)
            assert after.var_xsum == pytest.approx(before.var_xsum, abs=1e-12)
            assert after.var_pdiff == pytest.approx(before.var_pdiff, abs=1e-12)

    def test_readout_linearity(self, rng):
        for _ in range(5):
            n_i = float(rng.exponential(20.0))
            kappa = float(rng.uniform(0.2, 3.0))
            pulse = qnd_bigstep(system_vacuum(n_i), ProtocolParams.dimensionless(kappa, n_i))
            joint = pulse.joint
            pc = joint.p_index(COS_MODE)
            xm, xa = joint.x_index(M), joint.x_index(A)
            cov_meter_signal = (
                joint.cov[pc, xm] + joint.cov[pc, xa]
            )
            var_signal = (
                joint.cov[xm, xm] + joint.cov[xa, xa] + 2 * joint.cov[xm, xa]
            )
            assert cov_meter_signal == pytest.approx(kappa * var_signal, rel=1e-12)

    def test_cos_sin_symmetry(self):
        # swapping the roles of the two channels with (X+X) <-> (P-P) leaves
        # the statistics invariant: compare the quadrature blocks
        pulse = qnd_bigstep(system_vacuum(4.0), ProtocolParams.dimensionless(0.8, 4.0))
        joint = pulse.joint
        pc, ps = joint.p_index(COS_MODE), joint.p_index(SIN_MODE)
        xm, pm = joint.x_index(M), joint.p_index(M)
        xa, pa = joint.x_index(A), joint.p_index(A)
        assert joint.cov[pc, pc] == pytest.approx(joint.cov[ps, ps], rel=1e-12)
        assert joint.cov[pc, xm] == pytest.approx(joint.cov[ps, pm], rel=1e-12)
        assert joint.cov[pc, xa] == pytest.approx(-joint.cov[ps, pa], rel=1e-12)

    def test_back_action_on_orthogonal_combinations(self):
        kappa = 1.3
        pulse = qnd_bigstep(system_vacuum(), ProtocolParams.dimensionless(kappa))
        joint = pulse.joint
        xm, xa = joint.x_index(M), joint.x_index(A)
        pm, pa = joint.p_index(M), joint.p_index(A)
        var_xdiff = joint.cov[xm, xm] + joint.cov[xa, xa] - 2 * joint.cov[xm, xa]
        var_psum = joint.cov[pm, pm] + joint.cov[pa, pa] + 2 * joint.cov[pm, pa]
        assert var_xdiff == pytest.approx(1.0 + 2.0 * kappa**2, rel=1e-12)
        assert var_psum == pytest.approx(1.0 + 2.0 * kappa**2, rel=1e-12)

    def test_map_is_symplectic_and_preserves_purity(self):
        kappa = 0.9
        pulse = qnd_bigstep(system_vacuum(), ProtocolParams.dimensionless(kappa))
        # vacuum in, symplectic map: output stays pure, det(2 cov) = 1
        assert np.linalg.det(2.0 * pulse.joint.cov) == pytest.approx(1.0, rel=1e-10)

    def test_composition_information_additivity(self):
        kappa1, kappa2 = 0.8, 1.1
        kappa_eff = math.sqrt(kappa1**2 + kappa2**2)
        n_i = 5.0

        def conditional_delta(kappas) -> float:
            state = system_vacuum(n_i)
            for k in kappas:
                pulse = qnd_bigstep(state, ProtocolParams.dimensionless(k, n_i))
                state = pulse.joint
                state, _ = condition_on_homodyne(state, COS_MODE, HALF_PI, 0.0)
                state, _ = condition_on_homodyne(state, SIN_MODE, HALF_PI, 0.0)
            return epr_variance(state, M, A).delta_epr

        assert conditional_delta([kappa1, kappa2]) == pytest.approx(
            conditional_delta([kappa_eff]), rel=1e-12
        )

    def test_explicit_roles_for_two_ensembles(self):
        a2 = atomic_mode("a2")
        state = make_state([(atomic_mode("a"), 0.0, (0.0, 0.0)), (a2, 0.0, (1.0, 2.0))])
        pulse = qnd_bigstep(
            state,
            ProtocolParams.dimensionless(1.0),
            positive_mass=a2,
            negative_mass="a",
        )
        joint = pulse.joint
        assert joint.mean[joint.p_index(COS_MODE)] == pytest.approx(1.0)  # kappa <X_a2 + X_a>
        assert joint.mean[joint.p_index(SIN_MODE)] == pytest.approx(2.0)  # kappa <P_a2 - P_a>

    def test_ambiguous_roles_rejected(self):
        state = vacuum_state([atomic_mode("a"), atomic_mode("b")])
        with pytest.raises(ValueError, match="exactly one"):
            qnd_bigstep(state, ProtocolParams.dimensionless(1.0))

    def test_omega_tau_warning(self):
        params = ProtocolParams.dimensionless(1.0, larmor_periods=2)
        with pytest.warns(UserWarning, match="Omega"):
            qnd_bigstep(system_vacuum(), params)


@pytest.mark.parametrize("eta_light, eta_det", [(0.8, 0.9), (1.0, 0.5)])
def test_light_loss_on_both_temporal_modes(eta_light, eta_det):
    params = ProtocolParams.dimensionless(1.3, 2.0, eta_light=eta_light, eta_det=eta_det)
    state = make_state([(M, 2.0, (0.4, -0.2)), (A, 0.0, (0.1, 0.3))])
    lossy = qnd_bigstep(state, params).joint
    lossless = qnd_bigstep(state, ProtocolParams.dimensionless(1.3, 2.0)).joint
    expected = lossless
    for mode in (COS_MODE, SIN_MODE):
        expected = loss_channel(expected, mode, eta_light * eta_det)
    assert lossy.modes == expected.modes
    assert np.array_equal(lossy.mean, expected.mean)
    assert np.array_equal(lossy.cov, expected.cov)
    system = [lossy.x_index(M), lossy.p_index(M), lossy.x_index(A), lossy.p_index(A)]
    block = np.ix_(system, system)
    assert np.array_equal(lossy.cov[block], lossless.cov[block])


def test_unit_efficiency_gives_the_lossless_joint_unchanged():
    # from vacuum, the lossless pulse is a symplectic image: pure, (2 cov Omega)^2 = -1
    params = ProtocolParams.dimensionless(1.0, eta_light=1.0, eta_det=1.0)
    joint = qnd_bigstep(system_vacuum(), params).joint
    cov_omega = 2.0 * joint.cov @ symplectic_form(joint.n_modes)
    assert np.allclose(cov_omega @ cov_omega, -np.eye(joint.dim), atol=1e-12)
    p = joint.p_index(COS_MODE)
    assert joint.cov[p, p] == 1.5


class TestConditionOnReadout:
    def test_p_of_cos_then_p_of_sin(self):
        joint = qnd_bigstep(system_vacuum(2.0), ProtocolParams.dimensionless(1.3, 2.0)).joint
        state, records = condition_on_readout(joint, (0.3, -0.4))
        expected, rec_cos = condition_on_homodyne(joint, COS_MODE, HALF_PI, 0.3)
        expected, rec_sin = condition_on_homodyne(expected, SIN_MODE, HALF_PI, -0.4)
        assert state.modes == (M, A)
        assert np.array_equal(state.mean, expected.mean)
        assert np.array_equal(state.cov, expected.cov)
        assert records == (rec_cos, rec_sin)

    def test_default_outcomes_are_zero(self):
        joint = qnd_bigstep(system_vacuum(), ProtocolParams.dimensionless(1.0)).joint
        state, records = condition_on_readout(joint)
        assert [r.outcome for r in records] == [0.0, 0.0]
        assert np.array_equal(state.cov, condition_on_readout(joint, (0.0, 0.0))[0].cov)

    def test_sampled_in_readout_order(self):
        joint = qnd_bigstep(system_vacuum(), ProtocolParams.dimensionless(1.0)).joint
        _, records = condition_on_readout(joint, None, rng=np.random.default_rng(5))
        rng = np.random.default_rng(5)
        reduced, rec_cos = condition_on_homodyne(joint, COS_MODE, HALF_PI, "sample", rng=rng)
        _, rec_sin = condition_on_homodyne(reduced, SIN_MODE, HALF_PI, "sample", rng=rng)
        assert records == (rec_cos, rec_sin)

    def test_sampling_needs_an_rng(self):
        joint = qnd_bigstep(system_vacuum(), ProtocolParams.dimensionless(1.0)).joint
        with pytest.raises(ValueError, match="rng"):
            condition_on_readout(joint, None)


def test_is_symplectic_helper(rng):
    from conftest import random_symplectic

    assert is_symplectic(random_symplectic(3, rng))
    assert not is_symplectic(np.diag([2.0, 2.0]))
