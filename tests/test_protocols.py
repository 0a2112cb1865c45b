import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eprbus.gaussian import (
    GaussianState,
    InvalidChannelError,
    Provenance,
    atomic_mode,
    epr_forms,
    epr_variance,
    light_mode,
    linear_form_moments,
    make_state,
    mechanical_mode,
)
from eprbus.iomaps import COS_MODE, SIN_MODE, ProtocolParams, qnd_bigstep
from eprbus.protocols import (
    FeedbackConfig,
    TeleportConfig,
    gaussian_overlap_fidelity,
    optimal_gain,
    predict_epr_variance,
    predicted_report,
    run_epr_generation,
    teleport,
    verify_epr,
)
from eprbus.protocols import _feedback_ensemble

M = mechanical_mode("m")
A = atomic_mode("a")


def system_state(n_i: float = 0.0) -> GaussianState:
    return make_state([(M, n_i, (0.0, 0.0)), (A, 0.0, (0.0, 0.0))])


class TestPrediction:
    def test_uncorrelated_ground_states(self):
        assert predict_epr_variance(0.0, 0.0) == pytest.approx(2.0)

    def test_reference_point(self):
        assert predict_epr_variance(1.0, 0.0) == pytest.approx(2.0 / 3.0)

    def test_hot_limit_bounded_by_inverse_kappa_squared(self):
        kappa = 1.3
        previous = 0.0
        for n_i in (1.0, 10.0, 1e3, 1e6, 1e9):
            value = predict_epr_variance(kappa, n_i)
            assert previous < value < 1.0 / kappa**2
            previous = value

    def test_monotonicity(self):
        kappas = np.linspace(0.1, 5.0, 25)
        deltas = [predict_epr_variance(k, 17.0) for k in kappas]
        assert all(a > b for a, b in zip(deltas, deltas[1:]))
        occupations = np.linspace(0.0, 100.0, 25)
        deltas = [predict_epr_variance(0.7, n) for n in occupations]
        assert all(a < b for a, b in zip(deltas, deltas[1:]))

    def test_threshold_identity(self):
        for kappa in (0.1, 0.5, 1 / math.sqrt(2), 0.8, 2.0):
            for n_i in (0.0, 1.0, 30.0, 1e4):
                entangled = predict_epr_variance(kappa, n_i) < 2.0
                assert entangled == (1.0 / (1.0 + n_i) + 2.0 * kappa**2 > 1.0)

    @pytest.mark.parametrize(
        "kappa, n_i, name",
        [(math.nan, 0.0, "kappa"), (1.0, math.nan, "n_i"), (1.0, math.inf, "n_i")],
    )
    def test_non_finite_input_named(self, kappa, n_i, name):
        with pytest.raises(ValueError, match=f"^{name} must be finite$"):
            predict_epr_variance(kappa, n_i)

    def test_predicted_report(self):
        rep = predicted_report(1.0, 0.0)
        assert rep.provenance is Provenance.PREDICTED
        assert rep.var_xsum == pytest.approx(1.0 / 3.0)


class TestOptimalGain:
    def test_reference_point(self):
        assert optimal_gain(1.0, 0.0) == pytest.approx(2.0 / 3.0)

    def test_large_kappa_limit(self):
        kappa = 200.0
        assert optimal_gain(kappa, 0.0) == pytest.approx(1.0 / kappa, rel=1e-4)

    def test_variance_at_optimum_matches_prediction(self, rng):
        # per-quadrature feedback variance vs the closed form, exact algebra
        for _ in range(200):
            kappa = float(rng.uniform(0.01, 10.0))
            n_i = float(rng.uniform(0.0, 1.0e4))
            v = 1.0 + n_i
            g = optimal_gain(kappa, n_i)
            variance = (1.0 - g * kappa) ** 2 * v + g**2 / 2.0
            assert variance == pytest.approx(
                predict_epr_variance(kappa, n_i) / 2.0, rel=1e-10
            )

    def test_kappa_zero_is_an_error(self):
        with pytest.raises(ValueError, match="kappa"):
            optimal_gain(0.0, 3.0)


class TestRunEprGeneration:
    def test_conditional_reference_point(self):
        state, report, records = run_epr_generation(
            system_state(), ProtocolParams.dimensionless(1.0), FeedbackConfig.conditional()
        )
        assert report.delta_epr == pytest.approx(2.0 / 3.0, abs=1e-12)
        assert report.entangled
        assert state.n_modes == 2
        assert records[0].outcome == 0.0

    def test_conditional_matches_prediction_on_grid(self):
        for kappa in (0.25, 1.0, 5.0):
            for n_i in (0.0, 30.0, 1e4):
                _, report, _ = run_epr_generation(
                    system_state(n_i),
                    ProtocolParams.dimensionless(kappa, n_i),
                    FeedbackConfig.conditional(),
                )
                assert report.delta_epr == pytest.approx(
                    predict_epr_variance(kappa, n_i), rel=1e-10
                )

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(
        kappa=st.floats(0.05, 4.0),
        n_i=st.one_of(st.just(0.0), st.floats(-3.0, 6.0).map(lambda e: 10.0**e)),
        n_atom=st.floats(0.0, 3.0),
        displacement=st.tuples(*[st.floats(-3.0, 3.0)] * 4),
        eta_light=st.one_of(st.just(1.0), st.floats(0.2, 1.0)),
        eta_det=st.one_of(st.just(1.0), st.floats(0.2, 1.0)),
        outcomes=st.tuples(st.floats(-5.0, 5.0), st.floats(-5.0, 5.0)),
    )
    def test_optimal_feedback_equals_conditioning(
        self, kappa, n_i, n_atom, displacement, eta_light, eta_det, outcomes
    ):
        initial = make_state([(M, n_i, displacement[:2]), (A, n_atom, displacement[2:])])
        params = ProtocolParams.dimensionless(kappa, n_i, eta_light=eta_light, eta_det=eta_det)
        _, conditional, _ = run_epr_generation(
            initial, params, FeedbackConfig.conditional(), outcomes=outcomes
        )
        _, ensemble, _ = run_epr_generation(
            initial, params, FeedbackConfig.optimal(), outcomes=outcomes
        )
        # the two routes cancel terms of order kappa^2 n_i differently: over
        # 6,000 random draws they differed by at most 9e-14 (1 + kappa^2 n_i)
        # (6e-9 relative); the bound leaves a factor of 11
        bound = 1e-12 * (1.0 + kappa**2 * n_i)
        assert abs(ensemble.var_xsum - conditional.var_xsum) <= bound
        assert abs(ensemble.var_pdiff - conditional.var_pdiff) <= bound

    def test_zero_gain_feedback_leaves_epr_variance_alone(self):
        n_i = 4.0
        _, report, _ = run_epr_generation(
            system_state(n_i),
            ProtocolParams.dimensionless(1.0, n_i),
            FeedbackConfig.with_gain(0.0),
            outcomes=(0.7, 0.7),
        )
        assert report.delta_epr == pytest.approx(2.0 * (1.0 + n_i), rel=1e-12)
        pulse = qnd_bigstep(system_state(n_i), ProtocolParams.dimensionless(1.0, n_i))
        ensemble = _feedback_ensemble(pulse, 0.0, 0.0)
        block = linear_form_moments(ensemble, epr_forms(ensemble.dim, 0, 1))[1]
        assert np.allclose(np.diag(block), 1.0 + n_i, atol=1e-12)

    @pytest.mark.parametrize(
        "fb", [FeedbackConfig.conditional(), FeedbackConfig.optimal()], ids=["conditional", "optimal"]
    )
    def test_outcomes_may_be_an_array(self, fb):
        params = ProtocolParams.dimensionless(1.0, 3.0)
        as_tuple = run_epr_generation(system_state(3.0), params, fb, outcomes=(0.9, -0.3))
        as_array = run_epr_generation(
            system_state(3.0), params, fb, outcomes=np.array([0.9, -0.3])
        )
        assert np.array_equal(as_array[0].mean, as_tuple[0].mean)
        assert np.array_equal(as_array[0].cov, as_tuple[0].cov)
        assert as_array[1] == as_tuple[1]
        assert as_array[2] == as_tuple[2]

    def test_feedback_ensemble_is_the_traced_feedback_map(self, rng):
        # reference: the joint displaced by the record, then the light traced out
        for _ in range(50):
            n_i = float(rng.uniform(0.0, 100.0))
            params = ProtocolParams.dimensionless(
                float(rng.uniform(0.1, 3.0)), n_i, eta_det=float(rng.uniform(0.3, 1.0))
            )
            gain_cos, gain_sin = rng.uniform(0.0, 2.0, size=2)
            pulse = qnd_bigstep(system_state(n_i), params)
            joint = pulse.joint
            s = np.eye(joint.dim)
            s[joint.x_index(A), joint.p_index(COS_MODE)] = -gain_cos
            s[joint.p_index(A), joint.p_index(SIN_MODE)] = +gain_sin
            keep = [joint.x_index(M), joint.p_index(M), joint.x_index(A), joint.p_index(A)]
            mean = (s @ joint.mean)[keep]
            cov = (s @ joint.cov @ s.T)[np.ix_(keep, keep)]
            ensemble = _feedback_ensemble(pulse, gain_cos, gain_sin)
            assert ensemble.modes == (M, A)
            np.testing.assert_allclose(ensemble.mean, mean, rtol=0.0, atol=1e-12)
            np.testing.assert_allclose(ensemble.cov, cov, rtol=1e-12, atol=1e-12)

    def test_feedback_requires_outcomes(self):
        with pytest.raises(ValueError, match="outcomes"):
            run_epr_generation(
                system_state(), ProtocolParams.dimensionless(1.0), FeedbackConfig.optimal()
            )

    def test_sampled_feedback_run_is_seeded(self):
        params = ProtocolParams.dimensionless(1.0)
        out = []
        for _ in range(2):
            rng = np.random.default_rng(99)
            state, _, records = run_epr_generation(
                system_state(), params, FeedbackConfig.optimal(), rng=rng
            )
            out.append((records[0].outcome, records[1].outcome, state.mean.copy()))
        assert out[0][0] == out[1][0]
        assert np.array_equal(out[0][2], out[1][2])

    def test_single_run_state_mean_tracks_record(self):
        # at optimal gain the conditional mean of X_m + X_a is cancelled
        params = ProtocolParams.dimensionless(1.0)
        state, _, records = run_epr_generation(
            system_state(), params, FeedbackConfig.optimal(), outcomes=(0.9, -0.3)
        )
        xsum_mean = state.mean[state.x_index(M)] + state.mean[state.x_index(A)]
        assert xsum_mean == pytest.approx(0.0, abs=1e-12)

    def test_feedback_takes_one_pulse(self):
        # each pulse taken below Omega*tau = 50 warns once
        params = ProtocolParams.dimensionless(1.0, larmor_periods=1)
        with pytest.warns(UserWarning, match="below 50") as caught:
            run_epr_generation(
                system_state(), params, FeedbackConfig.optimal(), outcomes=(0.0, 0.0)
            )
        assert len(caught) == 1

    def test_detection_loss_reduces_effective_strength(self):
        eta = 0.9
        params = ProtocolParams.dimensionless(1.0, eta_det=eta)
        _, report, _ = run_epr_generation(
            system_state(), params, FeedbackConfig.conditional()
        )
        assert report.delta_epr == pytest.approx(2.0 / (1.0 + 2.0 * eta), rel=1e-12)


class TestVerifyEpr:
    def test_known_input_round_trip(self):
        report, post = verify_epr(system_state(), ProtocolParams.dimensionless(1.0))
        assert report.delta_epr == pytest.approx(2.0, abs=1e-12)
        assert report.provenance is Provenance.VERIFICATION_READOUT

    def test_verification_of_generated_state(self):
        params = ProtocolParams.dimensionless(1.0)
        state, generated, _ = run_epr_generation(
            system_state(), params, FeedbackConfig.conditional()
        )
        inferred, post = verify_epr(state, params)
        assert inferred.delta_epr == pytest.approx(generated.delta_epr, abs=1e-10)
        # the verification pulse squeezes further
        post_report = epr_variance(post, M, A)
        assert post_report.delta_epr < generated.delta_epr

    def test_finite_shot_estimator(self):
        params = ProtocolParams.dimensionless(1.0)
        state, generated, _ = run_epr_generation(
            system_state(), params, FeedbackConfig.conditional()
        )
        rng = np.random.default_rng(5)
        small, _ = verify_epr(state, params, shots=2000, rng=rng)
        assert small.stderr is not None
        assert small.delta_epr == pytest.approx(generated.delta_epr, abs=6 * small.stderr)
        rng = np.random.default_rng(5)
        large, _ = verify_epr(state, params, shots=8000, rng=rng)
        assert large.stderr == pytest.approx(small.stderr / 2.0, rel=0.15)

    def test_exact_inference_never_negative(self, rng):
        for _ in range(10):
            n_i = float(rng.exponential(5.0))
            kappa = float(rng.uniform(0.1, 3.0))
            report, _ = verify_epr(
                system_state(n_i), ProtocolParams.dimensionless(kappa, n_i)
            )
            assert report.var_xsum >= 0.0
            assert report.var_pdiff >= 0.0

    @pytest.mark.parametrize("eta", [0.5, 0.8])
    @pytest.mark.parametrize("lossy", ["eta_light", "eta_det"])
    @pytest.mark.parametrize("conditioned", [False, True], ids=["product", "conditioned"])
    def test_inference_undoes_light_loss(self, eta, lossy, conditioned):
        params = ProtocolParams.dimensionless(1.3, 4.0, **{lossy: eta})
        state = system_state(4.0)
        if conditioned:
            state, _, _ = run_epr_generation(state, params, FeedbackConfig.conditional())
        inferred, _ = verify_epr(state, params)
        actual = epr_variance(state, M, A)
        assert inferred.var_xsum == pytest.approx(actual.var_xsum, abs=1e-12)
        assert inferred.var_pdiff == pytest.approx(actual.var_pdiff, abs=1e-12)

    @pytest.mark.parametrize(
        "params",
        [ProtocolParams.dimensionless(0.0), ProtocolParams.dimensionless(1.0, eta_det=0.0)],
        ids=["kappa", "eta"],
    )
    def test_no_signal_rejected(self, params):
        with pytest.raises(ValueError, match="eta_light \\* eta_det \\* kappa > 0"):
            verify_epr(system_state(), params)


class TestOneCheckPerPulse:
    """The pulse checks the uncertainty relation once, on its map's output,
    and a pulse with its readout conditioning wraps two states and settles
    three covariances."""

    ETAS = [1.0, 0.7]

    @staticmethod
    def unphysical() -> GaussianState:
        # Var(X_m) Var(P_m) = 1/100 < 1/4
        cov = np.diag([0.1, 0.1, 0.5, 0.5])
        return GaussianState._wrap((M, A), np.zeros(4), cov)

    @pytest.mark.parametrize("eta", ETAS)
    @pytest.mark.parametrize(
        "run",
        [
            lambda state, params: qnd_bigstep(state, params),
            lambda state, params: run_epr_generation(state, params, FeedbackConfig.conditional()),
            lambda state, params: verify_epr(state, params),
        ],
        ids=["qnd_bigstep", "run_epr_generation", "verify_epr"],
    )
    def test_unphysical_input_fails_at_the_pulse(self, run, eta, state_counts):
        params = ProtocolParams.dimensionless(1.0, eta_det=eta)
        state = self.unphysical()
        with pytest.raises(InvalidChannelError, match="uncertainty relation violated"):
            run(state, params)
        assert state_counts["checks"] == 1

    @pytest.mark.parametrize("eta", ETAS)
    @pytest.mark.parametrize(
        "run",
        [
            lambda state, params: run_epr_generation(state, params, FeedbackConfig.conditional()),
            lambda state, params: run_epr_generation(
                state, params, FeedbackConfig.conditional(), rng=np.random.default_rng(3)
            ),
            lambda state, params: verify_epr(state, params),
            lambda state, params: verify_epr(
                state, params, shots=10, rng=np.random.default_rng(3)
            ),
        ],
        ids=["conditional", "conditional-sampled", "verify", "verify-shots"],
    )
    def test_two_states_and_one_check(self, run, eta, state_counts):
        state = system_state(3.0)
        params = ProtocolParams.dimensionless(1.2, 3.0, eta_light=eta, eta_det=eta)
        state_counts.update(wrapped=0)
        run(state, params)
        assert state_counts == {"checked": 0, "wrapped": 2, "settles": 3, "checks": 1}


HOT = [(n_i, kappa) for n_i in (1e8, 1e9, 1e10) for kappa in (0.5, 1.0, 3.0)]


class TestHotResonator:
    """Resonators far above their ground state (a 60 kHz one holds about 1e8
    phonons at room temperature) run: the uncertainty check allows roundoff
    in proportion to the largest covariance entry."""

    @pytest.mark.parametrize("n_i, kappa", HOT)
    def test_conditional(self, n_i, kappa):
        params = ProtocolParams.dimensionless(kappa, n_i)
        _, report, _ = run_epr_generation(system_state(n_i), params, FeedbackConfig.conditional())
        assert report.delta_epr == pytest.approx(predict_epr_variance(kappa, n_i), rel=1e-5)

    @pytest.mark.parametrize("n_i, kappa", HOT)
    def test_optimal_feedback(self, n_i, kappa):
        params = ProtocolParams.dimensionless(kappa, n_i)
        _, report, _ = run_epr_generation(
            system_state(n_i), params, FeedbackConfig.optimal(), outcomes=(0.3, -0.2)
        )
        # the ensemble's linear forms cancel terms of order kappa^2 n_i: at
        # n_i = 1e10 and kappa = 3 that leaves 4e-5 of roundoff
        assert report.delta_epr == pytest.approx(predict_epr_variance(kappa, n_i), rel=1e-4)

    @pytest.mark.parametrize("n_i, kappa", HOT)
    def test_verify(self, n_i, kappa):
        report, _ = verify_epr(system_state(n_i), ProtocolParams.dimensionless(kappa, n_i))
        assert report.delta_epr == pytest.approx(2.0 * (1.0 + n_i), rel=1e-5)

    @pytest.mark.parametrize("n_i, kappa", HOT)
    def test_finite_teleport(self, n_i, kappa):
        # with kappa_qnd * gain = 1 each output quadrature carries the
        # resource's EPR variance, the input's 1/2 and the gain's g^2 / 2
        gain = 0.125
        _, fidelity = teleport(
            system_state(n_i),
            TeleportConfig(kappa_qnd=1.0 / gain, bell_gain=gain),
        )
        assert fidelity == pytest.approx(1.0 / (n_i + 2.0 + gain**2 / 2.0), rel=1e-5)

    def test_pulse_refuses_entries_roundoff_would_swamp(self):
        n_i = 1e13
        with pytest.raises(InvalidChannelError, match="roundoff would swamp the vacuum noise"):
            qnd_bigstep(system_state(n_i), ProtocolParams.dimensionless(1.0, n_i))


class TestTeleport:
    def test_asymptotic_reference_fidelities(self):
        params = ProtocolParams.dimensionless(1.0, 850.0)
        state, _, _ = run_epr_generation(
            system_state(850.0), params, FeedbackConfig.conditional()
        )
        final, fidelity = teleport(state, TeleportConfig(asymptotic=True))
        assert fidelity == pytest.approx(2.0 / 3.0, rel=0.01)
        assert final.cov[0, 0] - 0.5 == pytest.approx(0.5, rel=0.01)  # added noise

    def test_asymptotic_ground_state_resource(self):
        params = ProtocolParams.dimensionless(1.0)
        state, _, _ = run_epr_generation(system_state(), params, FeedbackConfig.conditional())
        final, fidelity = teleport(state, TeleportConfig(asymptotic=True))
        assert fidelity == pytest.approx(0.75, abs=1e-10)

    def test_perfect_resource_gives_unit_fidelity(self):
        r = 5.0
        c, s = math.cosh(2 * r) / 2, math.sinh(2 * r) / 2
        cov = np.array(
            [
                [c, 0.0, -s, 0.0],
                [0.0, c, 0.0, s],
                [-s, 0.0, c, 0.0],
                [0.0, s, 0.0, c],
            ]
        )
        resource = GaussianState((M, A), np.zeros(4), cov)
        # cosh/sinh cancellation leaves ~1e-8 relative accuracy at r = 5
        assert epr_variance(resource, M, A).delta_epr == pytest.approx(
            2.0 * math.exp(-2 * r), rel=1e-6
        )
        _, fidelity = teleport(resource, TeleportConfig(asymptotic=True))
        assert fidelity > 0.999

    def test_mean_transfer_exact_in_asymptotic_mode(self):
        params = ProtocolParams.dimensionless(1.0, 30.0)
        state, _, _ = run_epr_generation(
            system_state(30.0), params, FeedbackConfig.conditional()
        )
        cfg = TeleportConfig(input_mean=(0.31, -0.77), asymptotic=True)
        final, _ = teleport(state, cfg)
        assert final.mean[0] == pytest.approx(0.31, abs=1e-12)
        assert final.mean[1] == pytest.approx(-0.77, abs=1e-12)

    def test_finite_strength_converges_quadratically(self):
        params = ProtocolParams.dimensionless(1.0)
        state, _, _ = run_epr_generation(system_state(), params, FeedbackConfig.conditional())
        _, f_asym = teleport(state, TeleportConfig(asymptotic=True))
        kappas = [4.0, 8.0, 16.0, 32.0]
        gaps = []
        for kq in kappas:
            _, f = teleport(
                state,
                TeleportConfig(kappa_qnd=kq, bell_gain=1.0 / kq, input_mean=(0.2, 0.1)),
            )
            gaps.append(abs(f - f_asym))
        slope = np.polyfit(np.log(kappas), np.log(gaps), 1)[0]
        assert slope == pytest.approx(-2.0, abs=0.2)

    def test_invalid_config(self):
        with pytest.raises(ValueError, match="kappa_qnd"):
            TeleportConfig(kappa_qnd=0.0, bell_gain=1.0)

    @pytest.mark.parametrize("asymptotic", [False, True])
    @pytest.mark.parametrize(
        "name, settings",
        [
            ("kappa_qnd", {"kappa_qnd": math.nan}),
            ("kappa_qnd", {"kappa_qnd": math.inf}),
            ("bell_gain", {"bell_gain": math.nan}),
            ("bell_gain", {"bell_gain": -math.inf}),
            ("input_mean", {"input_mean": (0.0, math.inf)}),
            ("input_mean", {"input_mean": (math.nan, 0.0)}),
        ],
    )
    def test_non_finite_field_named(self, asymptotic, name, settings):
        # a NaN gain used to reach the pulse and fail there naming no field
        config = {"kappa_qnd": 2.0, "bell_gain": 0.5, "asymptotic": asymptotic, **settings}
        with pytest.raises(ValueError, match=f"^{name} must be finite$"):
            TeleportConfig(**config)

    def test_reserved_mode_name(self):
        bad = make_state(
            [
                (M, 0.0, (0.0, 0.0)),
                (atomic_mode("input"), 0.0, (0.0, 0.0)),
            ]
        )
        with pytest.raises(ValueError, match="reserved"):
            teleport(bad, TeleportConfig(asymptotic=True))


@pytest.mark.parametrize(
    "run",
    [
        lambda state, params: run_epr_generation(state, params, FeedbackConfig.conditional()),
        lambda state, params: verify_epr(state, params),
        lambda state, params: teleport(state, TeleportConfig(asymptotic=True)),
    ],
    ids=["run_epr_generation", "verify_epr", "teleport"],
)
def test_protocols_need_an_atomic_mode(run):
    no_atoms = make_state([(M, 0.0, (0.0, 0.0)), (light_mode("l"), 0.0, (0.0, 0.0))])
    with pytest.raises(ValueError, match="exactly one atomic mode to infer the readout roles"):
        run(no_atoms, ProtocolParams.dimensionless(1.0))


class TestFidelityHelper:
    def test_identical_coherent_states(self):
        eye = 0.5 * np.eye(2)
        assert gaussian_overlap_fidelity([0.3, 0.1], eye, [0.3, 0.1], eye) == pytest.approx(1.0)

    def test_displaced_coherent_overlap(self):
        eye = 0.5 * np.eye(2)
        delta = np.array([0.9, -0.4])
        expected = math.exp(-0.5 * float(delta @ delta))
        assert gaussian_overlap_fidelity(delta, eye, [0.0, 0.0], eye) == pytest.approx(expected)
