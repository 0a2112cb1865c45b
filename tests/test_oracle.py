import io
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eprbus import oracle
from eprbus.gaussian import GaussianState, atomic_mode, make_state, mechanical_mode
from eprbus.iomaps import COS_MODE, SIN_MODE, ProtocolParams
from eprbus.oracle import (
    build_model,
    oracle_epr_after_measurement,
    propagate_moments,
)
from eprbus.protocols import FeedbackConfig, predict_epr_variance, run_epr_generation

#: Declared integration tolerance: halving dt moves no reported variance by
#: more than this (relative).
INTEGRATION_TOL = 1e-5
#: Agreement of two orderings of the same RK4 arithmetic, relative to the
#: largest covariance entry.
ROUTE_RTOL = 1e-10
#: Agreement of per-step output values (trajectory rows, conservation drift)
#: of two routes, relative.
PER_STEP_RTOL = 1e-12


def unit_pulse(kappa: float, n_i: float, periods: float, **extra) -> ProtocolParams:
    """Matched unit-length pulse over a possibly fractional number of periods."""
    omega = 2.0 * math.pi * periods
    gamma_c = 1e6
    return ProtocolParams(
        kappa=kappa,
        n_i=n_i,
        g=kappa * math.sqrt(gamma_c),
        gamma_c=gamma_c,
        omega_m=omega,
        Omega=omega,
        tau=1.0,
        **extra,
    )


def assert_same_moments(state, cov, mean) -> None:
    scale = np.abs(cov).max()
    np.testing.assert_allclose(state.cov, cov, rtol=ROUTE_RTOL, atol=ROUTE_RTOL * scale)
    np.testing.assert_allclose(state.mean, mean, rtol=ROUTE_RTOL, atol=ROUTE_RTOL * scale)


def step_through(model, initial=None):
    """A plain RK4 on ``(Sigma, mean)`` through every step of the grid.

    It shares no code with the oracle's kernel: ``dSigma/dt = A Sigma +
    Sigma A^T + b b^T`` and ``dmean/dt = A mean``, with the drift ``A`` and
    the noise columns ``b`` read straight off the model at each time.
    Returns the final state, the trajectory rows ``(t, var_xsum, var_pdiff,
    var_ypc, var_yps)`` of every step and the conservation drift, with the
    outputs written out by hand.
    """
    mean, cov, modes = oracle._initial_moments(model, initial)
    rows, conserved = [], []
    f_xsum, f_pdiff = np.eye(8)[0] + np.eye(8)[2], np.eye(8)[1] - np.eye(8)[3]

    def visit(k, s):
        rows.append((k * model.dt, s[0, 0] + s[2, 2] + 2 * s[0, 2],
                     s[1, 1] + s[3, 3] - 2 * s[1, 3], s[5, 5], s[7, 7]))
        # the EPR pair co-rotating with the Larmor phase is conserved
        phase = model.params.Omega * (k * model.dt)
        cos, sin = math.cos(phase), math.sin(phase)
        pair = (cos * f_xsum - sin * f_pdiff, sin * f_xsum + cos * f_pdiff)
        conserved.append([v @ s @ v for v in pair])

    def coefficients(t):
        b = model.noise_columns(t)
        return model.drift_matrix(t), b @ b.T

    def rates(drift_noise, s, m):
        a, d = drift_noise
        a_s = a @ s
        return a_s + a_s.T + d, a @ m

    h = model.dt
    start = coefficients(0.0)
    visit(0, cov)
    for k in range(model.n_steps):
        mid, end = coefficients(k * h + h / 2), coefficients((k + 1) * h)
        ds1, dm1 = rates(start, cov, mean)
        ds2, dm2 = rates(mid, cov + h / 2 * ds1, mean + h / 2 * dm1)
        ds3, dm3 = rates(mid, cov + h / 2 * ds2, mean + h / 2 * dm2)
        ds4, dm4 = rates(end, cov + h * ds3, mean + h * dm3)
        cov = cov + h / 6 * (ds1 + 2.0 * (ds2 + ds3) + ds4)
        mean = mean + h / 6 * (dm1 + 2.0 * (dm2 + dm3) + dm4)
        start = end
        visit(k + 1, cov)
    state = GaussianState._wrap((*modes, COS_MODE, SIN_MODE), mean, cov)
    conserved = np.array(conserved)
    drift = np.max(np.abs(conserved - conserved[0]), axis=0) / conserved[0]
    return state, rows, {"max_rel_drift_xsum": drift[0], "max_rel_drift_pdiff": drift[1]}


def spy_on_advance(monkeypatch) -> list:
    """Record ``(x.shape, k0, count)`` of every call of the oracle's RK4 kernel."""
    kernel, calls = oracle._advance, []

    def spy(model, basis, x, k0, count, forms=None):
        calls.append((x.shape, k0, count))
        return kernel(model, basis, x, k0, count, forms)

    monkeypatch.setattr(oracle, "_advance", spy)
    return calls


def stepped(model, initial=None):
    """The final state of the stepped route, taken directly."""
    return step_through(model, initial)[0]


def assert_same_per_step_output(model, initial=None):
    """Trajectory and drift of ``propagate_moments`` against the stepped kernel.

    Returns the stepped kernel's final state.
    """
    buffer = io.StringIO()
    state, info = propagate_moments(model, initial=initial, trajectory=buffer, return_info=True)
    reference, rows, drift = step_through(model, initial)
    assert_same_moments(state, reference.cov, reference.mean)
    lines = buffer.getvalue().splitlines()
    assert lines[0] == "t,var_xsum,var_pdiff,var_ypc,var_yps"
    assert len(lines) == model.n_steps + 1 + 1
    written = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    expected = np.array(rows)
    np.testing.assert_array_equal(written[:, 0], expected[:, 0])
    np.testing.assert_allclose(written[:, 1:], expected[:, 1:], rtol=PER_STEP_RTOL, atol=0.0)
    # the last row is the returned state at t = tau
    c = state.cov
    final = (c[0, 0] + c[2, 2] + 2 * c[0, 2], c[1, 1] + c[3, 3] - 2 * c[1, 3], c[5, 5], c[7, 7])
    assert written[-1, 0] == pytest.approx(model.params.tau, rel=1e-12)
    np.testing.assert_allclose(written[-1, 1:], final, rtol=PER_STEP_RTOL, atol=0.0)
    assert (info["n_steps"], info["dt"]) == (model.n_steps, model.dt)
    for name, value in drift.items():
        # the drift is itself relative: compare it absolutely
        assert abs(info[name] - value) <= PER_STEP_RTOL, name
    return reference


class TestBuildModel:
    def test_kappa_zero_structure(self):
        model = build_model(ProtocolParams.dimensionless(0.0))
        a = model.drift_matrix(0.123)
        # pure block-diagonal rotations: no readout coupling rows
        assert np.allclose(a[4:], 0.0)
        omega = model.params.Omega
        assert a[0, 1] == pytest.approx(omega)
        assert a[2, 3] == pytest.approx(-omega)  # negative-mass sign
        b = model.noise_columns(0.123)
        assert np.allclose((b @ b.T)[:4, :4], 0.0)  # only accumulator shot noise

    def test_matched_epr_combination_is_noise_free(self):
        model = build_model(ProtocolParams.dimensionless(1.3))
        for t in (0.0, 0.21, 0.77):
            b = model.noise_columns(t)
            d = b @ b.T
            phase = model.params.Omega * t
            cos, sin = math.cos(phase), math.sin(phase)
            v_sum = np.array([cos, -sin, cos, sin, 0, 0, 0, 0])
            v_diff = np.array([sin, cos, sin, -cos, 0, 0, 0, 0])
            assert v_sum @ d @ v_sum == pytest.approx(0.0, abs=1e-14)
            assert v_diff @ d @ v_diff == pytest.approx(0.0, abs=1e-14)

    def test_common_drive_is_perfectly_correlated(self):
        model = build_model(ProtocolParams.dimensionless(1.0))
        b = model.noise_columns(0.0)
        d = b @ b.T
        assert d[1, 3] == pytest.approx(math.sqrt(d[1, 1] * d[3, 3]), rel=1e-12)

    def test_damping_diffusion_convention(self):
        params = ProtocolParams.dimensionless(1.0, gamma_m=1e-4, n_th=830.0)
        model = build_model(params, damping=True)
        expected = 1e-4 * 831.0
        b, b0 = model.noise_columns(0.4), model.noise_columns(0.0)
        d = b @ b.T
        assert d[0, 0] == pytest.approx(expected, rel=1e-12)
        assert d[1, 1] - (b0 @ b0.T)[1, 1] == pytest.approx(0.0, abs=1e-15)
        a = model.drift_matrix(0.0)
        assert a[0, 0] == pytest.approx(-0.5e-4)

    def test_mismatch_splits_couplings(self):
        params = ProtocolParams.dimensionless(1.0, eps_mismatch=0.01)
        model = build_model(params, mismatch=True)
        assert model.kappa_mech == pytest.approx(1.01)
        assert model.kappa_atom == pytest.approx(0.99)
        eps = (model.kappa_mech - model.kappa_atom) / (model.kappa_mech + model.kappa_atom)
        assert eps == pytest.approx(0.01, rel=1e-12)

    def test_frequency_mismatch_rejected(self):
        params = ProtocolParams(kappa=1.0, g=1000.0, gamma_c=1e6, tau=1.0, Omega=400.0, omega_m=390.0)
        with pytest.raises(ValueError, match="omega_m == Omega"):
            build_model(params)

    def test_insufficient_resolution_rejected(self):
        with pytest.raises(ValueError, match="steps_per_period"):
            build_model(ProtocolParams.dimensionless(1.0), steps_per_period=50)


class TestPropagateMoments:
    def test_kappa_zero_system_untouched_accumulators_vacuum(self):
        state = propagate_moments(build_model(ProtocolParams.dimensionless(0.0, 3.0)))
        assert np.allclose(state.cov[:4, :4], np.diag([3.5, 3.5, 0.5, 0.5]), atol=1e-9)
        assert np.allclose(state.cov[4:, 4:], 0.5 * np.eye(4), atol=1e-9)

    def test_accumulator_variance_matches_bigstep(self):
        state = propagate_moments(build_model(ProtocolParams.dimensionless(1.0)))
        pc = state.p_index(COS_MODE)
        ps = state.p_index(SIN_MODE)
        assert state.cov[pc, pc] == pytest.approx(1.5, rel=0.02)
        assert state.cov[ps, ps] == pytest.approx(1.5, rel=0.02)

    def test_epr_variances_conserved_along_trajectory(self):
        _, info = propagate_moments(
            build_model(ProtocolParams.dimensionless(1.0, 30.0)), return_info=True
        )
        assert info["max_rel_drift_xsum"] < 1e-6
        assert info["max_rel_drift_pdiff"] < 1e-6

    def test_conserved_pair_rotates_with_the_larmor_phase(self):
        # Var(X_m + X_a) != Var(P_m - P_a) and the two correlate, so only the
        # pair rotated the right way round is conserved; what drift remains
        # is the RK4 phase error on this asymmetric state (about 3e-6)
        cov = np.diag([2.0, 1.0, 0.5, 0.5])
        cov[0, 1] = cov[1, 0] = 0.6  # squeezed, correlated mechanics
        initial = GaussianState((mechanical_mode("m"), atomic_mode("a")), np.zeros(4), cov)
        _, info = propagate_moments(
            build_model(ProtocolParams.dimensionless(1.0, larmor_periods=8)),
            initial=initial,
            return_info=True,
        )
        assert info["max_rel_drift_xsum"] < 1e-4
        assert info["max_rel_drift_pdiff"] < 1e-4

    def test_custom_initial_state(self):
        initial = make_state(
            [(mechanical_mode("osc"), 2.0, (0.3, 0.0)), (atomic_mode("spin"), 0.0, (0.0, 0.0))]
        )
        state = propagate_moments(build_model(ProtocolParams.dimensionless(0.0)), initial=initial)
        assert state.modes[0].name == "osc"
        # means rotate but keep their magnitude under free evolution
        assert np.hypot(state.mean[0], state.mean[1]) == pytest.approx(0.3, rel=1e-5)

    def test_initial_mode_order_is_free(self):
        mech, atom = mechanical_mode("osc"), atomic_mode("spin")
        cov = np.diag([2.0, 1.0, 0.5, 0.7])
        cov[0, 1] = cov[1, 0] = 0.2
        cov[0, 2] = cov[2, 0] = 0.1
        forward = GaussianState((mech, atom), [0.3, -0.1, 0.2, 0.4], cov)
        swap = [2, 3, 0, 1]
        backward = GaussianState((atom, mech), forward.mean[swap], cov[np.ix_(swap, swap)])
        model = build_model(ProtocolParams.dimensionless(1.2, 1.0, larmor_periods=8))
        expected = propagate_moments(model, initial=forward)
        state = propagate_moments(model, initial=backward)
        assert state.modes == expected.modes == (mech, atom, COS_MODE, SIN_MODE)
        assert np.array_equal(state.mean, expected.mean)
        assert np.array_equal(state.cov, expected.cov)

    def test_two_atomic_modes_refused(self):
        initial = make_state(
            [(atomic_mode("a1"), 0.0, (0.0, 0.0)), (atomic_mode("a2"), 0.0, (0.0, 0.0))]
        )
        model = build_model(ProtocolParams.dimensionless(1.0, larmor_periods=8))
        with pytest.raises(
            ValueError, match="exactly one mechanical mode to infer the readout roles, found 0"
        ):
            propagate_moments(model, initial=initial)

    def test_trajectory_dump(self):
        buffer = io.StringIO()
        propagate_moments(
            build_model(ProtocolParams.dimensionless(1.0)), trajectory=buffer
        )
        lines = buffer.getvalue().strip().splitlines()
        assert lines[0] == "t,var_xsum,var_pdiff,var_ypc,var_yps"
        first = [float(x) for x in lines[1].split(",")]
        last = [float(x) for x in lines[-1].split(",")]
        assert first[0] == 0.0 and last[0] == pytest.approx(1.0)
        assert first[1] == pytest.approx(1.0)  # Var(X_m + X_a) of two vacua
        assert last[1] == pytest.approx(1.0, rel=1e-6)

    def test_dt_halving_within_declared_tolerance(self):
        params = ProtocolParams.dimensionless(1.0, 30.0)
        coarse = propagate_moments(build_model(params, steps_per_period=200))
        fine = propagate_moments(build_model(params, steps_per_period=400))
        rel = np.abs(np.diag(coarse.cov) - np.diag(fine.cov)) / np.abs(np.diag(fine.cov))
        assert np.max(rel) < INTEGRATION_TOL


class TestOracleEPR:
    def test_reference_point(self):
        report = oracle_epr_after_measurement(build_model(ProtocolParams.dimensionless(1.0)))
        assert report.delta_epr == pytest.approx(2.0 / 3.0, rel=0.02)
        assert report.entangled
        assert report.provenance.value == "oracle"

    def test_hot_mechanical_mode(self):
        report = oracle_epr_after_measurement(
            build_model(ProtocolParams.dimensionless(1.0, 850.0))
        )
        assert report.delta_epr == pytest.approx(predict_epr_variance(1.0, 850.0), rel=0.02)

    def test_no_measurement_information_at_kappa_zero(self):
        report = oracle_epr_after_measurement(
            build_model(ProtocolParams.dimensionless(0.0, 4.0))
        )
        assert report.delta_epr == pytest.approx(10.0, rel=1e-9)
        assert not report.entangled

    @pytest.mark.parametrize("initial", [None, "state"])
    def test_two_states(self, initial, state_counts):
        # the pulse's joint state and the conditioned one, wrapped unchecked
        # over one settle of the pulse's moments and one per conditioning
        model = build_model(ProtocolParams.dimensionless(1.0, 2.0, larmor_periods=8, eta_det=0.8))
        if initial:
            initial = make_state(
                [(mechanical_mode("m"), 2.0, (0.1, 0.2)), (atomic_mode("a"), 0.0, (0.0, 0.0))]
            )
        state_counts.update(wrapped=0)
        oracle_epr_after_measurement(model, initial=initial)
        assert state_counts == {"checked": 0, "wrapped": 2, "settles": 3, "checks": 0}


def test_cached_sweep_operation(state_counts):
    """One ``oracle_sweep`` operation over a cached period map: the oracle's
    pulse and readout, the thermal input and a conditional generation wrap
    five states over six settles and run one uncertainty check."""
    params = ProtocolParams.dimensionless(1.2, 40.0, larmor_periods=8)
    oracle_epr_after_measurement(build_model(params))
    state_counts.update(dict.fromkeys(state_counts, 0))
    oracle_epr_after_measurement(build_model(params))
    initial = make_state(
        [(mechanical_mode("m"), 40.0, (0.0, 0.0)), (atomic_mode("a"), 0.0, (0.0, 0.0))]
    )
    run_epr_generation(initial, params, FeedbackConfig.conditional())
    assert state_counts == {"checked": 0, "wrapped": 5, "settles": 6, "checks": 1}


REGRESSION_CASES = {
    "plain@8": lambda: build_model(ProtocolParams.dimensionless(1.2, 3.0, larmor_periods=8)),
    "hot@12.5": lambda: build_model(unit_pulse(0.9, 600.0, 12.5)),
    "mismatch@16": lambda: build_model(
        ProtocolParams.dimensionless(1.5, 20.0, larmor_periods=16, eps_mismatch=0.03),
        mismatch=True,
    ),
    "damping@16": lambda: build_model(
        ProtocolParams.dimensionless(0.8, 5.0, larmor_periods=16, gamma_m=0.02, n_th=1.5),
        damping=True,
    ),
    "plain@12.3456": lambda: build_model(unit_pulse(1.1, 10.0, 12.3456)),
    "mean@8": lambda: build_model(ProtocolParams.dimensionless(1.0, 2.0, larmor_periods=8)),
}

DISPLACED_INITIAL = {
    "mean@8": lambda: make_state(
        [(mechanical_mode("m"), 2.0, (0.3, -0.2)), (atomic_mode("a"), 0.0, (0.1, 0.4))]
    ),
}

#: Final covariances and means recorded from the per-step RK4 integrator that
#: preceded the period map: whole periods, a 12.5-period remainder, mismatch,
#: damping, a grid not commensurate with the Larmor period (12.3456 periods),
#: and a displaced initial state.
RECORDED = {
    "plain@8": (
        [
            [4.220000093380846, 4.894504819031857e-09, -0.7200000933808495, 4.894504784779539e-09,
             -1.2201413601350963e-07, 4.199999896637074, -0.5999999901026042, -8.549914027877747e-07],
            [4.894504819031857e-09, 4.219999906619153, -4.894504784779539e-09, 0.7199999066191503,
             0.5999999852338669, 8.540989460681381e-07, -1.2214162834964237e-07, 4.199999930718233],
            [-0.7200000933808495, -4.894504784779539e-09, 1.2200000933808495, -4.894505797866519e-09,
             1.2201413601350963e-07, 0.5999999852338667, 0.5999999901026042, -1.221416273539111e-07],
            [4.894504784779539e-09, 0.7199999066191503, -4.894505797866519e-09, 1.2199999066191487,
             0.5999999852338669, -1.220141357533011e-07, -1.2214162834964237e-07, -0.5999999901026034],
            [-1.2201413601350963e-07, 0.5999999852338669, 1.2201413601350963e-07, 0.5999999852338669,
             0.49999999999999994, 1.2018402809070916e-19, 1.603941588920743e-17, 2.2203974308373672e-20],
            [4.199999896637074, 8.540989460681381e-07, 0.5999999852338667, -1.220141357533011e-07,
             1.2018402809070916e-19, 6.259999757845544, -7.388590310472234e-19, -1.4511503977632234e-15],
            [-0.5999999901026042, -1.2214162834964237e-07, 0.5999999901026042, -1.2214162834964237e-07,
             1.603941588920743e-17, -7.388590310472234e-19, 0.5, 1.856718740217746e-19],
            [-8.549914027877747e-07, 4.199999930718233, -1.221416273539111e-07, -0.5999999901026034,
             2.2203974308373672e-20, -1.4511503977632234e-15, 1.856718740217746e-19, 6.2599998511305355],
        ],
        [0.0] * 8,
    ),
    "hot@12.5": (
        [
            [600.9050000525268, 2.753741862974967e-09, -0.40500005252670784, 2.7533515903312226e-09,
             1.431332193393975e-07, -540.4499850758898, 0.44999999122514883, 0.00017201783601095144],
            [2.753741862974967e-09, 600.9049999474751, -2.7533515903312226e-09, 0.4049999474732916,
             -0.4499999875735952, -0.00017190299610092552, 1.4322883921946694e-07, -540.4499894614052],
            [-0.40500005252670784, -2.7533515903312226e-09, 0.9050000525267086, -2.753350564720013e-09,
             -1.431332193393975e-07, -0.449999987573596, -0.44999999122514883, 1.4322883970518951e-07],
            [2.7533515903312226e-09, 0.4049999474732916, -2.753350564720013e-09, 0.9049999474732932,
             -0.4499999875735952, 1.4313321874612206e-07, 1.4322883921946694e-07, 0.4499999912251487],
            [1.431332193393975e-07, -0.4499999875735952, -1.431332193393975e-07, -0.4499999875735952,
             0.5000000000000056, 1.051319127997295e-19, 3.701279869617116e-17, -1.393396296283193e-19],
            [-540.4499850758898, -0.00017190299610092552, -0.449999987573596, 1.4313321874612206e-07,
             1.051319127997295e-19, 487.30997854887715, 1.749507050267511e-19, 3.1624008967057193e-13],
            [0.44999999122514883, 1.4322883921946694e-07, -0.44999999122514883, 1.4322883921946694e-07,
             3.701279869617116e-17, 1.749507050267511e-19, 0.5000000000000054, 6.727029197268067e-20],
            [0.00017201783601095144, -540.4499894614052, 1.4322883970518951e-07, 0.4499999912251487,
             -1.393396296283193e-19, 3.1624008967057193e-13, 6.727029197268067e-20, 487.3099864388423],
        ],
        [0.0] * 8,
    ),
    "mismatch@16": (
        [
            [21.6935126547933, 8.114423247788783e-09, -1.1239876457761593, 7.641729835988279e-09,
             -3.146377832267955e-07, 31.7767865625593, -0.7724999831315847, -0.003125035099725948],
            [8.114423247788783e-09, 21.693512345206717, -7.641729835988279e-09, 1.123987354223837,
             0.7724999768630847, -0.0010244373852725808, -3.148019319526574e-07, 31.776786791706353],
            [-1.1239876457761593, -7.641729835988279e-09, 1.5585126372843423, -7.196579353300079e-09,
             2.963093695650121e-07, 0.6292874676889942, 0.7274999841142132, 0.0029305427340326207],
            [7.641729835988279e-09, 1.123987354223837, -7.196579353300079e-09, 1.5585123627156519,
             0.7274999782108674, -0.0009772064145264422, -2.964639551558679e-07, -0.6292874998307143],
            [-3.146377832267955e-07, 0.7724999768630847, 2.963093695650121e-07, 0.7274999782108674,
             0.500000000000002, -0.0006714531388933538, 2.4994248207579894e-17, 0.06749999746702513],
            [31.7767865625593, -0.0010244373852725808, 0.6292874676889942, -0.0009772064145264422,
             -0.0006714531388933538, 50.50467091659944, -0.0674999974670241, -0.00036257471206076544],
            [-0.7724999831315847, -3.148019319526574e-07, 0.7274999841142132, -2.964639551558679e-07,
             2.4994248207579894e-17, -0.0674999974670241, 0.5000000000000022, 0.0020142864771349987],
            [-0.003125035099725948, 31.776786791706353, 0.0029305427340326207, -0.6292874998307143,
             0.06749999746702513, -0.00036257471206076544, 0.0020142864771349987, 50.50468254374129],
        ],
        [0.0] * 8,
    ),
    "damping@16": (
        [
            [5.757417284559172, 3.151690627032087e-05, -0.31840536032914446, 1.5838327184405213e-05,
             1.9633384523428526e-05, 4.353889088073944, -0.3980066404373783, 2.942361328855947e-05],
            [3.151690627032087e-05, 5.7574172094651885, -1.5838327184392148e-05, 0.3184052797241005,
             0.39800663919287343, 3.297194910403811e-05, -1.9957151984674112e-05, 4.353889103353969],
            [-0.31840536032914446, -1.5838327184392148e-05, 0.8200000415025703, -2.175605373389569e-09,
             1.6291924030339966e-07, 0.4004257165881646, 0.3999999912655461, -1.2853157241145621e-05],
            [1.5838327184405213e-05, 0.3184052797241005, -2.175605373389569e-09, 0.8199999584974299,
             0.3999999880197211, 1.2527038491237999e-05, -1.6300423692425237e-07, -0.4004257196107559],
            [1.9633384523428526e-05, 0.39800663919287343, 1.6291924030339966e-07, 0.3999999880197211,
             0.500000000000002, 1.5862784094810298e-05, 2.4994248207579894e-17, -0.0005321605387954155],
            [4.353889088073944, 3.297194910403811e-05, 0.4004257165881646, 1.2527038491237999e-05,
             1.5862784094810298e-05, 4.315592358336482, 0.0005321605387952112, 0.0001890365717670146],
            [-0.3980066404373783, -1.9957151984674112e-05, 0.3999999912655461, -1.6300423692425237e-07,
             2.4994248207579894e-17, 0.0005321605387952112, 0.5000000000000022, -1.586237978534797e-05],
            [2.942361328855947e-05, 4.353889103353969, -1.2853157241145621e-05, -0.4004257196107559,
             -0.0005321605387954155, 0.0001890365717670146, -1.586237978534797e-05, 4.315595552479939],
        ],
        [0.0] * 8,
    ),
    "plain@12.3456": (
        [
            [11.108636555729923, 0.005307993891095989, -0.6086365557299678, 0.005307993891103916,
             0.45372571870677053, -6.405192210546506, 0.3167076840067402, 9.528240171447242],
            [0.005307993891095989, 11.101363444270055, -0.005307993891103916, 0.6013634442700326,
             -0.3050091528831689, -9.528240092842157, 0.45372572244986925, -6.650861364141534],
            [-0.6086365557299678, -0.005307993891103916, 1.1086365557299664, -0.005307993891103747,
             -0.45372571870677053, -0.3050091528831685, -0.3167076840067402, 0.45372572244986764],
            [0.005307993891103916, 0.6013634442700326, -0.005307993891103747, 1.1013634442700302,
             -0.3050091528831689, 0.4537257187067701, 0.45372572244986925, 0.31670768400673904],
            [0.45372571870677053, -0.3050091528831689, -0.45372571870677053, -0.3050091528831689,
             0.4969945554774625, -1.052388882773083e-19, 0.004386712673661701, -3.7426852201310296e-19],
            [-6.405192210546506, -9.528240092842157, -0.3050091528831685, 0.4537257187067701,
             -1.052388882773083e-19, 13.648489592980733, 1.1644659832269891e-19, 0.2379353407207795],
            [0.3167076840067402, 0.45372572244986925, -0.3167076840067402, 0.45372572244986925,
             0.004386712673661701, 1.1644659832269891e-19, 0.5030054445225387, -1.0619144049475977e-19],
            [9.528240171447242, -6.650861364141534, 0.45372572244986764, 0.31670768400673904,
             -3.7426852201310296e-19, 0.2379353407207795, -1.0619144049475977e-19, 13.974520276859847],
        ],
        [0.0] * 8,
    ),
    "mean@8": (
        [
            [3.0000000648478093, 3.39896192793368e-09, -0.5000000648478115, 3.3989625063792557e-09,
             -1.0167844642985924e-07, 2.4999999384744442, -0.49999999175217036, -5.089234544619625e-07],
            [3.39896192793368e-09, 2.999999935152178, -3.3989625063792557e-09, 0.4999999351521876,
             0.49999998769488874, 5.083922314380596e-07, -1.0178469013466529e-07, 2.4999999587608435],
            [-0.5000000648478115, -3.3989625063792557e-09, 1.0000000648478125, -3.3989632561118343e-09,
             1.0167844642985924e-07, 0.4999999876948894, 0.49999999175217036, -1.0178469049548777e-07],
            [3.3989625063792557e-09, 0.4999999351521876, -3.3989632561118343e-09, 0.9999999351521878,
             0.49999998769488874, -1.0167844614536459e-07, -1.0178469013466529e-07, -0.49999999175216997],
            [-1.0167844642985924e-07, 0.49999998769488874, 1.0167844642985924e-07, 0.49999998769488874,
             0.49999999999999994, 6.435640642239165e-20, 1.603941588920743e-17, 1.8236291500898503e-19],
            [2.4999999384744442, 5.083922314380596e-07, 0.4999999876948894, -1.0167844614536459e-07,
             6.435640642239165e-20, 3.4999998738778824, -4.0953755370374314e-20, -2.9522825156780286e-16],
            [-0.49999999175217036, -1.0178469013466529e-07, 0.49999999175217036, -1.0178469013466529e-07,
             1.603941588920743e-17, -4.0953755370374314e-20, 0.5, -5.844486328312397e-20],
            [-5.089234544619625e-07, 2.4999999587608435, -1.0178469049548777e-07, -0.49999999175216997,
             1.8236291500898503e-19, -2.9522825156780286e-16, -5.844486328312397e-20, 3.499999922463817],
        ],
        [0.3000000783722255, -0.19999987549909884, 0.10000016208488406, 0.39999995493941054,
         0.0, 0.4000001121700468, 0.0, -0.5999999086748515],
    ),
}


class TestRoutes:
    @pytest.mark.parametrize("route", ["default", "stepped"])
    @pytest.mark.parametrize("name", sorted(RECORDED))
    def test_matches_per_step_integrator_record(self, name, route):
        model = REGRESSION_CASES[name]()
        initial = DISPLACED_INITIAL.get(name, lambda: None)()
        if route == "stepped":
            state = stepped(model, initial)
        else:
            state = propagate_moments(model, initial=initial)
        assert_same_moments(state, *map(np.array, RECORDED[name]))

    @pytest.mark.parametrize(
        "periods, steps_per_period, expected",
        [(8, 200, 200), (12, 200, 200), (12.5, 200, 200), (16, 200, 200), (64, 200, 200),
         (16, 400, 400), (12.3456, 200, 0)],
    )
    def test_period_steps(self, periods, steps_per_period, expected):
        model = build_model(unit_pulse(1.0, 0.0, periods), steps_per_period=steps_per_period)
        assert oracle._period_steps(model) == expected

    @pytest.mark.parametrize("periods, n_steps", [(6.5, 1300), (13, 2600), (26, 5200), (52, 10400)])
    def test_whole_step_count_survives_roundoff(self, periods, n_steps):
        # 200 steps times these periods lands just above a whole number in
        # floating point, which must not cost an extra step
        model = build_model(unit_pulse(1.0, 0.0, periods))
        assert model.n_steps == n_steps
        assert oracle._period_steps(model) == 200
        oracle._period_map.cache_clear()
        propagate_moments(model)
        assert oracle._period_map.cache_info().misses == 1  # the period route ran

    @settings(max_examples=12, deadline=None, derandomize=True, database=None)
    @given(
        kappa=st.floats(0.2, 2.0),
        n_i=st.floats(0.0, 900.0),
        eps=st.floats(-0.05, 0.05),
        periods=st.integers(1, 10),
        quarters=st.integers(0, 3),
        steps_per_period=st.sampled_from([200, 201, 202]),
        damping=st.booleans(),
    )
    def test_period_route_equals_stepped_route(
        self, kappa, n_i, eps, periods, quarters, steps_per_period, damping
    ):
        # the remainder is the whole step nearest the quarter, so the grid
        # stays commensurate with the period when its steps are not a
        # multiple of four
        rest = round(quarters * steps_per_period / 4) / steps_per_period
        extra = {"gamma_m": 0.02, "n_th": 1.5} if damping else {}
        params = unit_pulse(kappa, n_i, periods + rest, eps_mismatch=eps, **extra)
        model = build_model(params, mismatch=True, damping=damping, steps_per_period=steps_per_period)
        oracle._period_map.cache_clear()
        state = propagate_moments(model)
        assert oracle._period_map.cache_info().misses == 1  # the period route ran
        reference = assert_same_per_step_output(model)
        assert_same_moments(state, reference.cov, reference.mean)

    def test_second_n_i_reuses_the_period_map(self):
        oracle._period_map.cache_clear()
        cold = build_model(ProtocolParams.dimensionless(1.3, 0.0, larmor_periods=8))
        hot = build_model(ProtocolParams.dimensionless(1.3, 500.0, larmor_periods=8))
        propagate_moments(cold)
        state = propagate_moments(hot)
        info = oracle._period_map.cache_info()
        assert (info.misses, info.hits, info.currsize) == (1, 1, 1)
        reference = stepped(hot)
        assert_same_moments(state, reference.cov, reference.mean)

    def test_cached_pulse_builds_no_protocol_params(self, monkeypatch):
        # the cache key is the model itself: no n_i-cleared copy per pulse
        cold = build_model(ProtocolParams.dimensionless(1.3, 0.0, larmor_periods=8))
        hot = build_model(ProtocolParams.dimensionless(1.3, 500.0, larmor_periods=8))
        oracle._period_map.cache_clear()
        propagate_moments(cold)
        built = []
        post_init = ProtocolParams.__post_init__
        monkeypatch.setattr(
            ProtocolParams, "__post_init__", lambda params: built.append(params) or post_init(params)
        )
        propagate_moments(cold)
        propagate_moments(hot)
        assert built == []
        info = oracle._period_map.cache_info()
        assert (info.misses, info.hits, info.currsize) == (1, 2, 1)

    @pytest.mark.parametrize(
        "base, changed, flags",
        [
            ({}, {"n_i": 500.0}, {}),
            ({}, {"eps_mismatch": 0.03}, {"mismatch": True}),
            ({}, {"gamma_m": 0.02}, {"damping": True}),
            ({"gamma_m": 0.02}, {"n_th": 1.5}, {"damping": True}),
        ],
    )
    def test_only_models_that_differ_in_n_i_share_a_period_map(self, base, changed, flags):
        first = build_model(ProtocolParams.dimensionless(1.3, **{"n_i": 2.0, **base}), **flags)
        second = build_model(
            ProtocolParams.dimensionless(1.3, **{"n_i": 2.0, **base, **changed}), **flags
        )
        shared = list(changed) == ["n_i"]
        assert (first == second) is shared
        if shared:
            assert hash(first) == hash(second)
        oracle._period_map.cache_clear()
        propagate_moments(first)
        propagate_moments(second)
        assert oracle._period_map.cache_info().misses == 2 - shared

    def test_per_step_output_takes_the_period_route_uncached(self, monkeypatch):
        oracle._period_map.cache_clear()
        model = build_model(ProtocolParams.dimensionless(1.0, larmor_periods=1))
        advanced = spy_on_advance(monkeypatch)
        state, _ = propagate_moments(model, return_info=True)
        propagate_moments(model, trajectory=io.StringIO())
        # each call stepped the identity through a quarter of the one period,
        # no state
        dim = oracle._DIM
        assert advanced == [((dim, dim), 0, 50), ((dim,), 200, 0)] * 2
        assert oracle._period_map.cache_info().currsize == 0
        plain = propagate_moments(model)  # one period is enough for the period route
        assert oracle._period_map.cache_info().misses == 1
        # the same period map, so per-step output leaves the state as it is
        np.testing.assert_array_equal(state.cov, plain.cov)
        np.testing.assert_array_equal(state.mean, plain.mean)

    @pytest.mark.parametrize("name", sorted(RECORDED))
    def test_per_step_output_matches_the_stepped_kernel(self, name):
        model = REGRESSION_CASES[name]()
        assert_same_per_step_output(model, DISPLACED_INITIAL.get(name, lambda: None)())

    def test_per_step_output_of_a_pulse_shorter_than_a_period(self, monkeypatch):
        # 200 steps of a 400-step period: no whole period, so the stepped route
        model = build_model(unit_pulse(1.0, 3.0, 0.5))
        assert (model.n_steps, oracle._period_steps(model)) == (200, 400)
        advanced = spy_on_advance(monkeypatch)
        oracle._period_map.cache_clear()
        assert_same_per_step_output(model)
        propagate_moments(model)
        # both stepped the state through the 200 steps, never the identity
        # through a period the pulse does not complete
        assert advanced == [((oracle._DIM,), 0, 200)] * 2
        assert oracle._period_map.cache_info().misses == 0

    def test_cache_is_bounded(self):
        oracle._period_map.cache_clear()
        for kappa in (0.5, 0.6, 0.7, 0.8, 0.9):
            propagate_moments(build_model(ProtocolParams.dimensionless(kappa, larmor_periods=1)))
        info = oracle._period_map.cache_info()
        assert info.currsize == info.maxsize == 4


SYMMETRY_CASES = {
    "plain": lambda steps: build_model(
        ProtocolParams.dimensionless(1.2, 3.0, larmor_periods=8), steps_per_period=steps
    ),
    "hot": lambda steps: build_model(unit_pulse(0.9, 600.0, 12), steps_per_period=steps),
    "mismatch": lambda steps: build_model(
        ProtocolParams.dimensionless(1.5, 20.0, larmor_periods=16, eps_mismatch=0.03),
        mismatch=True,
        steps_per_period=steps,
    ),
    "damping": lambda steps: build_model(
        ProtocolParams.dimensionless(0.8, 5.0, larmor_periods=16, gamma_m=0.02, n_th=1.5),
        damping=True,
        steps_per_period=steps,
    ),
}


class TestLarmorTurn:
    """The period map is built from a part of the period: ``r = gcd(q, 4)``
    units of ``q / r`` steps, each the first turned by a power of the quarter
    turn ``T`` of the accumulator pairs."""

    def test_quarter_turn_is_a_signed_permutation_of_order_four(self):
        turn = oracle._QUARTER_TURN
        assert set(np.unique(turn)) == {-1.0, 0.0, 1.0}
        nonzero = turn != 0.0
        assert (nonzero.sum(axis=0) == 1).all() and (nonzero.sum(axis=1) == 1).all()
        powers = [np.linalg.matrix_power(turn, k) for k in range(1, 5)]
        assert not any(np.array_equal(p, np.eye(oracle._DIM)) for p in powers[:3])
        np.testing.assert_array_equal(powers[3], np.eye(oracle._DIM))

    @pytest.mark.parametrize("steps, r", [(200, 4), (202, 2), (201, 1)])
    @pytest.mark.parametrize("name", sorted(SYMMETRY_CASES))
    def test_generator_conjugation_identity(self, name, steps, r):
        model = SYMMETRY_CASES[name](steps)
        assert math.gcd(oracle._period_steps(model), 4) == r
        basis = oracle._generator_basis(model)
        turn = np.linalg.matrix_power(oracle._QUARTER_TURN, 4 // r)
        np.testing.assert_array_equal(oracle._turn(basis, r), turn)
        scale = np.abs(basis).max()
        for phase in (0.0, 0.3, 1.7, 2.9, 5.5):
            shifted = oracle._generator(basis, phase + 2.0 * math.pi / r)
            turned = turn.T @ oracle._generator(basis, phase) @ turn
            np.testing.assert_allclose(turned, shifted, rtol=0.0, atol=1e-14 * scale)

    @pytest.mark.parametrize("steps", [200, 202, 201])
    @pytest.mark.parametrize("name", sorted(SYMMETRY_CASES))
    def test_unit_build_matches_the_stepped_period(self, name, steps):
        model = SYMMETRY_CASES[name](steps)
        q = oracle._period_steps(model)
        basis, period, rows = oracle._period_map.__wrapped__(model, True)
        full, full_rows = oracle._advance(
            model, basis, np.eye(oracle._DIM), 0, q, oracle._OUTPUT_FORMS
        )
        np.testing.assert_allclose(period, full, rtol=0.0, atol=1e-13 * np.abs(full).max())
        assert rows.shape == (q, *full_rows.shape[1:])
        np.testing.assert_allclose(rows, full_rows[:q], rtol=0.0, atol=1e-12 * np.abs(full_rows).max())
        # the rows leave the period map as it is
        np.testing.assert_array_equal(oracle._period_map.__wrapped__(model, False)[1], period)

    @pytest.mark.parametrize("steps", [200, 202])
    def test_drift_that_breaks_the_symmetry_stops_the_build(self, monkeypatch, steps):
        drift = oracle.DriftNoiseModel.drift_matrix

        def phase_dependent(self, t):
            a = drift(self, t)
            a[oracle._PM, oracle._XM] += 0.1 * math.cos(self.params.Omega * t)
            return a

        monkeypatch.setattr(oracle.DriftNoiseModel, "drift_matrix", phase_dependent)
        model = SYMMETRY_CASES["plain"](steps)
        oracle._period_map.cache_clear()
        with pytest.raises(RuntimeError, match="breaks the Larmor turn symmetry"):
            propagate_moments(model)
        # an odd grid steps the whole period and needs no symmetry
        propagate_moments(SYMMETRY_CASES["plain"](201))
        oracle._period_map.cache_clear()


class TestMismatchRealization:
    """Scaling of the oracle's realized mismatch excess, checked without the
    exact closed form: quadratic for a cold mode, first order with the Schur
    coefficient for a hot one.  Acceptance criterion 6 and
    ``tests/test_decoherence.py`` hold it to ``mismatch_excess``; the paper's
    budget term ``(eps kappa (n_i + 2))^2`` describes neither (see the
    README limitations)."""

    def test_quadratic_scaling_for_ground_state_mechanics(self):
        base = oracle_epr_after_measurement(
            build_model(ProtocolParams.dimensionless(1.0))
        ).delta_epr
        eps_grid = [1e-3, 3e-3, 1e-2, 3e-2]
        excesses = []
        for eps in eps_grid:
            params = ProtocolParams.dimensionless(1.0, eps_mismatch=eps)
            rep = oracle_epr_after_measurement(build_model(params, mismatch=True))
            excesses.append(rep.delta_epr - base)
        slope = np.polyfit(np.log(eps_grid), np.log(excesses), 1)[0]
        assert slope == pytest.approx(2.0, abs=0.1)
        # magnitude: same order as (2 eps kappa)^2, the back-action noise the
        # mismatch injects into the conserved combinations
        ratio = excesses[-1] / (2.0 * 0.03) ** 2
        assert 1.0 / 3.0 < ratio < 3.0

    def test_first_order_term_for_hot_mechanics_matches_schur_formula(self):
        # A mis-weighted meter reads the hot mode preferentially; conditioning
        # then shifts the EPR variance at first order in eps with coefficient
        # -2 kappa^2 V n_i / (1/2 + kappa^2 V)^2 (V = n_i + 1), derived
        # independently from the static Schur complement.
        kappa, n_i, eps = 1.0, 30.0, 1e-3
        base_params = ProtocolParams.dimensionless(kappa, n_i)
        base = oracle_epr_after_measurement(build_model(base_params)).delta_epr
        deltas = {}
        for sign in (+1, -1):
            params = ProtocolParams.dimensionless(kappa, n_i, eps_mismatch=sign * eps)
            model = build_model(params, mismatch=True)
            deltas[sign] = oracle_epr_after_measurement(model).delta_epr - base
        measured = (deltas[+1] - deltas[-1]) / (2.0 * eps)
        v = n_i + 1.0
        predicted = -2.0 * kappa**2 * v * n_i / (0.5 + kappa**2 * v) ** 2
        assert measured == pytest.approx(predicted, rel=0.02)


class TestDampingRealization:
    def test_perturbative_regime_agrees_with_closed_form(self):
        # kappa = 0.2: weak readout, so conditioning removes little of the
        # injected thermal noise and the first-order formula applies.
        kappa, n_th = 0.2, 830.0
        base = oracle_epr_after_measurement(
            build_model(ProtocolParams.dimensionless(kappa))
        ).delta_epr
        for product in (0.01, 0.1):
            gamma_m_tau = product / n_th
            params = ProtocolParams.dimensionless(kappa, gamma_m=gamma_m_tau, n_th=n_th)
            rep = oracle_epr_after_measurement(build_model(params, damping=True))
            excess = rep.delta_epr - base
            formula = 2.0 * gamma_m_tau * (n_th + 1.0)
            assert excess == pytest.approx(formula, rel=0.15)
