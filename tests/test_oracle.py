import io
import itertools
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eprbus import oracle
from eprbus._g17 import format_g17
from eprbus.gaussian import (
    GaussianState,
    Provenance,
    atomic_mode,
    epr_variance,
    make_state,
    mechanical_mode,
)
from eprbus.iomaps import COS_MODE, SIN_MODE, ProtocolParams, condition_on_readout, qnd_bigstep
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


def spy_on_rk4_increment(monkeypatch) -> list:
    """Record the ``n_steps`` of the model of every call of the oracle's RK4 kernel."""
    kernel, calls = oracle._rk4_increment, []

    def spy(model, generators):
        calls.append(model.n_steps)
        return kernel(model, generators)

    monkeypatch.setattr(oracle, "_rk4_increment", spy)
    return calls


def stepped(model, initial=None):
    """The final state of the stepped route, taken directly."""
    return step_through(model, initial)[0]


def read_trajectory(text: str) -> np.ndarray:
    """The fields of a trajectory's rows, as ``float`` reads them."""
    return np.array([[float(v) for v in line.split(",")] for line in text.splitlines()[1:]])


def assert_same_per_step_output(model, initial=None):
    """Trajectory and drift of ``propagate_moments`` against the stepped kernel.

    Returns the stepped kernel's final state.
    """
    buffer = io.StringIO()
    state, info = propagate_moments(model, initial=initial, trajectory=buffer, return_info=True)
    reference, rows, drift = step_through(model, initial)
    assert_same_moments(state, reference.cov, reference.mean)
    text = buffer.getvalue()
    lines = text.splitlines()
    assert lines[0] == "t,var_xsum,var_pdiff,var_ypc,var_yps"
    assert len(lines) == model.n_steps + 1 + 1
    written = read_trajectory(text)
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

    @pytest.mark.parametrize("steps", [250.0, 200.5, True, "250"])
    def test_non_integer_resolution_rejected(self, steps):
        # a float step count once reached the powering and failed there
        params = ProtocolParams(
            kappa=1.0, n_i=10.0, g=1000.0, gamma_c=1e6, omega_m=0.3, Omega=0.3, tau=1.0
        )
        with pytest.raises(ValueError, match="steps_per_period must be an integer"):
            build_model(params, steps_per_period=steps)

    def test_numpy_integer_resolution_taken_as_int(self):
        params = ProtocolParams.dimensionless(1.0, larmor_periods=8)
        model = build_model(params, steps_per_period=np.int64(201))
        assert type(model.n_steps) is int and model.n_steps == 8 * 201


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


#: Edge values of binary64: a negative zero, the least subnormal, a value
#: near the top of the range, and two whose shortest form ``repr`` and 17
#: digits write differently.
EDGE_FLOATS = (-0.0, 5e-324, 1e308, 1e-5, 1e16)


class TestTrajectoryText:
    # 64 periods take many chunks, 12.5 end on a partial one
    @pytest.mark.parametrize("periods", [64, 12.5])
    def test_every_field_reads_back_exactly(self, periods):
        model = build_model(unit_pulse(1.1, 30.0, periods))
        buffer = io.StringIO()
        propagate_moments(model, trajectory=buffer)
        text = buffer.getvalue()
        assert text.endswith("\n") and text.count("\n") == model.n_steps + 2
        x, _, _ = oracle._start(model, None)
        values = oracle._per_step_values(model, oracle._pulse_maps(model)[0], x)
        written = read_trajectory(text)
        times = np.array([k * model.dt for k in range(model.n_steps + 1)])
        assert written[:, 0].tobytes() == times.tobytes()
        assert written[:, 1:].tobytes() == np.ascontiguousarray(values[:, [0, 2, 3, 4]]).tobytes()

    def test_stacks_hold_the_rows_the_steps_use(self, monkeypatch):
        # 12 periods: 2,401 rows in blocks of 64 forms, so 38 block starts;
        # the starts' stack used to double on to 64
        orbit, stacks = oracle._orbit, []

        def counted(first, step, count):
            stack, power = orbit(first, step, count)
            stacks.append(len(stack))
            return stack, power

        monkeypatch.setattr(oracle, "_orbit", counted)
        model = build_model(unit_pulse(1.1, 30.0, 12))
        x, _, _ = oracle._start(model, None)
        values = oracle._per_step_values(model, oracle._pulse_maps(model)[0], x)
        assert stacks == [64, 38]
        assert values.shape == (model.n_steps + 1, 6) == (2401, 6)

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(
        fields=st.lists(
            st.sampled_from(EDGE_FLOATS) | st.floats(allow_nan=False, allow_infinity=False),
            min_size=1,
            max_size=40,
        ),
        # every step k dt stays finite, as on a grid over a finite tau
        dt=st.sampled_from((-0.0, 5e-324, 1e-5, 1e16)) | st.floats(-1e300, 1e300),
        count=st.integers(1, 3 * oracle._CSV_CHUNK_ROWS + 1),
    )
    def test_every_field_round_trips(self, fields, dt, count):
        values = np.resize(np.array(fields), (count, 6))
        buffer = io.StringIO()
        oracle._write_trajectory(buffer, dt, values)
        written = read_trajectory(buffer.getvalue())
        times = np.array([k * dt for k in range(count)])
        assert written[:, 0].tobytes() == times.tobytes()
        assert written[:, 1:].tobytes() == np.ascontiguousarray(values[:, [0, 2, 3, 4]]).tobytes()


def printf_g17(values, separators: str) -> str:
    """One ``"%.17g" %`` per value, each followed by its separator."""
    flat = np.asarray(values, dtype=np.float64).ravel().tolist()
    return "".join("%.17g" % v + s for v, s in zip(flat, itertools.cycle(separators)))


def neighbours(values, steps: int = 2) -> np.ndarray:
    """``values`` and the ``steps`` doubles on each side of each."""
    out = [np.asarray(values, dtype=np.float64)]
    for target in (0.0, np.inf):
        near = out[0]
        for _ in range(steps):
            near = np.nextafter(near, target)
            out.append(near)
    return np.concatenate(out)


#: Every finite double, uniformly in its bits, and the floats Hypothesis
#: favours: NaN, the infinities, zeros, subnormals and the range's ends.
ANY_DOUBLE = st.floats() | st.integers(0, 2**64 - 1).map(
    lambda bits: float(np.array(bits, dtype=np.uint64).view(np.float64))
)


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestFormatG17:
    """The vectorized kernel writes what ``"%.17g"`` writes, byte for byte,
    with no numpy warning on zeros, NaN or the infinities."""

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(
        st.lists(
            st.tuples(ANY_DOUBLE, st.characters(min_codepoint=1, max_codepoint=255)),
            max_size=200,
        )
    )
    def test_any_double_any_separator(self, pairs):
        values = np.array([v for v, _ in pairs], dtype=np.float64)
        separators = "".join(s for _, s in pairs)
        assert format_g17(values, separators) == printf_g17(values, separators)

    def test_powers_of_ten_and_their_neighbours(self):
        # deciding the exponent on the rounded product printed 1e-280 for
        # 9.9999999999999996e-281, which reads back as the same double
        values = neighbours(10.0 ** np.arange(-307, 308))
        assert format_g17(values, ",") == printf_g17(values, ",")

    @pytest.mark.parametrize("switch", [1e-5, 1e-4, 1e16, 1e17])
    def test_switch_between_plain_and_exponent(self, switch):
        values = neighbours([switch, -switch], steps=4)
        assert format_g17(values, ",") == printf_g17(values, ",")

    def test_zeros_subnormals_and_three_digit_exponents(self):
        values = np.array(
            [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308, 1.5e-310, 1e-100, 1e100,
             -1.7976931348623157e308, 2.2250738585072014e-308, 1.234e-123, 9.87e+234]
        )
        assert format_g17(values, " ") == printf_g17(values, " ")
        assert format_g17(np.array([0.0, -0.0]), ",") == "0,-0,"

    def test_all_powers_of_two(self):
        values = np.ldexp(1.0, np.arange(-1074, 1024))
        values = np.concatenate((values, -values))
        assert format_g17(values, "\n") == printf_g17(values, "\n")

    def test_rounding_ties(self):
        # 3 * 2**-25 = 8.94069671630859375e-08 has 18 digits and ends in a
        # 5: an exact tie, rounded half to even by %.17g.  Those of n 2**-24
        # and n 2**-25 are the only ties whose scale 10**p is not a double.
        ties = [n * 2.0**-24 for n in range(3, 17, 2)] + [2.0**-25, 3 * 2.0**-25]
        values = np.array(ties + [1250000000000000.25, 1250000000000000.75])
        values = np.concatenate((values, -values))
        assert format_g17(values, ",") == printf_g17(values, ",")
        assert format_g17(values[-3:-2], ",") == "-8.9406967163085938e-08,"

    @pytest.mark.parametrize("slow", [math.nan, math.inf, -math.inf, 3 * 2.0**-25, 1e-300])
    def test_slow_value_spliced_in_place(self, slow):
        values = np.array([[1.5, slow, -2.25], [slow, 0.1, slow]])
        assert format_g17(values, ",;\n") == (
            "1.5," + "%.17g" % slow + ";-2.25\n" + "%.17g" % slow + ",0.10000000000000001;"
            + "%.17g" % slow + "\n"
        )

    def test_separators_follow_the_last_axis(self):
        values = np.array([[1.0, -0.0], [math.inf, 1e-300], [0.5, 1e17]])
        assert format_g17(values, ",\n") == "1,-0\ninf,1e-300\n0.5,1e+17\n"
        assert format_g17(np.array([]), ",") == ""


#: Values the kernel leaves to ``%.17g`` (NaN, the infinities, a tie, one
#: below the fast range) between fast ones, a zero of each sign among them.
SLOW_AMONG_FAST = (1.5, math.nan, -0.0, 3 * 2.0**-25, 0.1, 1e-300, -math.inf, 0.0, math.inf)


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestFormatG17Separators:
    """Separators from U+0001 to U+00FF, even the bytes of a row's own text;
    NUL, which would be deleted with the pad, and wider characters are
    refused."""

    @pytest.mark.parametrize("separator", ["\0", "\u20ac"])
    def test_nul_and_wide_separators_are_refused(self, separator):
        with pytest.raises(ValueError, match=r"U\+0001 \.\. U\+00FF"):
            format_g17(np.array([1.5, 2.5]), "," + separator)

    def test_every_byte_but_nul_is_a_separator(self):
        # the separators include "+-.0123456789e", the bytes of a row's text
        separators = bytes(range(1, 256)).decode("latin-1")
        values = np.resize(np.array(SLOW_AMONG_FAST + (-2.5e-7, 1e17)), (3, 255))
        assert format_g17(values, separators) == printf_g17(values, separators)


class TestTrajectoryChunks:
    @pytest.mark.parametrize("rows", [1, 7])
    def test_text_does_not_depend_on_the_chunk_size(self, monkeypatch, rows):
        model = build_model(unit_pulse(1.1, 30.0, 12.5))
        x, _, _ = oracle._start(model, None)
        values = oracle._per_step_values(model, oracle._pulse_maps(model)[0], x)
        texts = []
        for chunk_rows in (oracle._CSV_CHUNK_ROWS, rows):
            monkeypatch.setattr(oracle, "_CSV_CHUNK_ROWS", chunk_rows)
            buffer = io.StringIO()
            oracle._write_trajectory(buffer, model.dt, values)
            texts.append(buffer.getvalue())
        assert texts[0] == texts[1]
        assert texts[0].count("\n") == model.n_steps + 2


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

    def test_overflowed_figure_names_the_readout(self):
        # at 10**18 periods the moments overflow; the readout's variance was
        # NaN, passed the degenerate test and failed a record's own check
        model = build_model(ProtocolParams.dimensionless(1.0, 30.0, larmor_periods=10**18))
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(ValueError, match="quadrature of light:cos has variance nan, not finite"):
                oracle_epr_after_measurement(model)

    @pytest.mark.parametrize("initial", [None, "state"])
    def test_no_state(self, initial, state_counts):
        # the pulse's moments are conditioned as arrays and settled once;
        # the figure is read off the covariance, with no state wrapped
        model = build_model(ProtocolParams.dimensionless(1.0, 2.0, larmor_periods=8, eta_det=0.8))
        if initial:
            initial = make_state(
                [(mechanical_mode("m"), 2.0, (0.1, 0.2)), (atomic_mode("a"), 0.0, (0.0, 0.0))]
            )
        state_counts.update(wrapped=0)
        oracle_epr_after_measurement(model, initial=initial)
        assert state_counts == {"checked": 0, "wrapped": 0, "settles": 1, "checks": 0}

    @settings(max_examples=25, deadline=None, derandomize=True, database=None)
    @given(
        kappa=st.floats(0.0, 3.0),
        n_i=st.floats(0.0, 1e4),
        kind=st.sampled_from(["plain", "mismatch", "damping"]),
        displacement=st.none() | st.tuples(*[st.floats(-3.0, 3.0)] * 4),
        eta_det=st.sampled_from([1.0, 0.8]),
    )
    def test_figure_is_the_state_route(self, kappa, n_i, kind, displacement, eta_det):
        # the figure, conditioned on arrays, bit for bit as the public states give it
        params = ProtocolParams.dimensionless(
            kappa, n_i, larmor_periods=8, eps_mismatch=0.02, gamma_m=0.01, n_th=1.0, eta_det=eta_det
        )
        model = build_model(params, mismatch=kind == "mismatch", damping=kind == "damping")
        initial = displacement and make_state(
            [(mechanical_mode("m"), n_i, displacement[:2]), (atomic_mode("a"), 0.0, displacement[2:])]
        )
        report = oracle_epr_after_measurement(model, initial=initial)
        conditioned, _ = condition_on_readout(propagate_moments(model, initial=initial))
        mech, atom = conditioned.modes
        assert report == epr_variance(conditioned, mech, atom, Provenance.ORACLE)

    @pytest.mark.parametrize("eta", [0.5, 0.8])
    @pytest.mark.parametrize("kappa", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("n_i", [0.0, 30.0])
    def test_readout_loss_is_the_idealized_maps(self, eta, kappa, n_i):
        # the oracle used to condition on the lossless readout whatever
        # eta_light * eta_det said: at kappa = 1, n_i = 30 and eta = 0.5 it
        # read 0.984 against the map's 1.9375
        params = ProtocolParams.dimensionless(
            kappa, n_i, larmor_periods=8, eta_light=math.sqrt(eta), eta_det=math.sqrt(eta)
        )
        report = oracle_epr_after_measurement(build_model(params))
        initial = make_state(
            [(mechanical_mode("m"), n_i, (0.0, 0.0)), (atomic_mode("a"), 0.0, (0.0, 0.0))]
        )
        conditioned, _ = condition_on_readout(qnd_bigstep(initial, params))
        expected = epr_variance(conditioned, "m", "a")
        for name in ("var_xsum", "var_pdiff"):
            assert getattr(report, name) == pytest.approx(
                getattr(expected, name), rel=INTEGRATION_TOL
            )
        lossless = replace(params, eta_light=1.0, eta_det=1.0)
        lossless = oracle_epr_after_measurement(build_model(lossless))
        assert abs(lossless.delta_epr / report.delta_epr - 1.0) > 100 * INTEGRATION_TOL

    def test_both_pulse_routes_return_one_joint_state(self):
        # the collapsed map and the oracle return the input's modes followed
        # by the readout's, and one conditioning takes either
        params = ProtocolParams.dimensionless(1.0, 2.0, larmor_periods=8)
        initial = make_state(
            [(mechanical_mode("m"), 2.0, (0.1, 0.2)), (atomic_mode("a"), 0.0, (0.0, 0.0))]
        )
        model = build_model(params)
        joints = qnd_bigstep(initial, params), propagate_moments(model, initial=initial)
        for joint in joints:
            assert type(joint) is GaussianState
            assert joint.modes == initial.modes + (COS_MODE, SIN_MODE)
        idealized, oracle_state = (condition_on_readout(joint)[0] for joint in joints)
        assert idealized.modes == oracle_state.modes == initial.modes
        np.testing.assert_allclose(oracle_state.cov, idealized.cov, rtol=0.0, atol=1e-6)
        np.testing.assert_allclose(oracle_state.mean, idealized.mean, rtol=0.0, atol=1e-6)


def test_cached_sweep_operation(state_counts):
    """One ``oracle_sweep`` operation over a cached period map: the oracle's
    figure settles its conditioned moments once and wraps no state; the
    thermal input and a conditional generation wrap one state each, settle
    the pulse's output and the conditioned moments, and run one uncertainty
    check."""
    params = ProtocolParams.dimensionless(1.2, 40.0, larmor_periods=8)
    oracle_epr_after_measurement(build_model(params))
    state_counts.update(dict.fromkeys(state_counts, 0))
    oracle_epr_after_measurement(build_model(params))
    initial = make_state(
        [(mechanical_mode("m"), 40.0, (0.0, 0.0)), (atomic_mode("a"), 0.0, (0.0, 0.0))]
    )
    run_epr_generation(initial, params, FeedbackConfig.conditional())
    assert state_counts == {"checked": 0, "wrapped": 2, "settles": 3, "checks": 1}


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
        "periods, steps_per_period, n_steps",
        [(8, 200, 1600), (12, 200, 2400), (12.5, 200, 2500), (16, 200, 3200), (64, 200, 12800),
         (16, 400, 6400), (12.3456, 200, 2470),
         # 200 steps times these periods lands just above a whole number in
         # floating point, which must not cost an extra step
         (6.5, 200, 1300), (13, 200, 2600), (26, 200, 5200), (52, 200, 10400)],
    )
    def test_step_count(self, periods, steps_per_period, n_steps):
        model = build_model(unit_pulse(1.0, 0.0, periods), steps_per_period=steps_per_period)
        assert model.n_steps == n_steps
        assert model.dt == 1.0 / n_steps

    @settings(max_examples=12, deadline=None, derandomize=True, database=None)
    @given(
        kappa=st.floats(0.2, 2.0),
        n_i=st.floats(0.0, 900.0),
        eps=st.floats(-0.05, 0.05),
        periods=st.floats(0.25, 10.0),
        steps_per_period=st.sampled_from([200, 201, 202]),
        damping=st.booleans(),
    )
    def test_pulse_map_equals_stepped_route(
        self, kappa, n_i, eps, periods, steps_per_period, damping
    ):
        # any grid, commensurate with the Larmor period or not
        extra = {"gamma_m": 0.02, "n_th": 1.5} if damping else {}
        params = unit_pulse(kappa, n_i, periods, eps_mismatch=eps, **extra)
        model = build_model(params, mismatch=True, damping=damping, steps_per_period=steps_per_period)
        state = propagate_moments(model)
        reference = assert_same_per_step_output(model)
        assert_same_moments(state, reference.cov, reference.mean)

    def test_second_n_i_does_no_rk4_work(self, monkeypatch):
        oracle._pulse_maps.cache_clear()
        cold = build_model(ProtocolParams.dimensionless(1.3, 0.0, larmor_periods=8))
        hot = build_model(ProtocolParams.dimensionless(1.3, 500.0, larmor_periods=8))
        stepped_models = spy_on_rk4_increment(monkeypatch)
        propagate_moments(cold)
        state = propagate_moments(hot)
        assert stepped_models == [cold.n_steps]  # one RK4 step, for the cold pulse
        info = oracle._pulse_maps.cache_info()
        assert (info.misses, info.hits, info.currsize) == (1, 1, 1)
        reference = stepped(hot)
        assert_same_moments(state, reference.cov, reference.mean)

    def test_cached_pulse_builds_no_protocol_params(self, monkeypatch):
        # the cache key is the model itself: no n_i-cleared copy per pulse
        cold = build_model(ProtocolParams.dimensionless(1.3, 0.0, larmor_periods=8))
        hot = build_model(ProtocolParams.dimensionless(1.3, 500.0, larmor_periods=8))
        oracle._pulse_maps.cache_clear()
        propagate_moments(cold)
        built = []
        post_init = ProtocolParams.__post_init__
        monkeypatch.setattr(
            ProtocolParams, "__post_init__", lambda params: built.append(params) or post_init(params)
        )
        propagate_moments(cold)
        propagate_moments(hot)
        assert built == []
        info = oracle._pulse_maps.cache_info()
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
    def test_only_models_that_differ_in_n_i_share_a_pulse_map(self, base, changed, flags):
        first = build_model(ProtocolParams.dimensionless(1.3, **{"n_i": 2.0, **base}), **flags)
        second = build_model(
            ProtocolParams.dimensionless(1.3, **{"n_i": 2.0, **base, **changed}), **flags
        )
        shared = list(changed) == ["n_i"]
        assert (first == second) is shared
        if shared:
            assert hash(first) == hash(second)
        oracle._pulse_maps.cache_clear()
        propagate_moments(first)
        propagate_moments(second)
        assert oracle._pulse_maps.cache_info().misses == 2 - shared

    def test_a_readout_loss_grid_builds_one_pulse_map(self):
        # the loss acts after the pulse map, so it stays out of the cache key
        losses = ((1.0, 1.0), (1.0, 0.9), (1.0, 0.8), (0.9, 0.8))
        models = [
            build_model(
                ProtocolParams.dimensionless(
                    1.0, 30.0, larmor_periods=8, eta_light=light, eta_det=det
                )
            )
            for light, det in losses
        ]

        def figures(model):
            state = propagate_moments(model)
            return oracle_epr_after_measurement(model), state.mean.tobytes(), state.cov.tobytes()

        cold = []
        for model in models:
            oracle._pulse_maps.cache_clear()
            cold.append(figures(model))
        oracle._pulse_maps.cache_clear()
        shared = [figures(model) for model in models]
        info = oracle._pulse_maps.cache_info()
        assert (info.misses, info.hits) == (1, 2 * len(models) - 1)
        assert shared == cold
        # and the loss still reaches every figure
        assert len({report.delta_epr for report, _, _ in shared}) == len(models)

    def test_per_step_output_reuses_the_cached_pulse_map(self, monkeypatch):
        oracle._pulse_maps.cache_clear()
        model = build_model(ProtocolParams.dimensionless(1.0, larmor_periods=8))
        stepped_models = spy_on_rk4_increment(monkeypatch)
        plain = propagate_moments(model)
        state, _ = propagate_moments(model, return_info=True)
        propagate_moments(model, trajectory=io.StringIO())
        # one RK4 step for the plain pulse; per-step output read the entry
        assert stepped_models == [model.n_steps]
        info = oracle._pulse_maps.cache_info()
        assert (info.misses, info.hits) == (1, 2)
        # the state comes from the cached pulse map either way
        np.testing.assert_array_equal(state.cov, plain.cov)
        np.testing.assert_array_equal(state.mean, plain.mean)

    @pytest.mark.parametrize("name", sorted(RECORDED))
    def test_per_step_output_matches_the_stepped_kernel(self, name):
        model = REGRESSION_CASES[name]()
        assert_same_per_step_output(model, DISPLACED_INITIAL.get(name, lambda: None)())

    def test_per_step_output_of_a_pulse_shorter_than_a_period(self, monkeypatch):
        # 200 steps of a 400-step period take the same one route
        model = build_model(unit_pulse(1.0, 3.0, 0.5))
        assert model.n_steps == 200
        oracle._pulse_maps.cache_clear()
        stepped_models = spy_on_rk4_increment(monkeypatch)
        assert_same_per_step_output(model)
        assert stepped_models == [200]

    def test_cache_is_bounded(self):
        # a displaced start fills the mean maps' cache too
        oracle._pulse_maps.cache_clear()
        oracle._mean_map.cache_clear()
        initial = DISPLACED_INITIAL["mean@8"]()
        for kappa in (0.5, 0.6, 0.7, 0.8, 0.9):
            model = build_model(ProtocolParams.dimensionless(kappa, larmor_periods=1))
            propagate_moments(model, initial=initial)
        for cache in (oracle._pulse_maps, oracle._mean_map):
            info = cache.cache_info()
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


#: The reference route's own layout: the 45-entry state ``[vech Sigma; mean;
#: 1]`` the pulse maps were once built on, whose covariance block ``[vech
#: Sigma; 1]`` and mean block the oracle now builds apart.
REF_N_SIGMA = 36
REF_DIM = REF_N_SIGMA + 8 + 1
REF_MEAN = np.arange(REF_N_SIGMA, REF_N_SIGMA + 8)
REF_COV = np.append(np.arange(REF_N_SIGMA), REF_DIM - 1)


def turn_increment(theta: float) -> np.ndarray:
    """``R_theta - I`` on the reference state: the oracle's lift on its
    covariance block and ``s_theta - I`` on its means."""
    turn = np.zeros((REF_DIM, REF_DIM))
    turn[np.ix_(REF_COV, REF_COV)] = oracle._rotation_increment(theta)
    turn[np.ix_(REF_MEAN, REF_MEAN)] = oracle._accumulator_turn(theta)
    return turn


def rotation(theta: float) -> np.ndarray:
    """``R_theta`` on the reference state, from its increment."""
    return np.eye(REF_DIM) + turn_increment(theta)


def dense_lift(a: np.ndarray) -> np.ndarray:
    """``E (a (x) I + I (x) a) Dup``, formed densely."""
    eye = np.eye(8)
    return (oracle._vech_kron(a, eye) + oracle._vech_kron(eye, a)) @ oracle._DUP


def reference_parts(model) -> tuple[np.ndarray, np.ndarray]:
    """The drift and diffusion parts as :func:`oracle._model_parts` once
    formed them: the unmixing inverse solved per call, and each diffusion
    part from its own products."""
    omega = model.params.Omega
    times = (0.0, 0.5 * math.pi / omega, math.pi / omega)
    unmix = np.linalg.inv(
        np.array([[1.0, math.cos(omega * t), math.sin(omega * t)] for t in times])
    )

    def unmixed(parts: list) -> np.ndarray:
        parts = np.stack(parts)
        return (unmix @ parts.reshape(3, -1)).reshape(parts.shape)

    drift = unmixed([model.drift_matrix(t) for t in times])
    n0, nc, ns = unmixed([model.noise_columns(t) for t in times])
    diffusion = np.stack((
        n0 @ n0.T,
        n0 @ nc.T + nc @ n0.T,
        n0 @ ns.T + ns @ n0.T,
        nc @ nc.T,
        ns @ ns.T,
        nc @ ns.T + ns @ nc.T,
    ))
    return drift, diffusion


def generator_basis(drift: np.ndarray, diffusion: np.ndarray) -> np.ndarray:
    """The matrices ``B_j`` of ``G(t) = sum_j f_j(t) B_j`` on the reference
    state, shape ``(6, 45, 45)``, with ``f`` the weights of
    :func:`oracle._trig`: the drift parts lifted onto ``vech`` and the means,
    the diffusion parts in the last column."""
    n = REF_N_SIGMA
    basis = np.zeros((6, REF_DIM, REF_DIM))
    basis[:3, :n, :n] = oracle._vech_lift(drift)
    basis[:3, REF_MEAN[:, None], REF_MEAN] = drift
    basis[:, :n, -1] = diffusion.reshape(6, 64)[:, oracle._VECH]
    return basis


def generators(basis: np.ndarray, phases) -> np.ndarray:
    """``G`` at each Larmor phase of ``phases``, stacked dense 45 x 45 matrices."""
    return (oracle._trig(phases) @ basis.reshape(6, -1)).reshape(-1, REF_DIM, REF_DIM)


def basis_of(model) -> np.ndarray:
    """The generator basis of ``model``, lifted from its parts."""
    return generator_basis(*oracle._model_parts(model))


def reference_pulse_maps(model) -> tuple[np.ndarray, np.ndarray]:
    """``(M, C_n)`` on the reference state by the basis route: the RK4
    stages take ``G`` mixed from the dense basis of :func:`reference_parts`,
    and every sum is written out as the build once wrote it."""
    h = model.dt
    delta = model.params.Omega * h
    g_start, g_mid, g_end = generators(
        generator_basis(*reference_parts(model)), (0.0, delta / 2, delta)
    )
    k1 = g_start
    k2 = g_mid + h / 2 * (g_mid @ k1)
    k3 = g_mid + h / 2 * (g_mid @ k2)
    k4 = g_end + h * (g_end @ k3)
    rk4 = h / 6 * (k1 + 2.0 * (k2 + k3) + k4)
    turn = turn_increment(delta)
    increment = turn + rk4 + turn @ rk4
    eye = np.eye(REF_DIM)
    back = rotation(-model.params.Omega * (model.n_steps * model.dt))
    return eye + increment, back @ (eye + oracle._power_increment(increment, model.n_steps))


def assert_bits_of_the_basis_route(model) -> None:
    """The covariance maps are the ``[vech Sigma; 1]`` block of the
    reference route and the mean map its mean block, byte for byte; every
    entry between the blocks is an exact zero."""
    step, pulse = reference_pulse_maps(model)
    cov, mean = np.ix_(REF_COV, REF_COV), np.ix_(REF_MEAN, REF_MEAN)
    built = oracle._pulse_maps.__wrapped__(model)
    assert [m.tobytes() for m in built] == [step[cov].tobytes(), pulse[cov].tobytes()]
    assert oracle._mean_map.__wrapped__(model).tobytes() == pulse[mean].tobytes()
    for reference in (step, pulse):
        assert not reference[np.ix_(REF_COV, REF_MEAN)].any()
        assert not reference[np.ix_(REF_MEAN, REF_COV)].any()


def add_phase_term(monkeypatch, method: str, entry: tuple, size: float) -> None:
    """Add ``size cos(phase)`` to ``entry`` of what the model's ``method`` returns."""
    original = getattr(oracle.DriftNoiseModel, method)

    def phase_dependent(self, t):
        out = original(self, t)
        out[entry] += size * math.cos(self.params.Omega * t)
        return out

    monkeypatch.setattr(oracle.DriftNoiseModel, method, phase_dependent)


def assert_build_stops(model) -> None:
    oracle._pulse_maps.cache_clear()
    with pytest.raises(RuntimeError, match="breaks the Larmor turn symmetry"):
        propagate_moments(model)
    # nor does per-step output fall back to stepping
    with pytest.raises(RuntimeError, match="breaks the Larmor turn symmetry"):
        propagate_moments(model, return_info=True)
    assert oracle._pulse_maps.cache_info().currsize == 0


class TestLarmorTurn:
    """Every pulse map is built from one RK4 step: the rotation ``R_theta``
    of the accumulator pairs conjugates the generator at any angle, so step
    ``k`` is the first step turned by ``R_delta^k``."""

    def test_rotations_compose(self):
        eye = np.eye(REF_DIM)
        for a, b in ((0.3, 1.1), (-2.0, 0.7), (4.0, 5.5)):
            np.testing.assert_allclose(rotation(a) @ rotation(b), rotation(a + b), rtol=0.0, atol=1e-15)
        np.testing.assert_allclose(rotation(2.0 * math.pi), eye, rtol=0.0, atol=1e-15)
        np.testing.assert_array_equal(rotation(0.0), eye)
        # the quarter turn (Y_c, Y_s) -> (Y_s, -Y_c), to roundoff, on the
        # means and, lifted, on the covariance: vech(s Sigma s^T)
        quarter = rotation(math.pi / 2)
        sigma = np.arange(64.0).reshape(8, 8)
        sigma += sigma.T
        state = np.zeros(REF_DIM)
        state[: REF_N_SIGMA] = sigma[oracle._TRIU]
        state[REF_MEAN] = np.arange(1.0, 9.0)
        turned = quarter @ state
        pairs = [oracle._YXC, oracle._YXS, oracle._YPC, oracle._YPS]
        np.testing.assert_allclose(turned[REF_MEAN][pairs], [7.0, -5.0, 8.0, -6.0], rtol=1e-15)
        s = np.eye(8) + oracle._accumulator_turn(math.pi / 2)
        np.testing.assert_allclose(
            turned[: REF_N_SIGMA], (s @ sigma @ s.T)[oracle._TRIU], rtol=0.0, atol=1e-13
        )

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(theta=st.floats(-10.0, 10.0), phase=st.floats(0.0, 2.0 * math.pi))
    @pytest.mark.parametrize("name", sorted(SYMMETRY_CASES))
    def test_generator_conjugation_identity(self, name, theta, phase):
        model = SYMMETRY_CASES[name](200)
        basis = basis_of(model)
        generator, shifted = generators(basis, (phase, phase + theta))
        turned = rotation(-theta) @ generator @ rotation(theta)
        np.testing.assert_allclose(turned, shifted, rtol=0.0, atol=1e-14 * np.abs(basis).max())

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(
        entries=st.lists(st.one_of(st.just(0.0), st.floats(-1e3, 1e3)), min_size=64, max_size=64)
    )
    def test_lift_table_is_the_dense_lift(self, entries):
        # each lifted entry adds at most two drift entries, as the 0/1
        # product does, so the two agree bit for bit
        a = np.reshape(entries, (8, 8))
        assert np.array_equal(oracle._vech_lift(a[None])[0], dense_lift(a))

    @pytest.mark.parametrize("name", sorted(SYMMETRY_CASES))
    def test_generator_basis_is_the_dense_lift(self, name):
        basis = basis_of(SYMMETRY_CASES[name](200))
        for block in basis:
            lifted = dense_lift(block[np.ix_(REF_MEAN, REF_MEAN)])
            assert np.array_equal(block[:REF_N_SIGMA, :REF_N_SIGMA], lifted)

    @pytest.mark.parametrize("n", [1, 2, 3, 7, 64, 200, 1001])
    def test_power_of_the_increment_is_the_matrix_power(self, n):
        step, _ = oracle._pulse_maps(SYMMETRY_CASES["plain"](200))
        eye = np.eye(len(step))
        power = np.linalg.matrix_power(step, n)
        np.testing.assert_allclose(
            eye + oracle._power_increment(step - eye, n), power, rtol=0.0, atol=1e-12 * np.abs(power).max()
        )

    @pytest.mark.parametrize("steps", [200, 202, 201])
    @pytest.mark.parametrize("name", sorted(SYMMETRY_CASES))
    def test_turned_steps_match_the_stepped_identity(self, name, steps):
        # over one period, R_(-k delta) M^k is the product of the first k
        # steps, each with the generator at its own phase; the stepped map
        # runs on the reference state, whose covariance block M acts on
        model = SYMMETRY_CASES[name](steps)
        drift, diffusion = oracle._model_parts(model)
        oracle._check_symmetry(drift, diffusion)
        basis = generator_basis(drift, diffusion)
        delta = model.params.Omega * model.dt
        step, _ = oracle._pulse_maps(model)
        h, stepped_map, turned = model.dt, np.eye(REF_DIM), np.eye(len(step))
        for k in range(steps):
            g0, g1, g2 = generators(basis, delta * (k + np.array([0.0, 0.5, 1.0])))
            k1 = g0 @ stepped_map
            k2 = g1 @ (stepped_map + h / 2 * k1)
            k3 = g1 @ (stepped_map + h / 2 * k2)
            k4 = g2 @ (stepped_map + h * k3)
            stepped_map = stepped_map + h / 6 * (k1 + 2.0 * (k2 + k3) + k4)
            turned = step @ turned
        turned = (np.eye(len(step)) + oracle._rotation_increment(-steps * delta)) @ turned
        stepped_map = stepped_map[np.ix_(REF_COV, REF_COV)]
        np.testing.assert_allclose(turned, stepped_map, rtol=0.0, atol=1e-13 * np.abs(stepped_map).max())

    @pytest.mark.parametrize("steps", [200, 201, 202])
    @pytest.mark.parametrize("name", sorted(SYMMETRY_CASES))
    def test_pulse_maps_are_the_basis_route_bit_for_bit(self, name, steps):
        # G at the three phases straight from the 8 x 8 parts takes the
        # same floating-point operations as mixing the dense basis
        assert_bits_of_the_basis_route(SYMMETRY_CASES[name](steps))

    @pytest.mark.parametrize("periods", [1, 8, 12.5, 16, 64])
    @pytest.mark.parametrize(
        "extra, flags",
        [({}, {}), ({"eps_mismatch": 0.03}, {"mismatch": True}),
         ({"gamma_m": 0.02, "n_th": 1.5}, {"damping": True})],
        ids=["plain", "mismatch", "damping"],
    )
    def test_pulse_maps_of_any_length_are_the_basis_route(self, extra, flags, periods):
        assert_bits_of_the_basis_route(build_model(unit_pulse(1.3, 20.0, periods, **extra), **flags))

    @pytest.mark.parametrize("name", sorted(REGRESSION_CASES))
    def test_regression_pulse_maps_are_the_basis_route(self, name):
        assert_bits_of_the_basis_route(REGRESSION_CASES[name]())

    @pytest.mark.parametrize("steps", [200, 202, 201])
    def test_drift_that_breaks_the_symmetry_stops_the_build(self, monkeypatch, steps):
        add_phase_term(monkeypatch, "drift_matrix", (oracle._PM, oracle._XM), 0.1)
        assert_build_stops(SYMMETRY_CASES["plain"](steps))

    @pytest.mark.parametrize("steps", [200, 202, 201])
    def test_noise_that_breaks_the_symmetry_stops_the_build(self, monkeypatch, steps):
        add_phase_term(monkeypatch, "noise_columns", (oracle._PM, 0), 0.1)
        assert_build_stops(SYMMETRY_CASES["plain"](steps))

    # A term that breaks the symmetry by 1e-9 of the largest drift entry
    # (omega_m on a[P_m, X_m]) corrupts the pulse map by as much; the check
    # compares phases 2 pi / 5 apart, so it reads the term at its full size.
    @pytest.mark.parametrize("steps", [200, 202, 201])
    def test_small_drift_term_that_breaks_the_symmetry_stops_the_build(self, monkeypatch, steps):
        add_phase_term(monkeypatch, "drift_matrix", (oracle._PM, oracle._XM), 1e-9)
        assert_build_stops(SYMMETRY_CASES["plain"](steps))

    @pytest.mark.parametrize("steps", [200, 202, 201])
    def test_small_noise_term_that_breaks_the_symmetry_stops_the_build(self, monkeypatch, steps):
        # the same size as the drift term, relative to the entry it changes
        model = SYMMETRY_CASES["plain"](steps)
        size = 1e-9 * model.noise_columns(0.0)[oracle._PM, 0] / model.params.omega_m
        add_phase_term(monkeypatch, "noise_columns", (oracle._PM, 0), size)
        assert_build_stops(model)


class TestRotationCache:
    """The rotation lifts depend on the angle alone and are cached read-only."""

    def test_lift_is_read_only(self):
        turn = oracle._rotation_increment(0.3)
        with pytest.raises(ValueError, match="read-only"):
            turn[0, 0] = 1.0
        with pytest.raises(ValueError, match="read-only"):
            turn += 1.0

    def test_cleared_lift_recomputed_bit_identically(self):
        first = oracle._rotation_increment(-2.0 * math.pi * 16)
        oracle._rotation_increment.cache_clear()
        second = oracle._rotation_increment(-2.0 * math.pi * 16)
        assert second is not first
        assert second.tobytes() == first.tobytes()

    def test_mismatch_model_and_its_baseline_share_the_lifts(self):
        # the pair ``compare`` builds: one grid, so one delta and one -n delta
        params = ProtocolParams.dimensionless(1.5, 20.0, larmor_periods=16, eps_mismatch=0.03)
        mismatched, baseline = build_model(params, mismatch=True), build_model(params)
        assert mismatched != baseline
        oracle._pulse_maps.cache_clear()
        oracle._rotation_increment.cache_clear()
        oracle._pulse_maps(mismatched)
        info = oracle._rotation_increment.cache_info()
        assert (info.misses, info.hits) == (2, 0)
        oracle._pulse_maps(baseline)
        info = oracle._rotation_increment.cache_info()
        assert (info.misses, info.hits) == (2, 2)


class TestMeanMap:
    """The means' pulse map is built only for a pulse from a displaced
    state, once per drift model."""

    def test_undisplaced_pulses_build_no_mean_map(self):
        model = build_model(ProtocolParams.dimensionless(1.0, 2.0, larmor_periods=8, eta_det=0.8))
        oracle._mean_map.cache_clear()
        oracle_epr_after_measurement(model)
        state, _ = propagate_moments(model, trajectory=io.StringIO(), return_info=True)
        info = oracle._mean_map.cache_info()
        assert (info.misses, info.hits, info.currsize) == (0, 0, 0)
        assert state.mean.tobytes() == np.zeros(8).tobytes()

    def test_the_figure_builds_no_mean_map_from_a_displaced_state(self):
        # the figure reads only the covariance, which no mean enters
        model = REGRESSION_CASES["mean@8"]()
        initial = DISPLACED_INITIAL["mean@8"]()
        oracle._mean_map.cache_clear()
        report = oracle_epr_after_measurement(model, initial=initial)
        assert oracle._mean_map.cache_info().misses == 0
        assert report == oracle_epr_after_measurement(model)

    def test_displaced_start_builds_the_map_once_per_model(self):
        model = REGRESSION_CASES["mean@8"]()
        other = build_model(
            ProtocolParams.dimensionless(1.0, 2.0, larmor_periods=8, eps_mismatch=0.03), mismatch=True
        )
        initial = DISPLACED_INITIAL["mean@8"]()
        oracle._mean_map.cache_clear()
        first = propagate_moments(model, initial=initial)
        second, _ = propagate_moments(model, initial=initial, trajectory=io.StringIO(), return_info=True)
        propagate_moments(other, initial=initial)
        info = oracle._mean_map.cache_info()
        assert (info.misses, info.hits, info.currsize) == (2, 1, 2)
        assert first.mean.tobytes() == second.mean.tobytes()
        assert first.mean.any()


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
