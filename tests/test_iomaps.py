import math

import numpy as np
import pytest
from conftest import random_symplectic, vacuum
from hypothesis import given, settings
from hypothesis import strategies as st

from eprbus.gaussian import (
    VACUUM_VARIANCE,
    GaussianState,
    _admix_loss,
    _channel_output,
    apply_linear_map,
    atomic_mode,
    condition_on_homodyne,
    epr_forms,
    epr_variance,
    loss_channel,
    make_state,
    mechanical_mode,
    symplectic_form,
    tensor,
)
from eprbus.iomaps import (
    COS_MODE,
    SIN_MODE,
    MatchingError,
    ProtocolParams,
    _pulse,
    _resolve_roles,
    condition_on_readout,
    qnd_bigstep,
)

M = mechanical_mode("m")
A = atomic_mode("a")

HALF_PI = math.pi / 2


def system_vacuum(n_i: float = 0.0) -> GaussianState:
    return make_state([(M, n_i, (0.0, 0.0)), (A, 0.0, (0.0, 0.0))])


#: The pulse inputs of the properties below: the modes in either order, with
#: the roles inferred from their kinds, or two ensembles with explicit roles
#: (the teleportation Bell pulse).
ROLE_SETUPS = {
    "mech-atom": ((M, A), {}),
    "atom-mech": ((A, M), {}),
    "bell": (
        (atomic_mode("input"), A),
        {"positive_mass": atomic_mode("input"), "negative_mass": A},
    ),
}


def two_mode_state(kind: str, seed: int, modes: tuple) -> GaussianState:
    """A random physical two-mode state of one of four families."""
    rng = np.random.default_rng(seed)
    occupations = rng.exponential(5.0, size=2)
    mean = np.zeros(4)
    if kind == "thermal":
        cov = np.diag(np.repeat(occupations + 0.5, 2))
    elif kind == "squeezed":  # a squeezed thermal state on each mode
        cov = np.zeros((4, 4))
        for i, nbar in enumerate(occupations):
            s = random_symplectic(1, rng, max_squeeze=1.5)
            cov[2 * i : 2 * i + 2, 2 * i : 2 * i + 2] = (nbar + 0.5) * s @ s.T
    else:  # "correlated" and "displaced": a two-mode symplectic image of a thermal state
        s = random_symplectic(2, rng, max_squeeze=1.0)
        cov = s @ np.diag(np.repeat(occupations + 0.5, 2)) @ s.T
        if kind == "displaced":
            mean = rng.normal(scale=3.0, size=4)
    return GaussianState(modes, mean, (cov + cov.T) / 2.0)


@st.composite
def pulse_inputs(draw) -> tuple[GaussianState, dict]:
    """A random physical input and the role keywords of its pulse."""
    modes, roles = ROLE_SETUPS[draw(st.sampled_from(sorted(ROLE_SETUPS)))]
    kind = draw(st.sampled_from(["thermal", "squeezed", "correlated", "displaced"]))
    return two_mode_state(kind, draw(st.integers(0, 2**32 - 1)), modes), roles


def reference_pulse(state: GaussianState, params: ProtocolParams, roles: dict) -> GaussianState:
    """The pulse written out: the input and two vacua, the map ``S`` of the
    module docstring, then the light loss on cos and on sin."""
    joint = tensor(state, vacuum(COS_MODE, SIN_MODE))
    pos = roles.get("positive_mass", M)
    neg = roles.get("negative_mass", A)
    xp, pp, xn, pn = joint.x_index(pos), joint.p_index(pos), joint.x_index(neg), joint.p_index(neg)
    xc, pc = joint.x_index(COS_MODE), joint.p_index(COS_MODE)
    xs, ps = joint.x_index(SIN_MODE), joint.p_index(SIN_MODE)
    k = params.kappa
    s = np.eye(joint.dim)
    s[xp, xs], s[pp, xc], s[xn, xs], s[pn, xc] = -k, k, k, k  # back-action
    s[pc, xp], s[pc, xn], s[ps, pp], s[ps, pn] = k, k, k, -k  # the EPR readout
    out = apply_linear_map(joint, s)
    eta = params.eta_light * params.eta_det
    if eta < 1.0:
        for mode in (COS_MODE, SIN_MODE):
            out = loss_channel(out, mode, eta)
    return out


def assembled_pulse(state: GaussianState, params: ProtocolParams, pos, neg) -> tuple:
    """The pulse kernel with its map assembled entry by entry, the readout
    rows added as ``kappa`` times the pair's forms: the reference that the
    kernel's one fancy assignment must match bit for bit."""
    kappa = params.kappa
    n, dim = state.n_modes, state.dim + 4
    mean = np.zeros(dim)
    mean[: state.dim] = state.mean
    cov = np.diag(np.full(dim, VACUUM_VARIANCE))
    cov[: state.dim, : state.dim] = state.cov
    i_pos, i_neg = state.mode_index(pos), state.mode_index(neg)
    xm, pm, xa, pa = 2 * i_pos, 2 * i_pos + 1, 2 * i_neg, 2 * i_neg + 1
    xc, pc, xs, ps = 2 * n, 2 * n + 1, 2 * n + 2, 2 * n + 3
    s = np.eye(dim)
    s[xm, xs] = -kappa
    s[pm, xc] = kappa
    s[xa, xs] = kappa
    s[pa, xc] = kappa
    s[[pc, ps]] += kappa * epr_forms(dim, i_pos, i_neg)
    mean = s @ mean
    cov = _channel_output(mean, s @ cov @ s.T)
    eta = params.eta_light * params.eta_det
    if eta < 1.0:
        for i in (n, n + 1):
            _admix_loss(mean, cov, i, eta)
    return state.modes + (COS_MODE, SIN_MODE), mean, cov


@st.composite
def hot_pulse_inputs(draw) -> tuple[GaussianState, dict]:
    """:func:`pulse_inputs`, or a thermal mechanical mode up to ``n_i = 1e8``
    and a displaced vacuum ensemble."""
    if draw(st.booleans()):
        return draw(pulse_inputs())
    n_i = 10.0 ** draw(st.floats(0.0, 8.0))
    displacement = draw(st.tuples(*[st.floats(-10.0, 10.0)] * 4))
    state = make_state([(M, n_i, displacement[:2]), (A, 0.0, displacement[2:])])
    return state, {}


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(
    given_input=hot_pulse_inputs(),
    kappa=st.sampled_from([0.0, -0.0]) | st.floats(0.0, 4.0),
    eta=st.sampled_from([1.0, 0.9, 0.3]),
)
def test_pulse_kernel_is_the_assembled_map(given_input, kappa, eta):
    # bit for bit, compared as bytes so that a signed zero counts; kappa = -0.0
    # passes the parameter checks
    state, roles = given_input
    params = ProtocolParams.dimensionless(kappa, eta_light=eta)
    pos, neg = _resolve_roles(state, roles.get("positive_mass"), roles.get("negative_mass"))
    modes, mean, cov = _pulse(state.modes, state.mean, state.cov, params, pos, neg)
    ref_modes, ref_mean, ref_cov = assembled_pulse(state, params, pos, neg)
    assert modes == ref_modes
    assert mean.tobytes() == ref_mean.tobytes()
    assert cov.tobytes() == ref_cov.tobytes()


def assert_same_state(actual: GaussianState, expected: GaussianState) -> None:
    assert actual.modes == expected.modes
    assert np.array_equal(actual.mean, expected.mean)
    assert np.array_equal(actual.cov, expected.cov)


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

    @pytest.mark.parametrize("periods", [2.5, 64.0, True, "8"])
    def test_larmor_periods_must_be_an_integer(self, periods):
        # Omega = 2 pi * 2.5 used to pass, off the whole periods the map relies on
        with pytest.raises(ValueError, match=f"^larmor_periods must be an integer, got {periods!r}$"):
            ProtocolParams.dimensionless(1.0, larmor_periods=periods)

    def test_larmor_periods_takes_a_numpy_integer(self):
        params = ProtocolParams.dimensionless(1.0, larmor_periods=np.int64(8))
        assert params.Omega == ProtocolParams.dimensionless(1.0, larmor_periods=8).Omega

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
        joint = qnd_bigstep(state, params)
        assert joint.mean[joint.p_index(COS_MODE)] == 0.0
        assert joint.mean[joint.p_index(SIN_MODE)] == 0.0
        assert joint.mean[[joint.x_index(M), joint.p_index(M)]] == pytest.approx([1.5, -0.5])

    def test_mean_substitution(self):
        # <X_m> = 2 with the atoms at rest shifts the cos readout by
        # kappa_optical <X_m>
        params = ProtocolParams.dimensionless(0.5)
        state = make_state([(M, 100.0, (2.0, 0.0)), (A, 0.0, (0.0, 0.0))])
        joint = qnd_bigstep(state, params)
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
        joint = qnd_bigstep(state, ProtocolParams.dimensionless(kappa))
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
        joint = qnd_bigstep(system_vacuum(3.0), ProtocolParams.dimensionless(0.0))
        assert np.allclose(
            joint.cov,
            np.diag([3.5, 3.5, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5]),
        )

    def test_readout_variance(self):
        joint = qnd_bigstep(system_vacuum(), ProtocolParams.dimensionless(1.0))
        pc = joint.p_index(COS_MODE)
        assert joint.cov[pc, pc] == pytest.approx(1.5)

    def test_epr_observables_conserved_exactly(self):
        for n_i in (0.0, 7.0, 850.0):
            state = system_vacuum(n_i)
            before = epr_variance(state, M, A)
            pulse = qnd_bigstep(state, ProtocolParams.dimensionless(1.7, n_i))
            after = epr_variance(pulse, M, A)
            assert after.var_xsum == pytest.approx(before.var_xsum, abs=1e-12)
            assert after.var_pdiff == pytest.approx(before.var_pdiff, abs=1e-12)

    def test_readout_linearity(self, rng):
        for _ in range(5):
            n_i = float(rng.exponential(20.0))
            kappa = float(rng.uniform(0.2, 3.0))
            joint = qnd_bigstep(system_vacuum(n_i), ProtocolParams.dimensionless(kappa, n_i))
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
        joint = qnd_bigstep(system_vacuum(4.0), ProtocolParams.dimensionless(0.8, 4.0))
        pc, ps = joint.p_index(COS_MODE), joint.p_index(SIN_MODE)
        xm, pm = joint.x_index(M), joint.p_index(M)
        xa, pa = joint.x_index(A), joint.p_index(A)
        assert joint.cov[pc, pc] == pytest.approx(joint.cov[ps, ps], rel=1e-12)
        assert joint.cov[pc, xm] == pytest.approx(joint.cov[ps, pm], rel=1e-12)
        assert joint.cov[pc, xa] == pytest.approx(-joint.cov[ps, pa], rel=1e-12)

    def test_back_action_on_orthogonal_combinations(self):
        kappa = 1.3
        joint = qnd_bigstep(system_vacuum(), ProtocolParams.dimensionless(kappa))
        xm, xa = joint.x_index(M), joint.x_index(A)
        pm, pa = joint.p_index(M), joint.p_index(A)
        var_xdiff = joint.cov[xm, xm] + joint.cov[xa, xa] - 2 * joint.cov[xm, xa]
        var_psum = joint.cov[pm, pm] + joint.cov[pa, pa] + 2 * joint.cov[pm, pa]
        assert var_xdiff == pytest.approx(1.0 + 2.0 * kappa**2, rel=1e-12)
        assert var_psum == pytest.approx(1.0 + 2.0 * kappa**2, rel=1e-12)

    @settings(max_examples=80, deadline=None, derandomize=True, database=None)
    @given(
        kappa=st.floats(0.0, 4.0),
        squeeze=st.tuples(st.floats(-1.5, 1.5), st.floats(-1.5, 1.5)),
        angles=st.tuples(*[st.floats(0.0, 2.0 * math.pi)] * 3),
        displacement=st.tuples(*[st.floats(-10.0, 10.0)] * 4),
    )
    def test_map_is_symplectic_and_preserves_purity(self, kappa, squeeze, angles, displacement):
        # a pure input: each mode squeezed and rotated, the two mixed by a beam
        # splitter, then displaced
        s = np.zeros((4, 4))
        for i, (r, theta) in enumerate(zip(squeeze, angles)):
            c, t = math.cos(theta), math.sin(theta)
            s[2 * i : 2 * i + 2, 2 * i : 2 * i + 2] = [[c, -t], [t, c]] @ np.diag(
                [math.exp(r), math.exp(-r)]
            )
        c, t = math.cos(angles[2]), math.sin(angles[2])
        s = np.block([[c * np.eye(2), t * np.eye(2)], [-t * np.eye(2), c * np.eye(2)]]) @ s
        state = GaussianState((M, A), np.array(displacement), 0.5 * s @ s.T)
        pulse = qnd_bigstep(state, ProtocolParams.dimensionless(kappa))
        # a symplectic map keeps a pure state pure: det(2 cov) = 1
        assert np.linalg.det(2.0 * pulse.cov) == pytest.approx(1.0, abs=1e-9)

    def test_composition_information_additivity(self):
        kappa1, kappa2 = 0.8, 1.1
        kappa_eff = math.sqrt(kappa1**2 + kappa2**2)
        n_i = 5.0

        def conditional_delta(kappas) -> float:
            state = system_vacuum(n_i)
            for k in kappas:
                state = qnd_bigstep(state, ProtocolParams.dimensionless(k, n_i))
                state, _ = condition_on_homodyne(state, COS_MODE, HALF_PI, 0.0)
                state, _ = condition_on_homodyne(state, SIN_MODE, HALF_PI, 0.0)
            return epr_variance(state, M, A).delta_epr

        assert conditional_delta([kappa1, kappa2]) == pytest.approx(
            conditional_delta([kappa_eff]), rel=1e-12
        )

    def test_explicit_roles_for_two_ensembles(self):
        a2 = atomic_mode("a2")
        state = make_state([(atomic_mode("a"), 0.0, (0.0, 0.0)), (a2, 0.0, (1.0, 2.0))])
        joint = qnd_bigstep(
            state,
            ProtocolParams.dimensionless(1.0),
            positive_mass=a2,
            negative_mass="a",
        )
        assert joint.mean[joint.p_index(COS_MODE)] == pytest.approx(1.0)  # kappa <X_a2 + X_a>
        assert joint.mean[joint.p_index(SIN_MODE)] == pytest.approx(2.0)  # kappa <P_a2 - P_a>

    def test_ambiguous_roles_rejected(self):
        state = vacuum(atomic_mode("a"), atomic_mode("b"))
        with pytest.raises(ValueError, match="exactly one"):
            qnd_bigstep(state, ProtocolParams.dimensionless(1.0))

    def test_omega_tau_warning(self):
        params = ProtocolParams.dimensionless(1.0, larmor_periods=2)
        with pytest.warns(UserWarning, match="Omega"):
            qnd_bigstep(system_vacuum(), params)

    @pytest.mark.parametrize("omega_tau", [49.96, 49.999])
    def test_omega_tau_just_below_the_bound_never_prints_as_it(self, omega_tau):
        # the .1f format printed 49.96 as "50.0 is below 50"
        params = ProtocolParams(
            kappa=1.0, g=1.0e3, gamma_c=1.0e6, omega_m=omega_tau, Omega=omega_tau
        )
        with pytest.warns(UserWarning) as caught:
            qnd_bigstep(system_vacuum(), params)
        assert str(caught[0].message).startswith("Omega*tau = 49.9 is below 50;")


@pytest.mark.parametrize("eta_light, eta_det", [(0.8, 0.9), (1.0, 0.5), (1.0, 1.0)])
@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(given_input=pulse_inputs(), kappa=st.floats(0.0, 4.0))
def test_light_loss_on_both_temporal_modes(eta_light, eta_det, given_input, kappa):
    # the pulse on moments equals the pulse written out with states, bit for bit
    state, roles = given_input
    params = ProtocolParams.dimensionless(kappa, eta_light=eta_light, eta_det=eta_det)
    lossy = qnd_bigstep(state, params, **roles)
    assert_same_state(lossy, reference_pulse(state, params, roles))
    # the loss touches the readout modes only
    lossless = qnd_bigstep(state, ProtocolParams.dimensionless(kappa), **roles)
    system = [q for mode in state.modes for q in (lossy.x_index(mode), lossy.p_index(mode))]
    block = np.ix_(system, system)
    assert np.array_equal(lossy.cov[block], lossless.cov[block])


def test_unit_efficiency_gives_the_lossless_joint_unchanged():
    # from vacuum, the lossless pulse is a symplectic image: pure, (2 cov Omega)^2 = -1
    params = ProtocolParams.dimensionless(1.0, eta_light=1.0, eta_det=1.0)
    joint = qnd_bigstep(system_vacuum(), params)
    cov_omega = 2.0 * joint.cov @ symplectic_form(joint.n_modes)
    assert np.allclose(cov_omega @ cov_omega, -np.eye(joint.dim), atol=1e-12)
    p = joint.p_index(COS_MODE)
    assert joint.cov[p, p] == 1.5


class TestConditionOnReadout:
    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(
        given_input=pulse_inputs(),
        kappa=st.floats(0.1, 4.0),
        eta=st.sampled_from([1.0, 0.9, 0.3]),
        outcomes=st.tuples(st.floats(-5.0, 5.0), st.floats(-5.0, 5.0)),
    )
    def test_p_of_cos_then_p_of_sin(self, given_input, kappa, eta, outcomes):
        state, roles = given_input
        params = ProtocolParams.dimensionless(kappa, eta_det=eta)
        joint = qnd_bigstep(state, params, **roles)
        conditioned, records = condition_on_readout(joint, outcomes)
        expected, rec_cos = condition_on_homodyne(joint, COS_MODE, HALF_PI, outcomes[0])
        expected, rec_sin = condition_on_homodyne(expected, SIN_MODE, HALF_PI, outcomes[1])
        assert conditioned.modes == state.modes
        assert_same_state(conditioned, expected)
        assert records == (rec_cos, rec_sin)

    def test_default_outcomes_are_zero(self):
        joint = qnd_bigstep(system_vacuum(), ProtocolParams.dimensionless(1.0))
        state, records = condition_on_readout(joint)
        assert [r.outcome for r in records] == [0.0, 0.0]
        assert np.array_equal(state.cov, condition_on_readout(joint, (0.0, 0.0))[0].cov)

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(
        given_input=pulse_inputs(),
        kappa=st.floats(0.1, 4.0),
        eta=st.sampled_from([1.0, 0.9, 0.3]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_sampled_in_readout_order(self, given_input, kappa, eta, seed):
        state, roles = given_input
        params = ProtocolParams.dimensionless(kappa, eta_light=eta)
        joint = qnd_bigstep(state, params, **roles)
        conditioned, records = condition_on_readout(joint, None, rng=np.random.default_rng(seed))
        rng = np.random.default_rng(seed)
        expected, rec_cos = condition_on_homodyne(joint, COS_MODE, HALF_PI, "sample", rng=rng)
        expected, rec_sin = condition_on_homodyne(expected, SIN_MODE, HALF_PI, "sample", rng=rng)
        assert_same_state(conditioned, expected)
        assert records == (rec_cos, rec_sin)

    def test_sampling_needs_an_rng(self):
        joint = qnd_bigstep(system_vacuum(), ProtocolParams.dimensionless(1.0))
        with pytest.raises(ValueError, match="rng"):
            condition_on_readout(joint, None)
