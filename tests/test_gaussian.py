import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eprbus import gaussian
from eprbus.gaussian import (
    UNCERTAINTY_TOL,
    GaussianState,
    InvalidChannelError,
    InvalidStateError,
    MeasurementRecord,
    ModeLabel,
    Provenance,
    _conditioned,
    _epr_report,
    _mode_index,
    apply_linear_map,
    atomic_mode,
    condition_on_homodyne,
    displace,
    epr_forms,
    epr_pair,
    epr_variance,
    light_mode,
    linear_form_moments,
    loss_channel,
    make_state,
    mechanical_mode,
    symplectic_form,
)

from conftest import random_symplectic, random_valid_state, vacuum

M = mechanical_mode("m")
A = atomic_mode("a")
L1 = light_mode("l1")
L2 = light_mode("l2")


class TestMakeState:
    def test_single_vacuum(self):
        state = make_state([(L1, 0.0, (0.0, 0.0))])
        assert np.allclose(state.cov, 0.5 * np.eye(2))
        assert np.allclose(state.mean, 0.0)

    def test_thermal_850(self):
        state = make_state([(M, 850.0, (0.0, 0.0))])
        assert np.allclose(state.cov, np.diag([850.5, 850.5]))

    def test_two_displaced_vacua(self):
        state = make_state([(L1, 0.0, (1.0, 0.0)), (L2, 0.0, (0.0, 2.0))])
        assert np.allclose(state.mean, [1.0, 0.0, 0.0, 2.0])
        assert np.allclose(state.cov, 0.5 * np.eye(4))

    def test_negative_occupation_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            make_state([(L1, -0.1, (0.0, 0.0))])

    def test_duplicate_names_rejected(self):
        with pytest.raises(InvalidStateError, match="unique"):
            vacuum(light_mode("x"), light_mode("x"))

    def test_unphysical_covariance_rejected(self):
        with pytest.raises(InvalidStateError, match="uncertainty"):
            GaussianState((L1,), np.zeros(2), 0.1 * np.eye(2))

    def test_wraps_one_state_unsettled_and_unchecked(self, state_counts):
        make_state([(M, 1e8, (0.3, -0.2)), (A, 0.0, (0.0, 0.0))])
        assert state_counts == {"checked": 0, "wrapped": 1, "settles": 0, "checks": 0}

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("where", ["nbar", "dx", "dp"])
    def test_non_finite_rejected(self, where, bad):
        values = {"nbar": 1.0, "dx": 0.0, "dp": 0.0, where: bad}
        with pytest.raises(InvalidStateError, match="must be finite"):
            make_state([(L1, values["nbar"], (values["dx"], values["dp"]))])


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    nbars=st.lists(st.floats(0.0, 1e12), min_size=1, max_size=4),
    displacements=st.lists(
        st.floats(allow_nan=False, allow_infinity=False), min_size=8, max_size=8
    ),
)
def test_thermal_product_states_are_physical(nbars, displacements):
    """``make_state`` checks nothing a finite ``nbar >= 0`` could fail."""
    specs = [
        (light_mode(f"q{i}"), nbar, (displacements[2 * i], displacements[2 * i + 1]))
        for i, nbar in enumerate(nbars)
    ]
    gaussian._check_uncertainty(make_state(specs).cov)


class TestApplyLinearMap:
    def test_identity(self, rng):
        state = random_valid_state(2, rng)
        out = apply_linear_map(state, np.eye(4))
        assert np.allclose(out.cov, state.cov)
        assert np.allclose(out.mean, state.mean)

    def test_vacuum_rotation_invariance(self):
        state = vacuum(L1)
        theta = math.pi / 2
        rot = np.array(
            [[math.cos(theta), math.sin(theta)], [-math.sin(theta), math.cos(theta)]]
        )
        out = apply_linear_map(state, rot)
        assert np.allclose(out.cov, 0.5 * np.eye(2))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="must be 2x2"):
            apply_linear_map(vacuum(L1), np.eye(4))

    def test_invalid_channel_flagged(self):
        with pytest.raises(InvalidChannelError):
            apply_linear_map(vacuum(L1), 0.5 * np.eye(2))


class TestConditioning:
    def test_uncorrelated_mode_unchanged(self):
        state = vacuum(L1, L2)
        out, record = condition_on_homodyne(state, L1, 0.0, 0.3)
        assert out.modes == (L2,)
        assert np.allclose(out.cov, 0.5 * np.eye(2))
        assert np.allclose(out.mean, 0.0)  # zero cross-covariance
        assert record.outcome == 0.3
        assert record.outcome_variance == pytest.approx(0.5)

    @pytest.mark.parametrize("kappa,v", [(1.0, 1.0), (0.5, 3.0), (2.0, 31.0)])
    def test_schur_complement_form(self, kappa, v):
        # meter-style correlations: Var(A)=V, Var(B)=1/2+k^2 V, Cov=k V.
        # Pure algebra check of the conditioning rule, so the conjugate
        # correlations a physical meter would carry are left out.
        cov = np.array(
            [
                [v, 0.0, kappa * v, 0.0],
                [0.0, v, 0.0, 0.0],
                [kappa * v, 0.0, 0.5 + kappa**2 * v, 0.0],
                [0.0, 0.0, 0.0, 0.5],
            ]
        )
        state = GaussianState._wrap((L1, L2), np.zeros(4), cov)
        out, _ = condition_on_homodyne(state, L2, 0.0, 0.0)
        assert out.cov[0, 0] == pytest.approx(v / (1.0 + 2.0 * kappa**2 * v), rel=1e-12)

    def test_conditional_covariance_outcome_independent(self, rng):
        state = random_valid_state(3, rng)
        out1, _ = condition_on_homodyne(state, "q1", 0.7, -1.3)
        out2, _ = condition_on_homodyne(state, "q1", 0.7, 2.9)
        assert np.array_equal(out1.cov, out2.cov)  # bitwise

    def test_sampling_is_seeded(self, rng):
        state = random_valid_state(2, rng)
        rng_a = np.random.default_rng(7)
        rng_b = np.random.default_rng(7)
        _, rec_a = condition_on_homodyne(state, "q0", 0.0, "sample", rng=rng_a)
        _, rec_b = condition_on_homodyne(state, "q0", 0.0, "sample", rng=rng_b)
        assert rec_a.outcome == rec_b.outcome

    def test_sample_requires_rng(self):
        with pytest.raises(ValueError, match="rng"):
            condition_on_homodyne(vacuum(L1, L2), L1, 0.0, "sample")

    def test_absent_mode(self):
        with pytest.raises(ValueError, match="not present"):
            condition_on_homodyne(vacuum(L1, L2), "nope", 0.0, 0.0)

    def test_degenerate_marginal(self):
        cov = np.diag([1e-13, 2.6e12, 0.5, 0.5])
        state = GaussianState((L1, L2), np.zeros(4), cov)
        with pytest.raises(ValueError, match="degenerate"):
            condition_on_homodyne(state, L1, 0.0, 0.0)

    @pytest.mark.parametrize("entry", [math.nan, math.inf])
    def test_variance_not_finite(self, entry):
        cos = light_mode("cos")
        cov = 0.5 * np.eye(4)
        cov[0, 0] = entry
        with pytest.raises(ValueError, match=f"light:cos has variance {entry}, not finite"):
            _conditioned((cos, L2), np.zeros(4), cov, [(cos, 0.0, 0.0)], None)

    @pytest.mark.parametrize("variance", [0.0, -1.0, math.nan])
    def test_public_record_checks_its_variance(self, variance):
        # the kernel's records are wrapped unchecked; one built by hand is not
        with pytest.raises(ValueError, match="outcome_variance must be positive"):
            MeasurementRecord(L1, 0.0, 0.0, variance)

    def test_last_mode_leaves_the_empty_state(self):
        state = make_state([(L1, 2.0, (0.3, -0.4))])
        out, record = condition_on_homodyne(state, L1, math.pi / 2.0, 1.1)
        assert out.modes == ()
        assert out.mean.shape == (0,) and out.cov.shape == (0, 0)
        assert record == MeasurementRecord(L1, math.pi / 2.0, 1.1, 2.5)

    @pytest.mark.parametrize("angle", [math.nan, math.inf, -math.inf])
    def test_non_finite_angle_rejected(self, angle):
        with pytest.raises(ValueError, match=f"homodyne angle of .* must be finite, got {angle!r}"):
            condition_on_homodyne(vacuum(L1, L2), L1, angle, 0.0)


class TestDisplace:
    def test_zero_is_identity(self):
        state = vacuum(L1)
        out = displace(state, L1, 0.0, 0.0)
        assert np.allclose(out.mean, state.mean)
        assert np.allclose(out.cov, state.cov)

    def test_feedback_style_displacement(self):
        out = displace(vacuum(L1), L1, -1.0 * 0.7, 0.0)
        assert out.mean[0] == pytest.approx(-0.7)
        assert np.allclose(out.cov, 0.5 * np.eye(2))

    def test_group_property(self, rng):
        state = random_valid_state(2, rng)
        once = displace(displace(state, "q0", 0.3, -0.4), "q0", 1.1, 0.9)
        combined = displace(state, "q0", 1.4, 0.5)
        assert np.allclose(once.mean, combined.mean, atol=1e-14)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_rejected(self, bad):
        for dx, dp in ((bad, 0.0), (0.0, bad)):
            with pytest.raises(InvalidStateError, match="must be finite"):
                displace(vacuum(L1), L1, dx, dp)


class TestEPRVariance:
    def test_two_vacua(self):
        report = epr_variance(vacuum(M, A), M, A)
        assert report.delta_epr == pytest.approx(2.0)
        assert not report.entangled

    def test_thermal_mech(self):
        state = make_state([(M, 850.0, (0.0, 0.0)), (A, 0.0, (0.0, 0.0))])
        report = epr_variance(state, M, A)
        assert report.delta_epr == pytest.approx(2.0 * 851.0)

    def test_product_state_linearity(self, rng):
        for _ in range(20):
            na, nb = rng.exponential(3.0, size=2)
            state = make_state([(M, na, (0.0, 0.0)), (A, nb, (0.0, 0.0))])
            report = epr_variance(state, M, A)
            assert report.var_xsum == pytest.approx(na + nb + 1.0, rel=1e-12)
            assert report.var_pdiff == pytest.approx(na + nb + 1.0, rel=1e-12)

    def test_one_mode_in_both_roles_rejected(self):
        # Var(2 X) + Var(0) of a squeezed mode would read below 2
        squeezed = GaussianState((M, A), np.zeros(4), np.diag([0.1, 2.5, 0.5, 0.5]))
        for pos, neg in ((M, M), ("m", M), (A, "a")):
            with pytest.raises(ValueError, match="roles must differ"):
                epr_variance(squeezed, pos, neg)

    def test_pair_is_xsum_and_pdiff(self):
        assert epr_pair(2, 0) == ((4, 0, 1.0), (5, 1, -1.0))
        expected = np.zeros((2, 6))
        expected[0, [4, 0]] = 1.0  # X_2 + X_0
        expected[1, [5, 1]] = 1.0, -1.0  # P_2 - P_0
        assert np.array_equal(epr_forms(6, 2, 0), expected)

    def test_index_sums_equal_linear_forms(self, rng):
        for n_modes in (2, 3, 4):
            for _ in range(10):
                state = random_valid_state(n_modes, rng, max_squeeze=1.2)
                for pos, neg in itertools.permutations(range(n_modes), 2):
                    report = epr_variance(state, state.modes[pos], state.modes[neg])
                    _, cov = linear_form_moments(state, epr_forms(state.dim, pos, neg))
                    np.testing.assert_allclose(
                        [report.var_xsum, report.var_pdiff], np.diag(cov), rtol=1e-12
                    )


class TestModeIndex:
    MODES = (M, A, L1)

    def test_the_label_itself(self):
        assert [_mode_index(self.MODES, mode) for mode in self.MODES] == [0, 1, 2]

    def test_an_equal_label(self):
        # an equal label that is another object: found by equality
        copy = ModeLabel(A.kind, A.name)
        assert copy is not A and _mode_index(self.MODES, copy) == 1

    def test_a_name(self):
        assert _mode_index(self.MODES, "l1") == 2

    def test_the_name_of_another_kind_not_found(self):
        with pytest.raises(ValueError, match="not present"):
            _mode_index(self.MODES, light_mode("m"))

    def test_missing_mode_named_with_the_modes(self):
        with pytest.raises(ValueError) as caught:
            _mode_index(self.MODES, "q")
        assert str(caught.value) == (
            "mode 'q' not present in state ['mechanical:m', 'atomic:a', 'light:l1']"
        )


def looked_up_conditioning(modes, mean, cov, measurements, rng):
    """The conditioning kernel with each measured mode looked up by
    equality in the full mode list and dropped through a set of indices:
    the reference for the kernel's bookkeeping, whose arithmetic is the
    same."""
    left, dropped, records = list(modes), set(), []
    for mode, angle, outcome in measurements:
        label = left.pop(_mode_index(left, mode))
        idx = modes.index(label)
        dropped.add(idx)
        v = np.zeros(len(mean))
        v[2 * idx] = math.cos(angle)
        v[2 * idx + 1] = math.sin(angle)
        var_b = float(v @ cov @ v)
        mean_b = float(v @ mean)
        if isinstance(outcome, str):
            xi = float(rng.normal(mean_b, math.sqrt(var_b)))
        else:
            xi = float(outcome)
        records.append(MeasurementRecord(label, angle, xi, var_b))
        cross = cov @ v
        gain = cross / var_b
        mean = mean + gain * (xi - mean_b)
        cov = cov - gain[:, None] * cross
        cov = (cov + cov.T) / 2.0
    keep = np.array([j for j in range(len(mean)) if j // 2 not in dropped], dtype=np.intp)
    return tuple(left), mean.take(keep), cov.take(keep, 0).take(keep, 1), tuple(records)


def summed_report(cov: np.ndarray, pos: int, neg: int) -> tuple[float, float]:
    """The EPR pair's variances as sums of numpy scalars."""
    return tuple(
        float(cov[i, i] + cov[j, j] + 2.0 * s * cov[i, j]) for i, j, s in epr_pair(pos, neg)
    )


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_modes=st.integers(2, 4),
    scale=st.sampled_from([1.0, 1e4, 1e8]),
    order=st.permutations(range(4)),
    count=st.integers(1, 4),
    by=st.lists(st.sampled_from(["label", "equal", "name"]), min_size=4, max_size=4),
    angles=st.lists(st.floats(0.0, 2.0 * math.pi), min_size=4, max_size=4),
    sampled=st.lists(st.booleans(), min_size=4, max_size=4),
)
def test_conditioning_bookkeeping_is_the_lookup_by_equality(
    seed, n_modes, scale, order, count, by, angles, sampled
):
    # bit for bit as bytes: moments, records and the EPR figure off the result
    rng = np.random.default_rng(seed)
    state = random_valid_state(n_modes, rng)
    mean, cov = state.mean * math.sqrt(scale), state.cov * scale  # still physical
    measured = [m for m in order if m < n_modes][: min(count, n_modes)]
    spelled = {
        "label": lambda mode: mode,
        "equal": lambda mode: ModeLabel(mode.kind, mode.name),
        "name": lambda mode: mode.name,
    }
    measurements = [
        (spelled[by[k]](state.modes[m]), angles[k], "sample" if sampled[k] else 0.3 * k)
        for k, m in enumerate(measured)
    ]
    got = _conditioned(state.modes, mean, cov, measurements, np.random.default_rng(seed))
    want = looked_up_conditioning(
        state.modes, mean, cov, measurements, np.random.default_rng(seed)
    )
    assert got[0] == want[0]
    assert got[1].tobytes() == want[1].tobytes()
    assert got[2].tobytes() == want[2].tobytes()
    assert got[3] == want[3]
    assert [r.outcome_variance.hex() for r in got[3]] == [r.outcome_variance.hex() for r in want[3]]
    if len(got[0]) >= 2:
        report = _epr_report(got[2], 0, 1, Provenance.IDEALIZED_MAP)
        assert (report.var_xsum.hex(), report.var_pdiff.hex()) == tuple(
            value.hex() for value in summed_report(want[2], 0, 1)
        )


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_modes=st.integers(2, 4),
    squeeze=st.floats(0.0, 1.5),
    measured=st.integers(0, 3),
    angle=st.floats(0.0, 2.0 * math.pi),
)
def test_conditioning_never_adds_noise(seed, n_modes, squeeze, measured, angle):
    """The conditional covariance is below the marginal one in PSD order."""
    state = random_valid_state(n_modes, np.random.default_rng(seed), max_squeeze=squeeze)
    conditioned, _ = condition_on_homodyne(state, state.modes[measured % n_modes], angle, 0.3)
    kept = [q for m in conditioned.modes for q in (state.x_index(m), state.p_index(m))]
    marginal = state.cov[np.ix_(kept, kept)]
    gap = np.linalg.eigvalsh(marginal - conditioned.cov)
    assert gap[0] >= -1e-12 * np.abs(marginal).max()


def eigvalsh_rejects(cov: np.ndarray) -> bool:
    """The reference decision: the smallest eigenvalue of the real embedding
    of ``cov + i/2 * Omega`` lies below ``-UNCERTAINTY_TOL``."""
    half = symplectic_form(cov.shape[0] // 2) / 2.0
    embedding = np.block([[cov, -half], [half, cov]])
    return bool(np.linalg.eigvalsh(embedding)[0] < -UNCERTAINTY_TOL)


def squeezed_vacuum(r: float, angle: float) -> np.ndarray:
    c, s = math.cos(angle), math.sin(angle)
    rot = np.array([[c, -s], [s, c]])
    cov = rot @ np.diag([math.exp(2 * r) / 2, math.exp(-2 * r) / 2]) @ rot.T
    return (cov + cov.T) / 2


def two_mode_squeezed_vacuum(r: float) -> np.ndarray:
    c, s = math.cosh(2 * r) / 2, math.sinh(2 * r) / 2
    return np.array([[c, 0, s, 0], [0, c, 0, -s], [s, 0, c, 0], [0, -s, 0, c]])


def random_pure_state(n_modes: int, squeeze: float) -> np.ndarray:
    s = random_symplectic(n_modes, np.random.default_rng(17 + n_modes), max_squeeze=squeeze)
    return s @ s.T / 2


PURE_STATES = {
    **{f"squeezed-r{r}": squeezed_vacuum(r, 0.7) for r in (0.0, 1.0, 2.0, 4.0, 6.0, 8.0)},
    **{f"tmsv-r{r}": two_mode_squeezed_vacuum(r) for r in (0.5, 2.0, 4.0, 5.0)},
    **{
        f"random{n}-s{squeeze}": random_pure_state(n, squeeze)
        for n in (1, 2, 3)
        for squeeze in (0.5, 3.0)
    },
}


class TestUncertaintyCheck:
    """The shifted Cholesky decides as ``eigvalsh`` does, and decides alone
    for every state it accepts."""

    @pytest.fixture
    def fallbacks(self, monkeypatch) -> list:
        calls = []
        exact = gaussian._min_uncertainty_eigenvalue

        def counted(cov):
            calls.append(cov)
            return exact(cov)

        monkeypatch.setattr(gaussian, "_min_uncertainty_eigenvalue", counted)
        return calls

    @staticmethod
    def build(cov: np.ndarray) -> GaussianState:
        modes = tuple(light_mode(f"q{i}") for i in range(cov.shape[0] // 2))
        return GaussianState(modes, np.zeros(cov.shape[0]), cov)

    def rejects(self, cov: np.ndarray) -> bool:
        try:
            self.build(cov)
        except InvalidStateError:
            return True
        return False

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n_modes=st.integers(1, 3),
        squeeze=st.floats(0.0, 1.5),
        scale=st.floats(0.3, 1.0),
    )
    def test_decides_as_eigvalsh(self, seed, n_modes, squeeze, scale):
        cov = random_valid_state(n_modes, np.random.default_rng(seed), squeeze).cov * scale
        assert self.rejects(cov) == eigvalsh_rejects(cov)

    @pytest.mark.parametrize("name", PURE_STATES)
    def test_pure_states_pass_without_eigvalsh(self, name, fallbacks):
        cov = PURE_STATES[name]
        assert not eigvalsh_rejects(cov)
        assert not self.rejects(cov)
        assert fallbacks == []

    @pytest.mark.parametrize("name", PURE_STATES)
    def test_just_below_the_boundary_rejected(self, name, fallbacks):
        cov = PURE_STATES[name] - 10 * UNCERTAINTY_TOL * np.eye(len(PURE_STATES[name]))
        assert eigvalsh_rejects(cov)
        with pytest.raises(InvalidStateError, match="uncertainty relation violated") as err:
            self.build(cov)
        lam = float(str(err.value).rpartition("min eigenvalue ")[2].rstrip(")"))
        assert lam == pytest.approx(-10 * UNCERTAINTY_TOL, rel=0.05)
        assert len(fallbacks) == 1

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("field", ["mean", "cov"])
    def test_non_finite_moments_rejected_before_eigvalsh(self, field, bad, fallbacks):
        # checked first: LAPACK's Cholesky can carry a NaN through without
        # failing, and an infinity makes cov - cov.T warn
        mean, cov = np.zeros(2), np.diag([0.5, 0.5])
        {"mean": mean, "cov": cov}[field][0] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidStateError, match=f"^{field} must be finite$"):
                GaussianState((light_mode("q0"),), mean, cov)
        assert fallbacks == []

    def test_hot_state_below_the_boundary_rejected(self):
        # the allowance for roundoff grows with the largest entry; beside
        # 1e8 quanta it stays far below a 1e-3 dip of the atomic variance
        cov = np.diag([1e8 + 0.5, 1e8 + 0.5, 0.5 - 1e-3, 0.5 - 1e-3])
        with pytest.raises(InvalidStateError, match="uncertainty relation violated"):
            self.build(cov)

    def test_huge_finite_moments_are_not_taken_for_infinite(self):
        # their sum of squares overflows
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            state = GaussianState((light_mode("q0"),), [1e200, 0.0], np.diag([1e200, 1e200]))
        assert np.isfinite(state.cov).all() and np.isfinite(state.mean).all()

    def test_symmetric_covariance_near_the_float_limit_kept(self):
        # averaging it with its transpose overflows to infinity
        cov = np.full((2, 2), 1e308)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            settled = gaussian._settled(np.zeros(2), cov)
        assert np.array_equal(settled, cov)


    def test_roundoff_asymmetry_of_a_hot_state_averaged_away(self):
        # conditioning a pulse on 1e6 quanta leaves an asymmetry of 4.7e-10,
        # about eps max|cov| and above the absolute SYMMETRY_TOL
        from eprbus.iomaps import ProtocolParams, qnd_bigstep

        initial = make_state([(M, 1e6, (0.0, 0.0)), (A, 0.2, (0.1, 0.4))])
        joint = qnd_bigstep(initial, ProtocolParams.dimensionless(2.5))
        state, _ = condition_on_homodyne(joint, M, 0.4, 0.37)
        assert np.array_equal(state.cov, state.cov.T)

    @pytest.mark.parametrize("scale", [1.0, 1e6])
    def test_asymmetric_covariance_rejected(self, scale):
        # 1e-9 relative is millions of roundoffs of the largest entry
        cov = np.diag([scale, scale, 0.5, 0.5])
        cov[0, 2] = 1e-9 * scale
        with pytest.raises(InvalidStateError, match="covariance asymmetric by"):
            self.build(cov)


class TestLossChannel:
    def test_unit_transmission_identity(self, rng):
        state = random_valid_state(2, rng)
        out = loss_channel(state, "q0", 1.0)
        assert np.allclose(out.cov, state.cov)
        assert np.allclose(out.mean, state.mean)

    def test_full_loss_gives_vacuum(self, rng):
        state = random_valid_state(2, rng)
        out = loss_channel(state, "q1", 0.0)
        i = out.mode_index("q1")
        assert np.allclose(out.cov[2 * i : 2 * i + 2, 2 * i : 2 * i + 2], 0.5 * np.eye(2))
        assert np.allclose(out.mean[2 * i : 2 * i + 2], 0.0)

    def test_semigroup(self, rng):
        state = random_valid_state(2, rng)
        eta1, eta2 = 0.83, 0.64
        seq = loss_channel(loss_channel(state, "q0", eta1), "q0", eta2)
        combined = loss_channel(state, "q0", eta1 * eta2)
        assert np.allclose(seq.cov, combined.cov, atol=1e-10)
        assert np.allclose(seq.mean, combined.mean, atol=1e-10)

    def test_out_of_range(self):
        with pytest.raises(ValueError, match="transmission"):
            loss_channel(vacuum(L1), L1, 1.2)

    def test_detection_loss_matches_affine_law_to_first_order(self):
        # Loss on the measured meter mode before conditioning. The exact
        # effect is kappa^2 -> eta kappa^2; the affine loss law reproduces it
        # to first order once the effective loss fraction is calibrated at a
        # reference point.
        from eprbus.iomaps import COS_MODE, SIN_MODE, ProtocolParams, qnd_bigstep

        params = ProtocolParams.dimensionless(1.0, 0.0)
        initial = vacuum(M, A)

        def delta_for(eta: float) -> float:
            joint = qnd_bigstep(initial, params)
            if eta < 1.0:
                joint = loss_channel(joint, COS_MODE, eta)
                joint = loss_channel(joint, SIN_MODE, eta)
            s, _ = condition_on_homodyne(joint, COS_MODE, math.pi / 2, 0.0)
            s, _ = condition_on_homodyne(s, SIN_MODE, math.pi / 2, 0.0)
            return epr_variance(s, M, A).delta_epr

        delta0 = delta_for(1.0)
        ref_loss = 1e-4
        eps_eff_per_loss = (delta_for(1.0 - ref_loss) - delta0) / (2.0 - delta0) / ref_loss
        for loss in (1e-3, 3e-3, 1e-2):
            eps_eff = eps_eff_per_loss * loss
            affine = (1.0 - eps_eff) * delta0 + 2.0 * eps_eff
            exact = delta_for(1.0 - loss)
            assert exact == pytest.approx(affine, abs=5.0 * loss**2)


class TestInvariants:
    def test_symplectic_form_shared_and_read_only(self):
        omega = symplectic_form(3)
        expected = np.zeros((6, 6))
        for i in range(3):
            expected[2 * i, 2 * i + 1] = 1.0
            expected[2 * i + 1, 2 * i] = -1.0
        assert np.array_equal(omega, expected)
        assert symplectic_form(3) is omega
        with pytest.raises(ValueError, match="read-only"):
            omega[0, 1] = 2.0

    def test_symplectic_maps_preserve_form(self, rng):
        for n in (1, 2, 3):
            for _ in range(10):
                s = random_symplectic(n, rng)
                omega = symplectic_form(n)
                assert np.max(np.abs(s @ omega @ s.T - omega)) < 1e-10

    def test_symplectic_maps_preserve_uncertainty(self, rng):
        for _ in range(25):
            state = random_valid_state(3, rng)
            s = random_symplectic(3, rng)
            apply_linear_map(state, s)  # construction validates
