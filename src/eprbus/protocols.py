"""End-to-end protocol drivers: EPR generation (conditional or with
feedback), closed-form predictions, verification by repetition, and
teleportation onto the mechanical mode.

The central closed form is the conditional EPR variance

    delta_epr = 2 / [ (1 + n_i)^(-1) + 2 kappa^2 ],

reached either by homodyne conditioning on the two temporal readout modes or
by displacing the spin with the optimal feedback gain
``g* = kappa V / (kappa^2 V + 1/2)``, ``V = 1 + n_i`` -- the two routes give
identical second moments for the EPR observables.

Entanglement survives an arbitrarily hot initial mechanical mode exactly when
the asymptotic value ``1/kappa^2`` stays below 2, i.e. ``kappa > 1/sqrt(2)
~= 0.707``.  (Folklore puts the threshold near ``kappa ~ 0.5``; the formula
says 0.707, and this package follows the formula.)

Each protocol resolves its roles once, runs ``iomaps._pulse`` on arrays and
reads its result off the joint moments, conditioned or as linear forms; it
builds only the state it returns, checking each step as a state would be.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .gaussian import (
    VACUUM_VARIANCE,
    EPRReport,
    GaussianState,
    Provenance,
    _check_uncertainty,
    _conditioned,
    _epr_report,
    _mode_index,
    _settled,
    atomic_mode,
    epr_forms,
)
from .iomaps import (
    _READOUT_ROWS,
    ParameterError,
    ProtocolParams,
    _pulse,
    _readout,
    _resolve_roles,
)


class FeedbackMode(Enum):
    CONDITIONAL = "conditional"
    FEEDBACK = "feedback"
    FEEDBACK_OPTIMAL = "feedback_optimal"


@dataclass(frozen=True)
class FeedbackConfig:
    """How the homodyne record is used: keep it (conditional) or feed it back."""

    mode: FeedbackMode
    gain: float = 0.0

    def __post_init__(self) -> None:
        if not math.isfinite(self.gain):
            raise ValueError("gain must be finite")
        if self.mode is FeedbackMode.FEEDBACK and self.gain < 0.0:
            raise ValueError("gain must be non-negative")

    @classmethod
    def conditional(cls) -> "FeedbackConfig":
        return cls(FeedbackMode.CONDITIONAL)

    @classmethod
    def with_gain(cls, gain: float) -> "FeedbackConfig":
        return cls(FeedbackMode.FEEDBACK, gain)

    @classmethod
    def optimal(cls) -> "FeedbackConfig":
        return cls(FeedbackMode.FEEDBACK_OPTIMAL)


def predict_epr_variance(kappa: float, n_i: float) -> float:
    """Minimal EPR variance of the protocol, ``2 / [(1 + n_i)^-1 + 2 kappa^2]``."""
    for name, value in (("kappa", kappa), ("n_i", n_i)):
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite")
    if kappa < 0.0 or n_i < 0.0:
        raise ValueError("kappa and n_i must be non-negative")
    return 2.0 / (1.0 / (1.0 + n_i) + 2.0 * kappa**2)


def predicted_report(kappa: float, n_i: float) -> EPRReport:
    delta = predict_epr_variance(kappa, n_i)
    return EPRReport(delta / 2.0, delta / 2.0, Provenance.PREDICTED)


def optimal_gain(kappa: float, n_i: float) -> float:
    """Feedback gain minimizing ``(1 - g kappa)^2 V + g^2 / 2``, ``V = 1 + n_i``.

    At this gain the per-quadrature variance equals the conditional one,
    ``V / (1 + 2 kappa^2 V)``, exactly.
    """
    if kappa <= 0.0:
        raise ValueError("optimal gain is undefined for kappa = 0")
    if n_i < 0.0:
        raise ValueError("n_i must be non-negative")
    v = 1.0 + n_i
    return kappa * v / (kappa**2 * v + 0.5)


def _feedback_ensemble(
    mean: np.ndarray, cov: np.ndarray, mech: int, atom: int, gain_cos: float, gain_sin: float
) -> tuple[np.ndarray, np.ndarray]:
    """Unconditional (ensemble-averaged) moments of the modes at indices
    ``mech`` and ``atom`` after feedback on the joint moments of a generation
    pulse, with gain ``gain_cos`` on the cos and ``gain_sin`` on the sin
    channel, its covariance settled and checked as a state's would be.
    Displacing by the record and discarding the light makes each system
    quadrature a linear form on the joint moments: no sample is drawn.
    """
    forms = np.eye(len(mean))[[2 * mech, 2 * mech + 1, 2 * atom, 2 * atom + 1]]
    # X_a -> X_a - g xi_cos, but P_a -> P_a + g xi_sin: the sin readout
    # carries +kappa (P_m - P_a), so only the positive kick shrinks it
    forms[[2, 3], _READOUT_ROWS] = -gain_cos, +gain_sin
    mean = forms @ mean
    cov = _settled(mean, forms @ cov @ forms.T)
    _check_uncertainty(cov)
    return mean, cov


def run_epr_generation(
    initial: GaussianState,
    params: ProtocolParams,
    fb: FeedbackConfig,
    *,
    rng: np.random.Generator | None = None,
    outcomes: tuple[float, float] | None = None,
):
    """Run one entangling pulse and consume the homodyne record.

    Conditional mode measures both temporal p-quadratures and keeps the
    conditioned system state.  Feedback modes additionally displace the
    atomic mode by the record (gains from ``fb`` or, for the optimal mode,
    ``Cov(signal, readout) / Var(readout)`` off the joint moments, optimal
    under detection loss too) and return a single-run state; feedback
    requires sampled or injected outcomes.

    Returns ``(state, report, (record_cos, record_sin))``.  The report always
    describes the prepared ensemble: for conditioning that is the conditional
    covariance (outcome independent); for feedback it is the unconditional
    covariance of the EPR observables, which at the optimal gain coincides
    with the conditional one.
    """
    mech, atom = _resolve_roles(initial, None, None)
    joint = _pulse(initial.modes, initial.mean, initial.cov, params, mech, atom)
    if outcomes is None and rng is None:
        if fb.mode is not FeedbackMode.CONDITIONAL:
            raise ValueError(
                "feedback requires measurement outcomes: pass rng to sample them "
                "or inject them via outcomes=(xi_cos, xi_sin)"
            )
        outcomes = (0.0, 0.0)
    modes, mean, cov, (rec_cos, rec_sin) = _conditioned(*joint, _readout(outcomes), rng)
    i_mech, i_atom = _mode_index(initial.modes, mech), _mode_index(initial.modes, atom)

    if fb.mode is FeedbackMode.CONDITIONAL:
        report = _epr_report(cov, i_mech, i_atom, Provenance.IDEALIZED_MAP)
    else:
        _, joint_mean, joint_cov = joint
        if fb.mode is FeedbackMode.FEEDBACK_OPTIMAL:
            # the signals X_m + X_a and P_m - P_a against the cos and sin readouts
            forms = np.zeros((4, len(joint_cov)))
            forms[[0, 2]] = epr_forms(len(joint_cov), i_mech, i_atom)
            forms[[1, 3], _READOUT_ROWS] = 1.0
            moments = forms @ joint_cov @ forms.T
            gain_cos, gain_sin = moments[0, 1] / moments[1, 1], moments[2, 3] / moments[3, 3]
        else:
            gain_cos = gain_sin = fb.gain
        # single-run state: conditional covariance, record-displaced mean
        xa = 2 * i_atom
        mean[xa : xa + 2] += -gain_cos * rec_cos.outcome, +gain_sin * rec_sin.outcome
        _, ensemble = _feedback_ensemble(joint_mean, joint_cov, i_mech, i_atom, gain_cos, gain_sin)
        report = _epr_report(ensemble, 0, 1, Provenance.IDEALIZED_MAP)
    state = GaussianState._wrap(modes, mean, _settled(mean, cov))
    return state, report, (rec_cos, rec_sin)


def verify_epr(
    state: GaussianState,
    params: ProtocolParams,
    *,
    shots: int | None = None,
    rng: np.random.Generator | None = None,
):
    """Infer the EPR variance by repeating the protocol and reading light.

    A second pulse is run on ``state``; after the light loss
    ``eta = eta_light * eta_det`` the readout statistics obey
    ``Var(p_out_cos) = 1/2 + eta kappa^2 Var(X_m + X_a)`` (same for sin/P),
    which is inverted for the EPR variances.  With ``shots`` given, that
    variance is estimated from sampled outcomes instead of taken exactly
    (:func:`_sampled_variances`, whose cost does not grow with ``shots``),
    and the report carries the standard error of the estimate.

    Returns ``(report, post_state)`` where ``post_state`` is the system after
    the verification pulse was itself conditioned on -- verification squeezes
    further.  Parameters whose readout carries no signal raise
    :class:`ParameterError`.
    """
    eta = params.eta_light * params.eta_det
    if eta * params.kappa == 0.0:
        raise ParameterError(
            "verification needs eta_light * eta_det * kappa > 0, otherwise light carries no signal"
        )
    joint = _pulse(state.modes, state.mean, state.cov, params, *_resolve_roles(state, None, None))
    _, mean, cov = joint
    idx = list(_READOUT_ROWS)
    signal = eta * params.kappa**2

    stderr = None
    if shots is None:
        var_cos, var_sin = cov[idx, idx]
    else:
        if shots < 2:
            raise ValueError("shots must be at least 2")
        if rng is None:
            raise ValueError("finite-shot estimation requires an explicit rng")
        var_cos, var_sin = _sampled_variances(cov[np.ix_(idx, idx)], shots, rng)
        se = np.array([var_cos, var_sin]) * math.sqrt(2.0 / (shots - 1))
        stderr = float(np.hypot(se[0], se[1]) / signal)

    var_xsum = (var_cos - 0.5) / signal
    var_pdiff = (var_sin - 0.5) / signal
    report = EPRReport(var_xsum, var_pdiff, Provenance.VERIFICATION_READOUT, stderr=stderr)

    modes, mean, cov, _ = _conditioned(*joint, _readout(), None)
    return report, GaussianState._wrap(modes, mean, _settled(mean, cov))


def _sampled_variances(cov: np.ndarray, shots: int, rng: np.random.Generator):
    """The two variances of the sample covariance of ``shots`` outcomes
    drawn from a normal law with the 2 x 2 covariance ``cov``.

    They are drawn from their exact law, not from outcomes: ``(shots - 1)``
    times the sample covariance is Wishart with ``shots - 1`` degrees of
    freedom, which is ``L A A^T L^T`` (the Bartlett decomposition), with
    ``L`` the Cholesky factor of ``cov`` and ``A`` lower triangular,
    ``A_11^2 ~ chi^2(shots - 1)``, ``A_22^2 ~ chi^2(shots - 2)`` (0 at two
    shots) and ``A_21 ~ N(0, 1)``.  The sample mean does not enter.
    """
    (l11, _), (l21, l22) = np.linalg.cholesky(cov)
    dof = shots - 1
    a11 = math.sqrt(rng.chisquare(dof))
    a21 = rng.standard_normal()
    a22_squared = rng.chisquare(dof - 1) if dof > 1 else 0.0
    return (l11 * a11) ** 2 / dof, ((l21 * a11 + l22 * a21) ** 2 + l22**2 * a22_squared) / dof


# ---------------------------------------------------------------------------
# teleportation


@dataclass(frozen=True)
class TeleportConfig:
    """Bell-measurement strength and feedback gain for state teleportation.

    ``asymptotic=True`` applies the exact limit ``kappa_qnd -> inf``,
    ``gain -> 0`` with ``kappa_qnd * gain = 1``; the finite settings are then
    ignored.  ``input_mean`` is stored as a tuple of two floats.
    """

    kappa_qnd: float = 0.0
    bell_gain: float = 0.0
    input_mean: tuple[float, float] = (0.0, 0.0)
    asymptotic: bool = False

    def __post_init__(self) -> None:
        if not isinstance(self.asymptotic, bool):
            raise ValueError(f"asymptotic must be true or false, got {self.asymptotic!r}")
        for name in ("kappa_qnd", "bell_gain"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        pair = tuple(self.input_mean) if np.iterable(self.input_mean) else ()
        if len(pair) != 2 or not all(
            isinstance(value, numbers.Real) and not isinstance(value, bool) for value in pair
        ):
            raise ValueError(f"input_mean must be a pair (x, p), got {self.input_mean!r}")
        if not all(map(math.isfinite, pair)):
            raise ValueError("input_mean must be finite")
        object.__setattr__(self, "input_mean", tuple(map(float, pair)))
        if self.kappa_qnd < 0.0:
            raise ValueError("kappa_qnd must be non-negative")
        if not self.asymptotic and self.kappa_qnd == 0.0:
            raise ValueError("kappa_qnd must be positive for finite-strength teleportation")


INPUT_ENSEMBLE = atomic_mode("input")


def gaussian_overlap_fidelity(
    mean_a: np.ndarray, cov_a: np.ndarray, mean_b: np.ndarray, cov_b: np.ndarray
) -> float:
    """Overlap fidelity of a pure Gaussian with a Gaussian state.

    ``F = exp(-delta^T (Sa + Sb)^-1 delta / 2) / sqrt(det(Sa + Sb))`` under
    the vacuum-1/2 convention; equals 1 for identical coherent states.
    """
    total = np.asarray(cov_a) + np.asarray(cov_b)
    delta = np.asarray(mean_a, dtype=float) - np.asarray(mean_b, dtype=float)
    det = float(np.linalg.det(total))
    if det <= 0.0:
        raise ValueError("covariance sum must be positive definite")
    exponent = -0.5 * float(delta @ np.linalg.solve(total, delta))
    return math.exp(exponent) / math.sqrt(det)


def teleport(epr_state: GaussianState, cfg: TeleportConfig):
    """Teleport a coherent spin state onto the mechanical mode.

    A second ensemble prepared coherent at ``cfg.input_mean`` is appended,
    a QND Bell pulse reads ``X_in + X_a`` and ``P_in - P_a`` (the two
    ensembles carry opposite Larmor signs, so the input plays the
    positive-mass role), and the record is fed back onto the mechanical
    mode:

        X_m -> X_m + g [p_cos + kappa_qnd (X_in + X_a)]
        P_m -> P_m + g [p_sin + kappa_qnd (P_in - P_a)]

    In the asymptotic limit this reduces to ``X_m + X_a + X_in`` and
    ``P_m - P_a + P_in``: amplitudes transfer exactly and each output
    quadrature gains half the resource EPR variance.  The fidelity against
    the input coherent state is the Gaussian overlap.

    The finite Bell pulse is lossless and reads only ``cfg.kappa_qnd``.
    Returns ``(final mechanical state, fidelity)``; the state is the
    unconditional ensemble state.  An unphysical resource fails the check of
    its joint with the input (``InvalidStateError``).
    """
    mech, atom = _resolve_roles(epr_state, None, None)
    if any(m.name == INPUT_ENSEMBLE.name for m in epr_state.modes):
        raise ValueError(f"mode name {INPUT_ENSEMBLE.name!r} is reserved for the input")
    # the resource, then the input, a displaced vacuum: checked as one state
    n = len(epr_state.modes)
    input_mean = np.array(cfg.input_mean, dtype=float)
    mean = np.concatenate([epr_state.mean, input_mean])
    cov = VACUUM_VARIANCE * np.eye(2 * n + 2)
    cov[: 2 * n, : 2 * n] = epr_state.cov
    cov = _settled(mean, cov)
    _check_uncertainty(cov)
    i_mech = epr_state.mode_index(mech)

    if cfg.asymptotic:
        # the resource pair plus the input, (X_m + X_a) + X_in and (P_m - P_a) + P_in
        forms = epr_forms(len(mean), i_mech, epr_state.mode_index(atom))
        forms[[0, 1], [2 * n, 2 * n + 1]] = 1.0
    else:
        modes = epr_state.modes + (INPUT_ENSEMBLE,)
        params = ProtocolParams.dimensionless(cfg.kappa_qnd)
        _, mean, cov = _pulse(modes, mean, cov, params, INPUT_ENSEMBLE, atom)
        forms = np.eye(len(mean))[[2 * i_mech, 2 * i_mech + 1]]
        forms[[0, 1], _READOUT_ROWS] = cfg.bell_gain
    final = GaussianState((mech,), forms @ mean, forms @ cov @ forms.T)
    return final, gaussian_overlap_fidelity(final.mean, final.cov, input_mean, 0.5 * np.eye(2))
