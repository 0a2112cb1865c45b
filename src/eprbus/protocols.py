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
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .gaussian import (
    EPRReport,
    GaussianState,
    Provenance,
    atomic_mode,
    displace,
    epr_forms,
    epr_variance,
    linear_form_moments,
    make_state,
    tensor,
)
from .iomaps import (
    COS_MODE,
    SIN_MODE,
    ProtocolParams,
    PulseOutput,
    _resolve_roles,
    condition_on_readout,
    qnd_bigstep,
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


def _moment_gains(pulse: PulseOutput) -> tuple[float, float]:
    """Per-channel optimal gains ``Cov(signal, readout) / Var(readout)``.

    Coincides with :func:`optimal_gain` for the lossless product input and
    stays optimal under detection loss.
    """
    joint = pulse.joint
    forms = np.zeros((4, joint.dim))
    forms[[0, 2]] = epr_forms(
        joint.dim, joint.mode_index(pulse.positive_mass), joint.mode_index(pulse.negative_mass)
    )
    forms[1, joint.p_index(COS_MODE)] = 1.0
    forms[3, joint.p_index(SIN_MODE)] = 1.0
    _, cov = linear_form_moments(joint, forms)
    return cov[0, 1] / cov[1, 1], cov[2, 3] / cov[3, 3]


def feedback_ensemble_state(
    initial: GaussianState, params: ProtocolParams, gain: float
) -> GaussianState:
    """Unconditional (ensemble-averaged) system state after feedback with
    ``gain`` on both channels.

    Computed deterministically from the input-output relations: displacing by
    the measured record and discarding the light makes each system quadrature
    a linear form on the joint state, so no sampling is involved.
    """
    return _feedback_ensemble(qnd_bigstep(initial, params), gain, gain)


def _feedback_ensemble(pulse: PulseOutput, gain_cos: float, gain_sin: float) -> GaussianState:
    """:func:`feedback_ensemble_state` of a pulse already taken, per-channel gains.

    The cos record is fed back as ``X_a -> X_a - g xi_cos``; the sin channel
    needs the opposite sign, ``P_a -> P_a + g xi_sin``, because the sin
    readout carries ``+kappa (P_m - P_a)`` so only the positive kick shrinks
    the difference.
    """
    joint, mech, atom = pulse.joint, pulse.positive_mass, pulse.negative_mass
    forms = np.eye(joint.dim)[
        [joint.x_index(mech), joint.p_index(mech), joint.x_index(atom), joint.p_index(atom)]
    ]
    forms[2, joint.p_index(COS_MODE)] = -gain_cos
    forms[3, joint.p_index(SIN_MODE)] = +gain_sin
    return GaussianState((mech, atom), *linear_form_moments(joint, forms))


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
    from the joint moments) and return a single-run state; feedback requires
    sampled or injected outcomes.

    Returns ``(state, report, (record_cos, record_sin))``.  The report always
    describes the prepared ensemble: for conditioning that is the conditional
    covariance (outcome independent); for feedback it is the unconditional
    covariance of the EPR observables, which at the optimal gain coincides
    with the conditional one.
    """
    pulse = qnd_bigstep(initial, params)
    mech, atom = pulse.positive_mass, pulse.negative_mass
    if outcomes is None and rng is None:
        if fb.mode is not FeedbackMode.CONDITIONAL:
            raise ValueError(
                "feedback requires measurement outcomes: pass rng to sample them "
                "or inject them via outcomes=(xi_cos, xi_sin)"
            )
        outcomes = (0.0, 0.0)
    conditioned, (rec_cos, rec_sin) = condition_on_readout(pulse.joint, outcomes, rng=rng)

    if fb.mode is FeedbackMode.CONDITIONAL:
        state = conditioned
        report = epr_variance(state, mech, atom, provenance=Provenance.IDEALIZED_MAP)
        return state, report, (rec_cos, rec_sin)

    if fb.mode is FeedbackMode.FEEDBACK_OPTIMAL:
        gain_cos, gain_sin = _moment_gains(pulse)
    else:
        gain_cos = gain_sin = fb.gain
    # single-run state: conditional covariance, record-displaced mean
    state = displace(conditioned, atom, -gain_cos * rec_cos.outcome, +gain_sin * rec_sin.outcome)
    ensemble = _feedback_ensemble(pulse, gain_cos, gain_sin)
    report = epr_variance(ensemble, mech, atom, provenance=Provenance.IDEALIZED_MAP)
    return state, report, (rec_cos, rec_sin)


def verify_epr(
    state: GaussianState,
    params: ProtocolParams,
    *,
    shots: int | None = None,
    rng: np.random.Generator | None = None,
):
    """Infer the EPR variance by repeating the protocol and reading light.

    A second pulse is run on ``state``; the readout statistics obey
    ``Var(p_out_cos) = 1/2 + kappa^2 Var(X_m + X_a)`` (same for sin/P), which
    is inverted for the EPR variances.  With ``shots`` given, that variance
    is estimated from sampled outcomes instead of taken exactly, and the
    report carries the standard error of the estimate.

    Returns ``(report, post_state)`` where ``post_state`` is the system after
    the verification pulse was itself conditioned on -- verification squeezes
    further.
    """
    if params.kappa <= 0.0:
        raise ValueError("verification needs kappa > 0, otherwise light carries no signal")
    joint = qnd_bigstep(state, params).joint
    pc, ps = joint.p_index(COS_MODE), joint.p_index(SIN_MODE)
    kappa_sq = params.kappa**2

    stderr = None
    if shots is None:
        var_cos = joint.cov[pc, pc]
        var_sin = joint.cov[ps, ps]
    else:
        if shots < 2:
            raise ValueError("shots must be at least 2")
        if rng is None:
            raise ValueError("finite-shot estimation requires an explicit rng")
        idx = [pc, ps]
        samples = rng.multivariate_normal(
            joint.mean[idx], joint.cov[np.ix_(idx, idx)], size=shots
        )
        var_cos, var_sin = np.var(samples, axis=0, ddof=1)
        se = np.array([var_cos, var_sin]) * math.sqrt(2.0 / (shots - 1))
        stderr = float(np.hypot(se[0], se[1]) / kappa_sq)

    var_xsum = (var_cos - 0.5) / kappa_sq
    var_pdiff = (var_sin - 0.5) / kappa_sq
    report = EPRReport(var_xsum, var_pdiff, Provenance.VERIFICATION_READOUT, stderr=stderr)

    post, _ = condition_on_readout(joint)
    return report, post


# ---------------------------------------------------------------------------
# teleportation


@dataclass(frozen=True)
class TeleportConfig:
    """Bell-measurement strength and feedback gain for state teleportation.

    ``asymptotic=True`` applies the exact limit ``kappa_qnd -> inf``,
    ``gain -> 0`` with ``kappa_qnd * gain = 1``; the finite settings are then
    ignored.
    """

    kappa_qnd: float = 0.0
    bell_gain: float = 0.0
    input_mean: tuple[float, float] = (0.0, 0.0)
    asymptotic: bool = False

    def __post_init__(self) -> None:
        for name in ("kappa_qnd", "bell_gain"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if not all(map(math.isfinite, self.input_mean)):
            raise ValueError("input_mean must be finite")
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


def teleport(
    epr_state: GaussianState,
    params: ProtocolParams,
    cfg: TeleportConfig,
):
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

    Returns ``(final mechanical state, fidelity)``.  As with feedback-based
    generation, the output is the unconditional ensemble state, computed
    without sampling.
    """
    mech, atom = _resolve_roles(epr_state, None, None)
    if any(m.name == INPUT_ENSEMBLE.name for m in epr_state.modes):
        raise ValueError(f"mode name {INPUT_ENSEMBLE.name!r} is reserved for the input")
    joint = tensor(
        epr_state, make_state([(INPUT_ENSEMBLE, 0.0, cfg.input_mean)])
    )

    if cfg.asymptotic:
        # the resource pair plus the input, (X_m + X_a) + X_in and (P_m - P_a) + P_in
        forms = epr_forms(joint.dim, joint.mode_index(mech), joint.mode_index(atom))
        forms[0, joint.x_index(INPUT_ENSEMBLE)] = 1.0
        forms[1, joint.p_index(INPUT_ENSEMBLE)] = 1.0
        mean_out, cov_out = linear_form_moments(joint, forms)
        final = GaussianState((mech,), mean_out, cov_out)
    else:
        bell_params = ProtocolParams.dimensionless(
            cfg.kappa_qnd, tau=params.tau, larmor_periods=max(round(params.omega_tau / (2 * math.pi)), 64)
        )
        pulse = qnd_bigstep(
            joint, bell_params, positive_mass=INPUT_ENSEMBLE, negative_mass=atom
        )
        bj = pulse.joint
        forms = np.eye(bj.dim)[[bj.x_index(mech), bj.p_index(mech)]]
        forms[0, bj.p_index(COS_MODE)] = cfg.bell_gain
        forms[1, bj.p_index(SIN_MODE)] = cfg.bell_gain
        final = GaussianState((mech,), *linear_form_moments(bj, forms))

    fidelity = gaussian_overlap_fidelity(
        final.mean,
        final.cov,
        np.array(cfg.input_mean, dtype=float),
        0.5 * np.eye(2),
    )
    return final, fidelity
