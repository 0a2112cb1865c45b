"""Idealized big-step input-output map of the cascaded protocol.

The light reflects off the optomechanical cavity after adiabatic
elimination (``p_out = -p_in - g sqrt(2/gamma_c) X_m``) and then crosses the
ensemble; with matched strengths ``g / sqrt(gamma_c) = kappa / sqrt(tau)``
it reads ``p'_out = -p_in - kappa sqrt(2/tau) (X_m + X_a)``.
:func:`qnd_bigstep` collapses the whole pulse into one symplectic map that
attaches two temporal light modes (cos/sin Fourier components at the Larmor
frequency) carrying the EPR observables:

    p_out_cos = p_in_cos + kappa (X_m + X_a)
    p_out_sin = p_in_sin + kappa (P_m - P_a)

The EPR combinations themselves are conserved exactly.  The map is
completed into a valid symplectic transformation by the back-action the
shared drive puts on the orthogonal combinations: ``X_m - X_a`` and
``P_m + P_a`` each gain ``2 kappa^2`` of variance.  This completion is the
unique one consistent with the underlying Langevin model and is
cross-checked against the moment-propagation oracle.  Propagation and
detection loss on the light then act on the two readout modes.

The readout is the p-quadrature of both temporal modes;
:func:`condition_on_readout` conditions a pulse's joint state on it.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, fields

import numpy as np

from .gaussian import (
    VACUUM_VARIANCE,
    GaussianState,
    ModeKind,
    MeasurementRecord,
    ModeLabel,
    _admix_loss,
    _channel_output,
    _condition,
    epr_forms,
    light_mode,
)

#: Below this value of Omega*tau the cos/sin temporal modes are not cleanly
#: independent and only the oracle should be trusted.
OMEGA_TAU_INDEPENDENT = 50.0

COS_MODE = light_mode("cos")
SIN_MODE = light_mode("sin")
#: Homodyne angle of the readout: the p-quadrature of each temporal mode.
_READOUT_ANGLE = math.pi / 2.0


class MatchingError(ValueError):
    """Coupling strengths violate the time-scale matching condition."""


@dataclass(frozen=True)
class ProtocolParams:
    """Model parameters of one pulse, dimensionless strengths plus SI rates.

    ``kappa`` is the QND measurement strength and ``n_i`` the initial thermal
    occupation of the mechanical mode.  The physical rates are only needed by
    the dynamics modules; :meth:`dimensionless` builds a consistent set with
    the matching condition ``kappa = g sqrt(tau / gamma_c)`` satisfied
    exactly.
    """

    kappa: float
    n_i: float = 0.0
    g: float = 0.0
    gamma_c: float = 1.0
    omega_m: float = 0.0
    Omega: float = 0.0
    tau: float = 1.0
    gamma_m: float = 0.0
    n_th: float = 0.0
    eps_mismatch: float = 0.0
    eta_light: float = 1.0
    eta_det: float = 1.0

    def __post_init__(self) -> None:
        for field in fields(self):
            if not math.isfinite(getattr(self, field.name)):
                raise ValueError(f"{field.name} must be finite")
        for name in ("kappa", "n_i", "gamma_c", "tau", "gamma_m", "n_th"):
            if getattr(self, name) < 0.0:
                raise ValueError(f"{name} must be non-negative")
        if self.tau <= 0.0 or self.gamma_c <= 0.0:
            raise ValueError("tau and gamma_c must be positive")
        for name in ("eta_light", "eta_det"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1]")

    @property
    def omega_tau(self) -> float:
        return self.Omega * self.tau

    @property
    def kappa_optical(self) -> float:
        """The light-side measurement strength ``g sqrt(tau / gamma_c)``."""
        return self.g * math.sqrt(self.tau / self.gamma_c)

    def matching_residual(self) -> float:
        """Signed mismatch ``(kappa - g sqrt(tau/gamma_c)) / (kappa + ...)``.

        Returns NaN when both sides vanish (degenerate).
        """
        other = self.kappa_optical
        total = self.kappa + other
        if total == 0.0:
            return float("nan")
        return (self.kappa - other) / total

    @classmethod
    def dimensionless(
        cls,
        kappa: float,
        n_i: float = 0.0,
        *,
        larmor_periods: int = 64,
        gamma_m: float = 0.0,
        n_th: float = 0.0,
        eps_mismatch: float = 0.0,
        eta_light: float = 1.0,
        eta_det: float = 1.0,
    ) -> "ProtocolParams":
        """Consistent parameter set for unit pulse time.

        An integer number of Larmor periods makes the temporal-mode
        normalization integrals exact, so the idealized map and the oracle
        agree to integration accuracy.  ``gamma_c`` is set far above every
        other rate (adiabatic elimination regime) and ``g`` is chosen so the
        matching condition holds exactly.
        """
        if larmor_periods < 1:
            raise ValueError("larmor_periods must be at least 1")
        omega = 2.0 * math.pi * larmor_periods
        gamma_c = 1e6
        g = kappa * math.sqrt(gamma_c)
        return cls(
            kappa=kappa,
            n_i=n_i,
            g=g,
            gamma_c=gamma_c,
            omega_m=omega,
            Omega=omega,
            gamma_m=gamma_m,
            n_th=n_th,
            eps_mismatch=eps_mismatch,
            eta_light=eta_light,
            eta_det=eta_det,
        )


@dataclass(frozen=True)
class PulseOutput:
    """Joint state after one pulse: system modes plus the cos/sin readout.

    The pulse map is symplectic; ``joint`` is its output after the light
    loss of the parameters, so it is the image of a symplectic map only
    when ``eta_light * eta_det = 1``.
    """

    joint: GaussianState
    positive_mass: ModeLabel
    negative_mass: ModeLabel


def _require_matching(params: ProtocolParams) -> None:
    eps = params.matching_residual()
    if math.isnan(eps):
        return  # both strengths zero: trivially matched
    if abs(eps) > abs(params.eps_mismatch) + 1e-12:
        raise MatchingError(
            f"matching residual {eps:.3e} exceeds declared mismatch "
            f"{params.eps_mismatch:.3e}; model the mismatch through the "
            "decoherence corrections or the oracle instead"
        )


def _resolve_roles(
    state: GaussianState,
    positive_mass: ModeLabel | str | None,
    negative_mass: ModeLabel | str | None,
) -> tuple[ModeLabel, ModeLabel]:
    def unique(kind: ModeKind) -> ModeLabel:
        found = [m for m in state.modes if m.kind is kind]
        if len(found) != 1:
            raise ValueError(
                f"state must contain exactly one {kind.value} mode to infer the "
                f"readout roles, found {len(found)}; pass the modes explicitly"
            )
        return found[0]

    pos = (
        state.modes[state.mode_index(positive_mass)]
        if positive_mass is not None
        else unique(ModeKind.MECHANICAL)
    )
    neg = (
        state.modes[state.mode_index(negative_mass)]
        if negative_mass is not None
        else unique(ModeKind.ATOMIC)
    )
    if pos == neg:
        raise ValueError("positive- and negative-mass roles must differ")
    return pos, neg


def qnd_bigstep(
    state: GaussianState,
    params: ProtocolParams,
    *,
    positive_mass: ModeLabel | str | None = None,
    negative_mass: ModeLabel | str | None = None,
) -> PulseOutput:
    """One pulse of the cascaded QND measurement as an exact symplectic map.

    The positive-mass oscillator contributes ``(+X, +P)`` and the
    negative-mass one ``(+X, -P)`` to the readout, so the cos mode reads
    ``X_pos + X_neg`` and the sin mode ``P_pos - P_neg``.  By default the
    roles are assigned to the state's mechanical and atomic mode; for a Bell
    measurement between two ensembles pass them explicitly.

    Fresh vacuum modes named ``cos`` and ``sin`` are appended.  The map is
    symplectic; after it, propagation and detection loss ``eta_light *
    eta_det`` admix vacuum into the cos and then the sin mode.

    The pulse works on the moments and wraps one state.  Its one check of
    the uncertainty relation is on the map's output (failure raises
    :class:`InvalidChannelError`): a symplectic map of the input and two
    vacua is physical exactly when the input is, and the loss that follows
    keeps a physical state physical.
    """
    pos, neg = _resolve_roles(state, positive_mass, negative_mass)
    _require_matching(params)
    if 0.0 < params.omega_tau < OMEGA_TAU_INDEPENDENT:
        warnings.warn(
            # rounded down, so that a value below the bound never prints as it
            f"Omega*tau = {math.floor(10.0 * params.omega_tau) / 10.0:.1f} is below "
            f"{OMEGA_TAU_INDEPENDENT:.0f}; the cos/sin temporal modes are not "
            "independent there and the idealized map is unreliable",
            stacklevel=2,
        )
    kappa = params.kappa

    # the input (+) the vacua of the cos and sin modes, at indices n and n + 1
    n, dim = state.n_modes, state.dim + 4
    mean = np.zeros(dim)
    mean[: state.dim] = state.mean
    cov = np.diag(np.full(dim, VACUUM_VARIANCE))
    cov[: state.dim, : state.dim] = state.cov
    i_pos, i_neg = state.mode_index(pos), state.mode_index(neg)
    xm, pm, xa, pa = 2 * i_pos, 2 * i_pos + 1, 2 * i_neg, 2 * i_neg + 1
    xc, pc, xs, ps = 2 * n, 2 * n + 1, 2 * n + 2, 2 * n + 3

    s = np.eye(dim)
    # back-action of the shared drive, split across the cos/sin input modes
    s[xm, xs] = -kappa
    s[pm, xc] = kappa
    s[xa, xs] = kappa
    s[pa, xc] = kappa
    # readout: the EPR pair
    s[[pc, ps]] += kappa * epr_forms(dim, i_pos, i_neg)

    mean = s @ mean
    cov = _channel_output(mean, s @ cov @ s.T)
    eta = params.eta_light * params.eta_det
    if eta < 1.0:
        for i in (n, n + 1):
            _admix_loss(mean, cov, i, eta)
    joint = GaussianState._wrap(state.modes + (COS_MODE, SIN_MODE), mean, cov)
    return PulseOutput(joint=joint, positive_mass=pos, negative_mass=neg)


def condition_on_readout(
    joint: GaussianState,
    outcomes: tuple[float, float] | None = (0.0, 0.0),
    *,
    rng: np.random.Generator | None = None,
) -> tuple[GaussianState, tuple[MeasurementRecord, MeasurementRecord]]:
    """Condition a pulse's joint state on the p-quadrature of the cos mode,
    then of the sin mode, and drop both.

    ``outcomes`` gives the two results; ``None`` samples them, in that order,
    with ``rng``.  Returns the conditioned state and the two records.
    """
    xi_cos, xi_sin = ("sample", "sample") if outcomes is None else map(float, outcomes)
    return _condition(
        joint, ((COS_MODE, _READOUT_ANGLE, xi_cos), (SIN_MODE, _READOUT_ANGLE, xi_sin)), rng
    )
