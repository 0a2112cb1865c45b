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
:func:`condition_on_readout` conditions a pulse's joint state on it.  Both
steps have a private kernel on arrays, :func:`_pulse` and, with the
measurements of :func:`_readout`, ``gaussian._conditioned``.  Each public
function is a kernel and one wrap; the protocols call the kernels, so they
wrap no state between the pulse and their result.
"""

from __future__ import annotations

import functools
import math
import numbers
import operator
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
    _mode_index,
    _require_unique_names,
    epr_pair,
    light_mode,
)

#: Below this value of Omega*tau the cos/sin temporal modes are not cleanly
#: independent and only the oracle should be trusted.
OMEGA_TAU_INDEPENDENT = 50.0

COS_MODE = light_mode("cos")
SIN_MODE = light_mode("sin")
#: Homodyne angle of the readout: the p-quadrature of each temporal mode.
_READOUT_ANGLE = math.pi / 2.0
#: The rows of the readout, p of cos and p of sin, in the moments of a
#: pulse's joint modes, whose last two they are.
_READOUT_ROWS = (-3, -1)


class MatchingError(ValueError):
    """Coupling strengths violate the time-scale matching condition."""


class ParameterError(ValueError):
    """A protocol step refuses the parameters it was given: an input error,
    not a numerical failure on the way."""


def _is_integer(value) -> bool:
    """An integer, numpy's included, and not a boolean: ``true`` is not 1."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


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
        for name, value in zip(_PARAM_NAMES, _param_values(self)):
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite")
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
        if not _is_integer(larmor_periods):
            raise ValueError(f"larmor_periods must be an integer, got {larmor_periods!r}")
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


#: The fields of :class:`ProtocolParams` in order, read once, and a getter
#: of their values as a tuple.
_PARAM_NAMES = tuple(field.name for field in fields(ProtocolParams))
_param_values = operator.attrgetter(*_PARAM_NAMES)


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
    # both are modes of the state, whose names are unique: equal only when one
    if pos is neg:
        raise ValueError("positive- and negative-mass roles must differ")
    return pos, neg


def qnd_bigstep(
    state: GaussianState,
    params: ProtocolParams,
    *,
    positive_mass: ModeLabel | str | None = None,
    negative_mass: ModeLabel | str | None = None,
) -> GaussianState:
    """One pulse of the cascaded QND measurement as an exact symplectic map.

    The positive-mass oscillator contributes ``(+X, +P)`` and the
    negative-mass one ``(+X, -P)`` to the readout, so the cos mode reads
    ``X_pos + X_neg`` and the sin mode ``P_pos - P_neg``.  By default the
    roles are assigned to the state's mechanical and atomic mode; for a Bell
    measurement between two ensembles pass them explicitly.

    Returns the joint state over the input's modes followed by fresh modes
    named ``cos`` and ``sin``, the layout the oracle's pulse returns.  The
    map is symplectic; after it, propagation and detection loss
    ``eta_light * eta_det`` admix vacuum into the cos and then the sin mode,
    so the joint state is the image of a symplectic map only when
    ``eta_light * eta_det = 1``.

    The pulse is the roles resolved, the kernel :func:`_pulse` and one
    wrap; an unphysical input raises :class:`InvalidChannelError` there.
    """
    pos, neg = _resolve_roles(state, positive_mass, negative_mass)
    return GaussianState._wrap(*_pulse(state.modes, state.mean, state.cov, params, pos, neg))


def _pulse(
    modes: tuple[ModeLabel, ...],
    mean: np.ndarray,
    cov: np.ndarray,
    params: ProtocolParams,
    pos: ModeLabel,
    neg: ModeLabel,
) -> tuple[tuple[ModeLabel, ...], np.ndarray, np.ndarray]:
    """:func:`qnd_bigstep` on a state's modes and moments, with its roles
    resolved: the joint modes, their names checked unique, and their settled
    moments, checked on the map's output, which is physical exactly when the
    input is (the loss that follows keeps it physical)."""
    _require_matching(params)
    if 0.0 < params.omega_tau < OMEGA_TAU_INDEPENDENT:
        warnings.warn(
            # rounded down, so that a value below the bound never prints as it
            f"Omega*tau = {math.floor(10.0 * params.omega_tau) / 10.0:.1f} is below "
            f"{OMEGA_TAU_INDEPENDENT:.0f}; the cos/sin temporal modes are not "
            "independent there and the idealized map is unreliable",
            stacklevel=3,
        )
    kappa = params.kappa

    # the input (+) the vacua of the cos and sin modes, at indices n and n + 1
    n = len(modes)
    identity, vacuum, entries, (sign_x, sign_p) = _pulse_layout(
        n, _mode_index(modes, pos), _mode_index(modes, neg)
    )
    joint_mean = np.zeros(len(identity))
    joint_mean[: 2 * n] = mean
    joint_cov = vacuum.copy()
    joint_cov[: 2 * n, : 2 * n] = cov
    # the readout entries are 0 + kappa * sign, as the identity plus kappa
    # times the pair's forms has them: never -0.0
    readout = (0.0 + kappa, 0.0 + kappa * sign_x, 0.0 + kappa, 0.0 + kappa * sign_p)
    s = identity.copy()
    s.put(entries, (-kappa, kappa, kappa, kappa, *readout))

    mean = s @ joint_mean
    cov = _channel_output(mean, s @ joint_cov @ s.T)
    eta = params.eta_light * params.eta_det
    if eta < 1.0:
        for i in (n, n + 1):
            _admix_loss(mean, cov, i, eta)
    modes += (COS_MODE, SIN_MODE)
    _require_unique_names(modes)
    return modes, mean, cov


@functools.lru_cache(maxsize=16)
def _pulse_layout(
    n: int, i_pos: int, i_neg: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, tuple[float, float]]:
    """What the map of :func:`_pulse` on ``n`` modes, with the roles at mode
    indices ``i_pos`` and ``i_neg``, takes from the layout alone; read-only.

    Returns the identity and the vacuum covariance of the joint modes, the
    flat indices of the map's eight ``kappa`` entries and the signs of the
    EPR pair (:func:`epr_pair`).  The entries are the back-action of the
    shared drive, split across the cos/sin input modes, then the readout of
    the pair on the cos and sin modes.
    """
    dim = 2 * n + 4
    (xm, xa, sign_x), (pm, pa, sign_p) = epr_pair(i_pos, i_neg)
    xc, pc, xs, ps = 2 * n, 2 * n + 1, 2 * n + 2, 2 * n + 3
    rows = (xm, pm, xa, pa, pc, pc, ps, ps)
    columns = (xs, xc, xs, xc, xm, xa, pm, pa)
    entries = np.ravel_multi_index((rows, columns), (dim, dim))
    identity = np.eye(dim)
    vacuum = VACUUM_VARIANCE * identity
    for array in (identity, vacuum, entries):
        array.setflags(write=False)
    return identity, vacuum, entries, (sign_x, sign_p)


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
    return _condition(joint, _readout(outcomes), rng)


def _readout(outcomes: tuple[float, float] | None = (0.0, 0.0)) -> tuple[tuple, tuple]:
    """The measurements of :func:`condition_on_readout`, as the conditioning
    kernel ``gaussian._conditioned`` takes them."""
    xi_cos, xi_sin = ("sample", "sample") if outcomes is None else map(float, outcomes)
    return (COS_MODE, _READOUT_ANGLE, xi_cos), (SIN_MODE, _READOUT_ANGLE, xi_sin)
