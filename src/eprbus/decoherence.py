"""Closed-form corrections: coupling mismatch, mechanical thermalization,
and linear optical loss.

:func:`mismatch_penalty`, :func:`damping_penalty` and :func:`photon_loss_map`
are the paper's perturbative budget terms, which :func:`apply_budget` folds
into a report.  The moment-propagation oracle realizes the same
imperfections physically and is the reference for their range of validity.
The mismatch budget term does not describe the mismatch the oracle realizes:
for a cold mode it is about twice the realized excess, and for a hot mode it
has the wrong sign and the wrong order in ``eps``.  :func:`mismatch_excess`
is the exact realized excess.  The damping term ignores the part of the
injected noise that the readout conditions away.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, fields

from .gaussian import EPRReport

#: Above this value of gamma_m * tau * n_th the perturbative damping
#: treatment is unreliable.
DAMPING_PERTURBATIVE_LIMIT = 0.1


@dataclass(frozen=True)
class LossBudget:
    """The three imperfection channels, all entries dimensionless."""

    eps_mismatch: float = 0.0
    photon_loss: float = 0.0
    gamma_m_tau: float = 0.0
    n_th: float = 0.0

    def __post_init__(self) -> None:
        for field in fields(self):
            if not math.isfinite(getattr(self, field.name)):
                raise ValueError(f"{field.name} must be finite")
        for name in ("eps_mismatch", "photon_loss", "gamma_m_tau", "n_th"):
            if getattr(self, name) < 0.0:
                raise ValueError(f"{name} must be non-negative")
        if self.photon_loss > 1.0:
            raise ValueError("photon_loss must not exceed 1")

    @property
    def empty(self) -> bool:
        return self.eps_mismatch == 0.0 and self.photon_loss == 0.0 and self.gamma_m_tau == 0.0


def mismatch_penalty(eps: float, kappa: float, n_i: float) -> float:
    """The paper's perturbative mismatch budget term ``(eps kappa (n_i + 2))^2``.

    This is the figure :func:`apply_budget` and the CLI ``corrected`` report
    use.  It is not the excess the modeled mismatch realizes; that is
    :func:`mismatch_excess`.
    """
    if eps < 0.0:
        raise ValueError("eps must be non-negative")
    return (eps * kappa * (n_i + 2.0)) ** 2


def mismatch_excess(eps: float, kappa: float, n_i: float) -> float:
    """Exact conditional EPR-variance excess of a coupling mismatch.

    The mismatch is the oracle's (:func:`eprbus.oracle.build_model`):
    ``kappa_m = kappa (1 + eps)`` and ``kappa_a = kappa (1 - eps)``, with
    ``eps`` signed, in the limit ``Omega tau -> inf`` over whole Larmor
    periods, conditioned on both temporal p-quadratures.  The pulse is then
    :func:`eprbus.iomaps.qnd_bigstep` with ``kappa_m`` and ``kappa_a`` in the
    system rows, while the time-ordered back-action adds to the readouts

        p_c' = p_c + kappa_m X_m + kappa_a X_a - 2 eps kappa^2 (x_s + r_s / sqrt3)
        p_s' = p_s + kappa_m P_m - kappa_a P_a + 2 eps kappa^2 (x_c + r_c / sqrt3)

    where ``r_c``, ``r_s`` are vacuum light modes with envelopes
    ``(tau/2 - t) cos(Omega t)`` and ``(tau/2 - t) sin(Omega t)``.  The two
    quadratures decouple.  With ``V = n_i + 1`` each EPR variable has
    variance ``s``, covariance ``c`` with its readout, and the readout has
    variance ``y``:

        s = V + 2 eps^2 kappa^2
        c = kappa (V + eps n_i) + 2 eps^2 kappa^3
        y = 1/2 + kappa^2 [V (1 + eps^2) + 2 eps n_i] + (8/3) eps^2 kappa^4

    so ``delta(eps) = 2 (s - c^2 / y)`` and the excess is
    ``delta(eps) - delta(0)``.  It is evaluated with the first-order terms
    of ``c^2 y(0) - c(0)^2 y`` cancelled by hand, which keeps it accurate for
    small ``eps``.  To first order it is
    ``-2 eps kappa^2 V n_i / (1/2 + kappa^2 V)^2``; for ``kappa = 1`` and
    ``n_i = 0`` it is ``(52/27) eps^2`` to leading order.
    """
    v = n_i + 1.0
    k2 = kappa**2
    e2 = eps**2
    y0 = 0.5 + k2 * v
    dc = eps * kappa * n_i + 2.0 * e2 * k2 * kappa  # c(eps) - c(0)
    dy = k2 * (v * e2 + 2.0 * eps * n_i) + (8.0 / 3.0) * e2 * k2**2  # y(eps) - y(0)
    # c^2 y(0) - c(0)^2 y with the cancelling first-order terms removed
    cross = kappa * v * dc + e2 * k2**2 * v**2 * (4.0 / 3.0 * k2 - v) + dc**2 * y0
    return 2.0 * (2.0 * e2 * k2 - cross / (y0 * (y0 + dy)))


def damping_penalty(gamma_m_tau: float, n_th: float) -> float:
    """Thermalization noise per quadrature, ``gamma_m tau (n_th + 1)``.

    The total EPR-variance addition is twice this value (one term per
    quadrature; the Langevin model is quadrature-symmetric).
    """
    if gamma_m_tau < 0.0 or n_th < 0.0:
        raise ValueError("gamma_m_tau and n_th must be non-negative")
    excess = gamma_m_tau * n_th
    if excess > DAMPING_PERTURBATIVE_LIMIT:
        if math.isfinite(excess):
            # rounded up to three digits, so that a value above the limit never prints as it
            scale = 10.0 ** (2 - math.floor(math.log10(excess)))
            excess = math.ceil(excess * scale) / scale
        warnings.warn(
            f"gamma_m*tau*n_th = {excess:.3g} exceeds the "
            f"perturbative regime (< {DAMPING_PERTURBATIVE_LIMIT})",
            stacklevel=2,
        )
    return gamma_m_tau * (n_th + 1.0)


def photon_loss_map(delta_epr: float, eps_opt: float) -> float:
    """Linear loss of the correlated light: ``(1 - eps) delta + 2 eps``.

    The fixed point sits at 2, so loss can degrade but never fake
    entanglement.
    """
    if not 0.0 <= eps_opt <= 1.0:
        raise ValueError("eps_opt must lie in [0, 1]")
    return (1.0 - eps_opt) * delta_epr + 2.0 * eps_opt


def apply_budget(
    report: EPRReport, budget: LossBudget, kappa: float, n_i: float
) -> EPRReport:
    """Fold a full loss budget into an EPR report.

    System-side imperfections (mismatch, damping) are added before the
    optical loss map because they occur before the light reaches the
    detector:

        delta' = (1 - eps_opt) [delta + mismatch + 2 damping] + 2 eps_opt

    The penalties split evenly between the two quadratures; provenance is
    preserved and the individual corrections are annotated.
    """
    mismatch = mismatch_penalty(budget.eps_mismatch, kappa, n_i)
    damping = damping_penalty(budget.gamma_m_tau, budget.n_th) if budget.gamma_m_tau else 0.0
    eps_opt = budget.photon_loss
    # the loss map per quadrature, on twice its variance (exact in floating point)
    var_xsum, var_pdiff = (
        photon_loss_map(2.0 * (var + mismatch / 2.0 + damping), eps_opt) / 2.0
        for var in (report.var_xsum, report.var_pdiff)
    )
    corrections = {
        "mismatch_penalty": mismatch,
        "damping_penalty_per_quadrature": damping,
        "photon_loss": eps_opt,
    }
    return EPRReport(
        var_xsum, var_pdiff, report.provenance, corrections=corrections, stderr=report.stderr
    )
