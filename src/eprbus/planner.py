"""Hardware feasibility: converts SI-unit setups into protocol parameters
and checks every validity condition the pulsed scheme relies on.

Conventions (the literature leaves several free; these are the ones used
here, and the corresponding acceptance tolerances are deliberately loose):

* cavity amplitude decay rate ``gamma_c = pi c / (2 F L)`` (half width),
* linearized optomechanical coupling ``g = g0 * alpha`` with
  ``g0 = (x0 / L) omega_c`` and ``alpha = sqrt(N_ph / (tau gamma_c))``,
* optical wavelength defaults to 1064 nm when a setup does not pin it,
* every "much greater/less than" condition is encoded as a factor-10 margin,
  warning from factor 5.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from enum import Enum

from .iomaps import OMEGA_TAU_INDEPENDENT, ProtocolParams

HBAR = 1.054571817e-34  # J s
K_B = 1.380649e-23  # J / K
C_LIGHT = 299792458.0  # m / s
TWO_PI = 2.0 * math.pi

DEFAULT_WAVELENGTH = 1.064e-6  # m

#: x >= MARGIN_PASS * y counts as "x much greater than y"; between
#: MARGIN_WARN and MARGIN_PASS the condition is flagged but not failed.
MARGIN_PASS = 10.0
MARGIN_WARN = 5.0


class CheckStatus(Enum):
    PASS = "pass"
    WARN = "warn"
    FAIL = "fail"


def _require_positive(spec, *nonnegative: str) -> None:
    """Every field of ``spec`` finite and positive, or non-negative where
    ``nonnegative`` names it.  Messages start with the field's name."""
    for field in fields(spec):
        value = getattr(spec, field.name)
        if not math.isfinite(value):
            raise ValueError(f"{field.name} must be finite, got {value}")
        if field.name in nonnegative:
            if value < 0.0:
                raise ValueError(f"{field.name} must be non-negative, got {value}")
        elif value <= 0.0:
            raise ValueError(f"{field.name} must be positive, got {value}")


@dataclass(frozen=True)
class MechanicalSpec:
    """The resonator: frequency in Hz, mass in kg, quality factor and bath
    temperature in K."""

    omega_m_hz: float
    mass_kg: float
    q_factor: float
    temperature_k: float

    def __post_init__(self) -> None:
        _require_positive(self)


@dataclass(frozen=True)
class CavitySpec:
    """The optical bus: finesse, length in m, drive power in W (zero allowed),
    pulse length in s and wavelength in m."""

    finesse: float
    length_m: float
    power_w: float
    tau_s: float
    wavelength_m: float = DEFAULT_WAVELENGTH

    def __post_init__(self) -> None:
        _require_positive(self, "power_w")


@dataclass(frozen=True)
class AtomSpec:
    """The ensemble: spontaneous decay rate and detuning in Hz, scattering
    cross section and beam area in m^2, atom number and Larmor frequency in
    Hz."""

    gamma_hz: float
    delta_hz: float
    sigma_m2: float
    area_m2: float
    n_atoms: float
    larmor_hz: float

    def __post_init__(self) -> None:
        _require_positive(self)


@dataclass(frozen=True)
class PhysicalSetup:
    """A hardware setup in SI units.  The spec fields are the keys of a
    scenario's ``setup`` section; Hz become rad/s in :func:`derive_params`.
    ``cooling_factor`` divides the thermal occupation (pre-cooling)."""

    mech: MechanicalSpec
    cavity: CavitySpec
    atoms: AtomSpec
    cooling_factor: float = 1.0

    def __post_init__(self) -> None:
        if not math.isfinite(self.cooling_factor):
            raise ValueError(f"cooling_factor must be finite, got {self.cooling_factor}")
        if self.cooling_factor < 1.0:
            raise ValueError(f"cooling_factor must be at least 1, got {self.cooling_factor}")


@dataclass(frozen=True)
class FeasibilityCheck:
    name: str
    ratio: float
    status: CheckStatus
    detail: str


@dataclass(frozen=True)
class FeasibilityReport:
    checks: tuple[FeasibilityCheck, ...]
    derived: dict

    @property
    def ok(self) -> bool:
        return all(c.status is not CheckStatus.FAIL for c in self.checks)


def _grade(ratio: float, pass_from: float = MARGIN_PASS) -> CheckStatus:
    if ratio >= pass_from:
        return CheckStatus.PASS
    if ratio >= MARGIN_WARN:
        return CheckStatus.WARN
    return CheckStatus.FAIL


def thermal_occupation(omega_m: float, temperature: float) -> float:
    """Equilibrium occupation ``k_B T / (hbar omega_m)`` (high-T form)."""
    return K_B * temperature / (HBAR * omega_m)


def _atomic_prefactor(atoms: AtomSpec) -> float:
    """``sigma Gamma / (A Delta)``, with both rates in rad/s."""
    return atoms.sigma_m2 * (TWO_PI * atoms.gamma_hz) / (atoms.area_m2 * (TWO_PI * atoms.delta_hz))


def derive_params(setup: PhysicalSetup) -> tuple[ProtocolParams, FeasibilityReport]:
    """Dimensionless protocol parameters plus a validity scorecard.

    The QND strength comes from the atomic side,
    ``kappa^2 = (sigma Gamma / (A Delta))^2 N_at N_ph``; the light side
    independently yields ``g sqrt(tau / gamma_c)``, and their signed relative
    difference is the stored matching residual.
    """
    mech, cav, atoms = setup.mech, setup.cavity, setup.atoms
    omega_m = TWO_PI * mech.omega_m_hz
    larmor = TWO_PI * atoms.larmor_hz
    tau = cav.tau_s
    x0 = math.sqrt(HBAR / (2.0 * mech.mass_kg * omega_m))
    omega_c = TWO_PI * C_LIGHT / cav.wavelength_m
    g0 = (x0 / cav.length_m) * omega_c
    gamma_c = math.pi * C_LIGHT / (2.0 * cav.finesse * cav.length_m)
    n_ph = cav.power_w * tau / (HBAR * omega_c)
    alpha = math.sqrt(n_ph / (tau * gamma_c))
    g = g0 * alpha
    kappa = _atomic_prefactor(atoms) * math.sqrt(atoms.n_atoms * n_ph)
    kappa_optical = g * math.sqrt(tau / gamma_c)
    n_th = thermal_occupation(omega_m, mech.temperature_k)
    n_i = n_th / setup.cooling_factor
    gamma_m = omega_m / mech.q_factor

    total = kappa + kappa_optical
    eps = (kappa - kappa_optical) / total if total > 0.0 else 1.0

    params = ProtocolParams(
        kappa=kappa,
        n_i=n_i,
        g=g,
        gamma_c=gamma_c,
        omega_m=omega_m,
        Omega=larmor,
        tau=tau,
        gamma_m=gamma_m,
        n_th=n_th,
        eps_mismatch=abs(eps),
    )

    checks = []

    def add(name: str, ratio: float, detail: str, status: CheckStatus | None = None):
        checks.append(
            FeasibilityCheck(name, ratio, status if status else _grade(ratio), detail)
        )

    add(
        "adiabatic_elimination_vs_g",
        gamma_c / g if g > 0 else math.inf,
        f"gamma_c/g = {gamma_c / g if g > 0 else math.inf:.1f}",
    )
    add(
        "adiabatic_elimination_vs_omega_m",
        gamma_c / omega_m,
        f"gamma_c/omega_m = {gamma_c / omega_m:.1f}",
    )
    # graded by the pulse's own bound: the pulse warns below it
    add(
        "temporal_mode_separation",
        larmor * tau / 1.0,
        f"Omega*tau = {larmor * tau:.1f} "
        f"(idealized map reliable above {OMEGA_TAU_INDEPENDENT:.0f})",
        status=_grade(larmor * tau, pass_from=OMEGA_TAU_INDEPENDENT),
    )
    thermal_ratio = (
        1.0 / (gamma_m * tau * n_th) if gamma_m * tau * n_th > 0 else math.inf
    )
    add(
        "pulse_within_coherence",
        thermal_ratio,
        f"1/(gamma_m tau n_th) = {thermal_ratio:.1f}",
    )
    eps_limit = 1.0 / (10.0 * n_i) if n_i > 0 else math.inf
    mismatch_ok = abs(eps) <= eps_limit
    add(
        "matching_within_tolerance",
        eps_limit / abs(eps) if eps != 0.0 else math.inf,
        f"|eps| = {abs(eps):.2e} vs tolerable {eps_limit:.2e}",
        status=CheckStatus.PASS if mismatch_ok else CheckStatus.FAIL,
    )

    derived = {
        "x0_m": x0,
        "omega_c_rad_s": omega_c,
        "g0_rad_s": g0,
        "gamma_c_rad_s": gamma_c,
        "n_ph": n_ph,
        "alpha": alpha,
        "g_rad_s": g,
        "kappa": kappa,
        "kappa_optical": kappa_optical,
        "eps_mismatch_signed": eps,
        "n_th": n_th,
        "n_i": n_i,
        "gamma_m_rad_s": gamma_m,
    }
    return params, FeasibilityReport(tuple(checks), derived)


@dataclass(frozen=True)
class CoherenceBudget:
    tau_thermal: float  # raw bound Q_m hbar / (k_B T)
    tau_max: float  # bound with the factor-10 margin applied
    limiting: str


def coherence_budget(setup: PhysicalSetup) -> CoherenceBudget:
    """Longest usable pulse before mechanical thermalization bites.

    The raw bound is ``Q_m hbar / (k_B T)``; the recommended maximum applies
    the factor-10 margin for the strict inequality.
    """
    tau_thermal = setup.mech.q_factor * HBAR / (K_B * setup.mech.temperature_k)
    if math.isinf(tau_thermal):
        return CoherenceBudget(math.inf, math.inf, "none")
    return CoherenceBudget(tau_thermal, tau_thermal / MARGIN_PASS, "mechanical_thermalization")


def matched_atom_number(setup: PhysicalSetup) -> float:
    """Ensemble size making the atomic strength equal the light side."""
    params, report = derive_params(setup)
    kappa_opt = report.derived["kappa_optical"]
    n_ph = report.derived["n_ph"]
    return (kappa_opt / _atomic_prefactor(setup.atoms)) ** 2 / n_ph


# ---------------------------------------------------------------------------
# reference setups


#: Alkali D-line scale; ``n_atoms`` is a placeholder that each setup matches
#: to its light side, and each setup tunes the Larmor frequency to its resonator.
_DEFAULT_ATOMS = dict(
    gamma_hz=5.2e6, delta_hz=1.0e9, sigma_m2=1.0e-13, area_m2=1.0e-8, n_atoms=1.0e5
)


def _with_matched_atoms(setup: PhysicalSetup) -> PhysicalSetup:
    n_at = matched_atom_number(setup)
    return replace(setup, atoms=replace(setup.atoms, n_atoms=n_at))


def micromirror_setup() -> PhysicalSetup:
    """Moving end-mirror example: 5 MHz, 1 ng, Q = 5e5 at 0.2 K, pre-cooled
    by a factor 30; finesse 4500, 100 uW drive, 300 um cavity."""
    setup = PhysicalSetup(
        mech=MechanicalSpec(omega_m_hz=5.0e6, mass_kg=1.0e-12, q_factor=5.0e5, temperature_k=0.2),
        cavity=CavitySpec(finesse=4500.0, length_m=300.0e-6, power_w=100.0e-6, tau_s=2.0e-6),
        atoms=AtomSpec(**_DEFAULT_ATOMS, larmor_hz=5.0e6),
        cooling_factor=30.0,
    )
    return _with_matched_atoms(setup)


def membrane_setup() -> PhysicalSetup:
    """Dispersively coupled membrane example: 30 MHz, 10 fg, Q = 1e5 at
    0.04 K, no pre-cooling; finesse 1100, 100 uW drive, 250 um cavity."""
    setup = PhysicalSetup(
        mech=MechanicalSpec(omega_m_hz=30.0e6, mass_kg=1.0e-14, q_factor=1.0e5, temperature_k=0.04),
        cavity=CavitySpec(finesse=1100.0, length_m=250.0e-6, power_w=100.0e-6, tau_s=2.0e-6),
        atoms=AtomSpec(**_DEFAULT_ATOMS, larmor_hz=30.0e6),
        cooling_factor=1.0,
    )
    return _with_matched_atoms(setup)
