"""Independent verification path: continuous-time moment propagation.

Instead of the collapsed pulse map, this module integrates the full linear
Langevin system over the pulse,

    dX_m/dt = +omega_m P_m - (gamma_m/2) X_m
    dP_m/dt = -omega_m X_m - (gamma_m/2) P_m + c_m x_in(t)
    dX_a/dt = -Omega P_a
    dP_a/dt = +Omega X_a + c_a x_in(t)

(the spin rotates with the opposite sign -- the negative-mass convention --
so the EPR combinations ``X_m + X_a`` and ``P_m - P_a`` are free of light
back-action when the couplings match), together with accumulators for the
cos/sin temporal components of the output field,

    dY_pc/dt = sqrt(2/tau) cos(Omega t) [p_in + c_m X_m + c_a X_a]
    dY_ps/dt = sqrt(2/tau) sin(Omega t) [p_in + c_m X_m + c_a X_a]
    dY_xc/dt = sqrt(2/tau) cos(Omega t) x_in
    dY_xs/dt = sqrt(2/tau) sin(Omega t) x_in

where ``c = kappa sqrt(2/tau)`` and the vacuum inputs have symmetrized
correlators ``delta(t - t') / 2``.  The dynamics are linear, so first and
second moments are exact and obey ``dSigma/dt = A Sigma + Sigma A^T + D``
and ``dmean/dt = A mean``; a fixed-step fourth-order (RK4) integrator
propagates them.

Both equations are linear in the augmented state ``x = [vec Sigma; mean; 1]``
of 73 entries, ``dx/dt = G(t) x``, and ``G`` depends on time only through
the Larmor phase: ``G(t) = sum_j f_j(t) B_j`` with
``f = (1, cos, sin, cos^2, sin^2, cos sin)`` of ``Omega t``.  The ``B_j`` are
read off :meth:`DriftNoiseModel.drift_matrix` and
:meth:`DriftNoiseModel.noise_columns`, so the physics is written once.  One
RK4 kernel steps either a state or a 73 x 73 matrix of states, and two
routes use it:

* the *period route*, for every grid commensurate with the Larmor period.
  When ``q = 2 pi / (Omega dt)`` is a whole number (within roundoff), every
  Larmor period repeats the same ``q`` step maps.  Stepping the identity
  through one period gives the period map ``P`` (the monodromy matrix of
  Floquet theory); the pulse is ``P`` applied once per whole period, then
  the remaining steps of a fractional period.  Per-step output (trajectory
  rows, the conservation drift) is read off the same visit: it records
  the rows ``L C_j`` for each step ``j`` of the period, with ``C_j`` the map
  from the period start to step ``j`` and ``L`` the five output forms, so
  every step's output is those rows applied to its period-start state.
* the *stepped route* steps the state itself.  It serves grids that are
  not commensurate.

Either way the result is the same RK4 scheme on the same grid: each RK4
step is a linear map of ``x``, so composing the step maps of a period first
changes only the order of the floating-point operations (agreement to about
1e-13 relative in the covariance and the per-step output).  Without
per-step output, ``P`` is cached per drift model with ``n_i`` cleared
(``n_i`` only sets the initial state), so a grid over initial occupations
builds it once.  With per-step output, ``P`` and its rows are built afresh
and not cached: the rows take about 0.6 MB a drift model, ten times the map.

Coupling mismatch is realized physically through distinct mechanical and
atomic strengths ``kappa_m = kappa (1 + eps)``, ``kappa_a = kappa (1 - eps)``
(so ``eps = (kappa_m - kappa_a) / (kappa_m + kappa_a)``); mechanical damping
through ``-gamma_m / 2`` on both mechanical quadratures plus diffusion
``gamma_m (n_th + 1)`` per quadrature, matching the Langevin noise variance
``n_th + 1`` used by the closed-form damping correction.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace
from typing import Callable, TextIO

import numpy as np

from .gaussian import (
    GaussianState,
    ModeKind,
    Provenance,
    atomic_mode,
    condition_on_homodyne,
    epr_forms,
    epr_variance,
    mechanical_mode,
)
from .iomaps import COS_MODE, SIN_MODE, ProtocolParams

#: Minimum integration resolution from the convergence study: the
#: fourth-order scheme holds the EPR-conservation drift below 1e-6 relative
#: at this density.
MIN_STEPS_PER_PERIOD = 200

# state vector ordering
_XM, _PM, _XA, _PA, _YXC, _YPC, _YXS, _YPS = range(8)

# augmented state x = [vec Sigma (row-major); mean; 1]
_N_SIGMA = 64
_MEAN = slice(_N_SIGMA, _N_SIGMA + 8)
_DIM = _N_SIGMA + 8 + 1

#: Relative distance of ``2 pi / (Omega dt)`` from a whole number below which
#: the grid counts as commensurate with the Larmor period (roundoff only).
_COMMENSURATE_RTOL = 1e-12


def _output_forms() -> np.ndarray:
    """Linear forms on ``x`` giving the per-step output (``L`` above).

    The rows are ``Var(X_m + X_a)``, the covariance of that with
    ``P_m - P_a``, ``Var(P_m - P_a)``, ``Var(Y_pc)`` and ``Var(Y_ps)``.
    """
    pair = epr_forms(8, 0, 1)
    ypc, yps = np.eye(8)[[_YPC, _YPS]]
    forms = np.zeros((5, _DIM))
    for row, (a, b) in enumerate(
        ((pair[0], pair[0]), (pair[0], pair[1]), (pair[1], pair[1]), (ypc, ypc), (yps, yps))
    ):
        forms[row, :_N_SIGMA] = ((np.outer(a, b) + np.outer(b, a)) / 2.0).ravel()
    return forms


_OUTPUT_FORMS = _output_forms()

#: Trajectory rows formatted per write; about one Larmor period, so the text
#: of a whole pulse is never held at once.
_CSV_CHUNK_ROWS = MIN_STEPS_PER_PERIOD


@dataclass(frozen=True)
class DriftNoiseModel:
    """Drift/diffusion description of one pulse, ready to integrate."""

    params: ProtocolParams
    kappa_mech: float
    kappa_atom: float
    damping: bool
    n_steps: int
    dt: float

    @property
    def tau(self) -> float:
        return self.params.tau

    @property
    def thermal_diffusion(self) -> float:
        """Diffusion per mechanical quadrature, ``gamma_m (n_th + 1)``."""
        if not self.damping:
            return 0.0
        return self.params.gamma_m * (self.params.n_th + 1.0)

    def drift_matrix(self, t: float) -> np.ndarray:
        p = self.params
        a = np.zeros((8, 8))
        half_damping = 0.5 * p.gamma_m if self.damping else 0.0
        a[_XM, _PM] = p.omega_m
        a[_PM, _XM] = -p.omega_m
        a[_XM, _XM] = a[_PM, _PM] = -half_damping
        a[_XA, _PA] = -p.Omega
        a[_PA, _XA] = p.Omega
        weight = 2.0 / p.tau  # sqrt(2/tau) readout x sqrt(2/tau) coupling
        cos, sin = math.cos(p.Omega * t), math.sin(p.Omega * t)
        a[_YPC, _XM] = weight * self.kappa_mech * cos
        a[_YPC, _XA] = weight * self.kappa_atom * cos
        a[_YPS, _XM] = weight * self.kappa_mech * sin
        a[_YPS, _XA] = weight * self.kappa_atom * sin
        return a

    def noise_columns(self, t: float) -> np.ndarray:
        """Columns ``b_k`` of the noise intensity, ``D = sum_k b_k b_k^T``."""
        p = self.params
        cos, sin = math.cos(p.Omega * t), math.sin(p.Omega * t)
        inv_sqrt_tau = 1.0 / math.sqrt(p.tau)
        sqrt2_tau = math.sqrt(2.0 / p.tau)
        b_x = np.zeros(8)
        b_x[_PM] = self.kappa_mech * sqrt2_tau / math.sqrt(2.0)
        b_x[_PA] = self.kappa_atom * sqrt2_tau / math.sqrt(2.0)
        b_x[_YXC] = cos * inv_sqrt_tau
        b_x[_YXS] = sin * inv_sqrt_tau
        b_p = np.zeros(8)
        b_p[_YPC] = cos * inv_sqrt_tau
        b_p[_YPS] = sin * inv_sqrt_tau
        columns = [b_x, b_p]
        d_th = self.thermal_diffusion
        if d_th > 0.0:
            root = math.sqrt(d_th)
            b_tx = np.zeros(8)
            b_tx[_XM] = root
            b_tp = np.zeros(8)
            b_tp[_PM] = root
            columns.extend([b_tx, b_tp])
        return np.stack(columns, axis=1)


def build_model(
    params: ProtocolParams,
    *,
    damping: bool = False,
    mismatch: bool = False,
    steps_per_period: int = MIN_STEPS_PER_PERIOD,
) -> DriftNoiseModel:
    """Assemble the drift/diffusion model for one pulse.

    ``mismatch=True`` splits the coupling strengths according to
    ``params.eps_mismatch``; otherwise both sides use ``params.kappa``
    regardless of any declared mismatch.  The step count honors at least
    :data:`MIN_STEPS_PER_PERIOD` steps per Larmor period; a product of
    steps and periods that is whole up to roundoff is taken as whole, so
    whole and half periods keep a grid commensurate with the period.
    """
    if params.Omega <= 0.0:
        raise ValueError("oracle propagation requires a positive Larmor frequency")
    if not math.isclose(params.omega_m, params.Omega, rel_tol=1e-9):
        raise ValueError(
            "oracle requires matched frequencies omega_m == Omega; coupling "
            "mismatch is the only imperfection modeled dynamically"
        )
    if steps_per_period < MIN_STEPS_PER_PERIOD:
        raise ValueError(f"steps_per_period must be >= {MIN_STEPS_PER_PERIOD}")
    eps = params.eps_mismatch if mismatch else 0.0
    kappa_mech = params.kappa * (1.0 + eps)
    kappa_atom = params.kappa * (1.0 - eps)
    steps = steps_per_period * params.omega_tau / (2.0 * math.pi)
    whole = round(steps)
    if not math.isclose(steps, whole, rel_tol=_COMMENSURATE_RTOL):
        whole = math.ceil(steps)
    n_steps = max(whole, steps_per_period)
    return DriftNoiseModel(
        params=params,
        kappa_mech=kappa_mech,
        kappa_atom=kappa_atom,
        damping=damping,
        n_steps=n_steps,
        dt=params.tau / n_steps,
    )


def _initial_moments(
    model: DriftNoiseModel, initial: GaussianState | None
) -> tuple[np.ndarray, np.ndarray, tuple]:
    mean = np.zeros(8)
    cov = np.zeros((8, 8))
    if initial is None:
        mech, atom = mechanical_mode("m"), atomic_mode("a")
        cov[_XM, _XM] = cov[_PM, _PM] = model.params.n_i + 0.5
        cov[_XA, _XA] = cov[_PA, _PA] = 0.5
    else:
        if initial.n_modes != 2:
            raise ValueError("initial state must contain exactly the two system modes")
        mech, atom = initial.modes
        if mech.kind is not ModeKind.MECHANICAL or atom.kind is not ModeKind.ATOMIC:
            raise ValueError(
                "initial state must be ordered (mechanical, atomic); "
                f"got ({mech}, {atom})"
            )
        mean[:4] = initial.mean
        cov[:4, :4] = initial.cov
    return mean, cov, (mech, atom)


def propagate_moments(
    model: DriftNoiseModel,
    *,
    initial: GaussianState | None = None,
    trajectory: TextIO | None = None,
    return_info: bool = False,
):
    """Integrate means and covariances over ``[0, tau]``.

    Returns the joint Gaussian state of (mechanics, atoms, cos mode, sin
    mode).  With ``return_info=True`` also returns a dict with the maximum
    relative drift of the conserved EPR variances along the trajectory and
    the grid actually used.  ``trajectory`` receives CSV rows
    ``t, var_xsum, var_pdiff, var_ypc, var_yps`` at ``t = k dt`` for every
    step ``k = 0 .. n_steps`` when given.

    Both routes (see the module docstring) take the same ``model.n_steps``
    RK4 steps of ``model.dt`` and differ only in the order of floating-point
    operations.  A grid commensurate with the Larmor period takes the period
    route, whatever output is asked for; any other grid takes the stepped
    route.  Without per-step output the period route takes the model's
    period map from the cache or builds and caches it.  With ``trajectory``
    or ``return_info`` it builds the map afresh along with the output rows of
    every step of the period, and does not cache them; the returned state is
    the same either way.  The route, and so the result, never depends on
    what the cache holds.

    The accumulated temporal modes only become canonical pairs once the pulse
    is complete (and exactly so only for an integer number of Larmor
    periods), so the returned state skips the uncertainty validation.
    """
    mean, cov, (mech, atom) = _initial_moments(model, initial)
    x = np.concatenate((cov.ravel(), mean, (1.0,)))
    q = _period_steps(model)
    per_step = trajectory is not None or return_info

    if q and not per_step:
        basis, period_map = _period_map(replace(model, params=replace(model.params, n_i=0.0)))
        whole, rest = divmod(model.n_steps, q)
        for _ in range(whole):
            x = period_map @ x
        x = _advance(model, basis, x, whole * q, rest)
    elif q:
        x, values = _period_outputs(model, x, q)
    else:
        basis = _generator_basis(model)
        if per_step:
            x, values = _outputs_along(model, basis, x, model.n_steps)
        else:
            x = _advance(model, basis, x, 0, model.n_steps)

    if trajectory is not None:
        _write_trajectory(trajectory, model.dt, values)
    cov = x[:_N_SIGMA].reshape(8, 8)
    cov = (cov + cov.T) / 2.0
    state = GaussianState((mech, atom, COS_MODE, SIN_MODE), x[_MEAN], cov, validate=False)
    if not return_info:
        return state
    return state, {"n_steps": model.n_steps, "dt": model.dt, **_max_drift(model, values)}


def _outputs_along(
    model: DriftNoiseModel, basis: tuple[np.ndarray, np.ndarray], x: np.ndarray, count: int
) -> tuple[np.ndarray, np.ndarray]:
    """Take RK4 steps ``0 .. count - 1`` from ``x`` and record the output forms.

    Returns the advanced ``x`` and ``out`` with ``out[k]`` the output forms
    applied to ``x`` after ``k`` steps.  For a state these are the output
    values; for the identity they are the rows ``L C_k``, with ``C_k`` the
    map of the first ``k`` steps.
    """
    out = np.empty((count + 1, len(_OUTPUT_FORMS), *x.shape[1:]))

    def record(k: int, x: np.ndarray) -> None:
        out[k] = _OUTPUT_FORMS @ x

    record(0, x)
    return _advance(model, basis, x, 0, count, record), out


def _period_outputs(
    model: DriftNoiseModel, x: np.ndarray, q: int
) -> tuple[np.ndarray, np.ndarray]:
    """The period route with per-step output, from ``x`` over the pulse.

    Builds the period map with the output rows of every step of the period,
    uncached, and returns the final ``x`` and the output values of every
    step: step ``p q + j`` of the pulse is step ``j`` of period ``p``, so its
    values are row ``j`` applied to the start of period ``p``.
    """
    basis = _generator_basis(model)
    period_map, rows = _outputs_along(model, basis, np.eye(_DIM), q)
    whole, rest = divmod(model.n_steps, q)
    starts = np.empty((whole + 1, _DIM))
    starts[0] = x
    for p in range(whole):
        starts[p + 1] = period_map @ starts[p]
    values = np.concatenate(
        (
            (starts[:whole] @ rows[:q].reshape(-1, _DIM).T).reshape(whole * q, len(rows[0])),
            rows[: rest + 1] @ starts[whole],
        )
    )
    return _advance(model, basis, starts[whole], whole * q, rest), values


def _write_trajectory(stream: TextIO, dt: float, values: np.ndarray) -> None:
    stream.write("t,var_xsum,var_pdiff,var_ypc,var_yps\n")
    for start in range(0, len(values), _CSV_CHUNK_ROWS):
        chunk = values[start : start + _CSV_CHUNK_ROWS, [0, 2, 3, 4]].tolist()
        stream.write(
            "".join(
                f"{k * dt!r},{xsum!r},{pdiff!r},{ypc!r},{yps!r}\n"
                for k, (xsum, pdiff, ypc, yps) in enumerate(chunk, start)
            )
        )


def _max_drift(model: DriftNoiseModel, values: np.ndarray) -> dict[str, float]:
    """Maximum relative drift of the conserved QND variances over the steps.

    The conserved observables are the EPR pair co-rotating at the Larmor
    frequency: ``R pair`` with the rotation ``R = [[cos, -sin], [sin, cos]]``
    of the phase.  Their variances are the diagonal of ``R M R^T``, with
    ``M`` the covariance of the pair (the first three output values).
    """
    xx, xp, pp = values[:, :3].T
    phases = model.params.Omega * (np.arange(len(values)) * model.dt)
    cos, sin = np.cos(phases), np.sin(phases)
    cross = 2.0 * cos * sin * xp
    conserved = (cos * cos * xx - cross + sin * sin * pp, sin * sin * xx + cross + cos * cos * pp)
    drift = {}
    for name, value in zip(("max_rel_drift_xsum", "max_rel_drift_pdiff"), conserved):
        ref = value[0]
        drift[name] = float(np.max(np.abs(value - ref)) / ref) if ref > 0.0 else 0.0
    return drift


def _period_steps(model: DriftNoiseModel) -> int:
    """Steps per Larmor period when they are a whole number, else 0."""
    steps = 2.0 * math.pi / (model.params.Omega * model.dt)
    q = round(steps)
    return q if q >= 1 and abs(steps - q) <= _COMMENSURATE_RTOL * q else 0


def _generator_basis(model: DriftNoiseModel) -> tuple[np.ndarray, np.ndarray]:
    """The matrices ``B_j`` of ``G(t) = sum_j f_j(t) B_j`` in sparse form.

    ``dx/dt = G(t) x`` on ``x = [vec Sigma; mean; 1]`` (row-major ``vec``) is
    ``dSigma/dt = A Sigma + Sigma A^T + D`` and ``dmean/dt = A mean``, with
    ``f = (1, cos, sin, cos^2, sin^2, cos sin)`` of the Larmor phase
    ``Omega t``.  The drift and the noise columns are affine in (cos, sin);
    their three parts are solved from ``drift_matrix`` and ``noise_columns``
    at three phases, so the physics stays written there.  Returned are the
    flat positions where some ``B_j`` is nonzero (under 200 of the 5329) and
    the ``(6, n)`` values of the ``B_j`` there.
    """
    omega = model.params.Omega
    times = (0.0, 0.5 * math.pi / omega, math.pi / omega)
    trig = np.array([[1.0, math.cos(omega * t), math.sin(omega * t)] for t in times])
    unmix = np.linalg.inv(trig)
    drift = np.tensordot(unmix, [model.drift_matrix(t) for t in times], axes=1)
    n0, nc, ns = np.tensordot(unmix, [model.noise_columns(t) for t in times], axes=1)
    diffusion = (
        n0 @ n0.T,
        n0 @ nc.T + nc @ n0.T,
        n0 @ ns.T + ns @ n0.T,
        nc @ nc.T,
        ns @ ns.T,
        nc @ ns.T + ns @ nc.T,
    )
    basis = np.zeros((6, _DIM, _DIM))
    eye = np.eye(8)
    for j, a in enumerate(drift):
        basis[j, :_N_SIGMA, :_N_SIGMA] = np.kron(a, eye) + np.kron(eye, a)
        basis[j, _MEAN, _MEAN] = a
    basis[:, :_N_SIGMA, -1] = np.reshape(diffusion, (6, _N_SIGMA))
    basis = basis.reshape(6, -1)
    support = np.flatnonzero(basis.any(axis=0))
    return support, basis[:, support]


def _generator(basis: tuple[np.ndarray, np.ndarray], phase: float) -> np.ndarray:
    """``G`` at Larmor phase ``phase``, a dense 73 x 73 matrix."""
    support, values = basis
    cos, sin = math.cos(phase), math.sin(phase)
    g = np.zeros(_DIM * _DIM)
    g[support] = np.array((1.0, cos, sin, cos * cos, sin * sin, cos * sin)) @ values
    return g.reshape(_DIM, _DIM)


def _advance(
    model: DriftNoiseModel,
    basis: tuple[np.ndarray, np.ndarray],
    x: np.ndarray,
    k0: int,
    count: int,
    visit: Callable[[int, np.ndarray], None] | None = None,
) -> np.ndarray:
    """Take RK4 steps ``k0 .. k0 + count - 1`` of ``dx/dt = G(t) x``.

    Step ``k`` runs from ``t = k dt`` to ``(k + 1) dt``.  ``x`` is one
    augmented state or a 73 x 73 matrix whose columns are states; the period
    map is the identity advanced over one period.  ``visit(k + 1, x)`` sees
    the state after each step.
    """
    h = model.dt
    omega = model.params.Omega
    g_start = _generator(basis, omega * (k0 * h))
    for k in range(k0, k0 + count):
        g_mid = _generator(basis, omega * (k * h + h / 2))
        g_end = _generator(basis, omega * ((k + 1) * h))
        k1 = g_start @ x
        k2 = g_mid @ (x + h / 2 * k1)
        k3 = g_mid @ (x + h / 2 * k2)
        k4 = g_end @ (x + h * k3)
        x = x + h / 6 * (k1 + 2.0 * (k2 + k3) + k4)
        g_start = g_end
        if visit is not None:
            visit(k + 1, x)
    return x


@functools.lru_cache(maxsize=4)
def _period_map(model: DriftNoiseModel) -> tuple[tuple[np.ndarray, np.ndarray], np.ndarray]:
    """The generator basis and the map of one Larmor period of ``model``.

    Callers clear ``n_i``, which only sets the initial state, so every pulse
    on one drift shares the entry.  An entry takes about 55 kB; four leave
    room for a model that alternates with its matched baseline, as
    ``compare`` does in a sweep.
    """
    basis = _generator_basis(model)
    return basis, _advance(model, basis, np.eye(_DIM), 0, _period_steps(model))


def oracle_epr_after_measurement(
    model: DriftNoiseModel,
    *,
    initial: GaussianState | None = None,
    return_state: bool = False,
):
    """Propagate, condition on both accumulated p-quadratures, report EPR.

    This is the brute-force counterpart of the pulse map followed by homodyne
    conditioning; it certifies the idealized pipeline.
    """
    state = propagate_moments(model, initial=initial)
    mech, atom = state.modes[0], state.modes[1]
    half_pi = math.pi / 2.0
    state, _ = condition_on_homodyne(state, COS_MODE, half_pi, 0.0)
    state, _ = condition_on_homodyne(state, SIN_MODE, half_pi, 0.0)
    report = epr_variance(state, mech, atom, provenance=Provenance.ORACLE)
    if return_state:
        return report, state
    return report
