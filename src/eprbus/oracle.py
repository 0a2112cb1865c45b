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

Both equations are linear in the augmented state ``x = [vech Sigma; mean; 1]``
of 45 entries (the 36 entries of the upper triangle of the symmetric
``Sigma``, the 8 means and a constant), ``dx/dt = G(t) x``, and ``G``
depends on time only through the Larmor phase: ``G(t) = sum_j f_j(t) B_j``
with ``f = (1, cos, sin, cos^2, sin^2, cos sin)`` of ``Omega t``.  The
``B_j`` are read off :meth:`DriftNoiseModel.drift_matrix` and
:meth:`DriftNoiseModel.noise_columns`, so the physics is written once.

One RK4 kernel steps either a state or a 45 x 45 matrix of states, and
every pulse takes one route through it.  When ``q = 2 pi / (Omega dt)`` is
a whole number (within roundoff), every Larmor period repeats the same
``q`` step maps, whose product is the period map ``P`` (the monodromy
matrix of Floquet theory).  The Larmor phase enters only through the
cos/sin accumulators, so a quarter period later the generator is the same
up to the quarter turn ``T: (Y_c, Y_s) -> (Y_s, -Y_c)`` of both pairs,
``G(phi + pi/2) = T^T G(phi) T``, with ``T`` a signed permutation of ``x``
and ``T^4 = I``.  The identity is therefore stepped through one unit of
``q / r`` steps only, ``r = gcd(q, 4)``, and ``P = (T^(4/r) Q)^r`` with
``Q`` the unit's map: a quarter of the period when ``4 | q``, the whole
period when ``q`` is odd.  The symmetry is checked on the generator at
every build, which raises if it fails.  A pulse of ``whole``
periods and ``rest`` more steps is ``P`` once per whole period, then the
kernel for the rest; an incommensurate grid or a pulse shorter than a
period is the case ``whole = 0``.  The kernel records per-step output one
way: given linear forms, it returns them applied to ``x`` after every step.
Per-step output (trajectory rows, the conservation drift) is the five
output forms ``L`` recorded on the state over the rest, and read off the
period starts for the whole periods: with ``C_j`` the map of the first
``j`` steps of a period, step ``j`` of a period outputs ``L C_j`` applied
to its start.  The rows ``L C_j`` of every unit come from one pass of the
identity through the first unit, which records ``L`` turned once per unit.
Each RK4 step is a linear map of ``x``, so composing a period first, or
turning a unit, changes only the order of the floating-point operations
(agreement to about 1e-13 relative).

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
from typing import TextIO

import numpy as np

from .gaussian import (
    GaussianState,
    Provenance,
    _settled,
    atomic_mode,
    epr_forms,
    epr_variance,
    mechanical_mode,
)
from .iomaps import COS_MODE, SIN_MODE, ProtocolParams, _resolve_roles, condition_on_readout

#: Minimum integration resolution from the convergence study: the
#: fourth-order scheme holds the EPR-conservation drift below 1e-6 relative
#: at this density.
MIN_STEPS_PER_PERIOD = 200

# state vector ordering
_XM, _PM, _XA, _PA, _YXC, _YPC, _YXS, _YPS = range(8)

# augmented state x = [vech Sigma; mean; 1], vech the row-major upper triangle
_TRIU = np.triu_indices(8)
_N_SIGMA = len(_TRIU[0])
_MEAN = slice(_N_SIGMA, _N_SIGMA + 8)
_DIM = _N_SIGMA + 8 + 1
# where vech sits in the row-major vec (the elimination), and vec = _DUP vech
_VECH = 8 * _TRIU[0] + _TRIU[1]
_DUP = np.zeros((64, _N_SIGMA))
_DUP[_VECH, range(_N_SIGMA)] = _DUP[8 * _TRIU[1] + _TRIU[0], range(_N_SIGMA)] = 1.0

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
    pairs = ((pair[0], pair[0]), (pair[0], pair[1]), (pair[1], pair[1]), (ypc, ypc), (yps, yps))
    forms = np.zeros((5, _DIM))
    forms[:, :_N_SIGMA] = [np.kron(a, b) @ _DUP for a, b in pairs]  # a^T Sigma b
    return forms


_OUTPUT_FORMS = _output_forms()


def _quarter_turn() -> np.ndarray:
    """``T``: the quarter turn ``(Y_c, Y_s) -> (Y_s, -Y_c)`` of both
    accumulator pairs, acting on ``x``.

    A signed permutation, so exact in floating point, with ``T^4 = I``.
    Shifting the Larmor phase by a quarter period turns the generator to
    ``G(phi + pi / 2) = T^T G(phi) T``.
    """
    s = np.eye(8)
    for cos, sin in ((_YXC, _YXS), (_YPC, _YPS)):
        s[[cos, sin, cos, sin], [cos, sin, sin, cos]] = 0.0, 0.0, 1.0, -1.0
    turn = np.zeros((_DIM, _DIM))
    turn[:_N_SIGMA, :_N_SIGMA] = np.kron(s, s)[_VECH] @ _DUP  # Sigma -> s Sigma s^T
    turn[_MEAN, _MEAN] = s
    turn[-1, -1] = 1.0
    return turn


_QUARTER_TURN = _quarter_turn()
#: The generator basis shifted by a quarter period is ``sign_j B_{index_j}``
#: (see ``_turn``).
_QUARTER_SHIFT = np.array([0, 2, 1, 4, 3, 5])
_QUARTER_SHIFT_SIGNS = np.array([1.0, 1.0, -1.0, 1.0, 1.0, -1.0])
#: Largest entry of ``R^T B_j R`` minus its shifted ``B_j``, relative to the
#: largest entry of the basis, that still counts as roundoff.
_SYMMETRY_RTOL = 1e-12

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
        mech, atom = _resolve_roles(initial, None, None)
        quads = [initial.x_index(mech), initial.p_index(mech)]
        quads += [initial.x_index(atom), initial.p_index(atom)]
        mean[:4] = initial.mean[quads]
        cov[:4, :4] = initial.cov[np.ix_(quads, quads)]
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

    The period map comes from the cache unless per-step output
    (``trajectory`` or ``return_info``) is asked for; then it is built afresh
    with its output rows and not cached.  The returned state is the same
    either way, and never depends on what the cache holds.

    The returned moments are settled once and not checked against the
    uncertainty relation: the accumulated temporal modes only become
    canonical pairs once the pulse is complete (exactly so only for an
    integer number of Larmor periods), and may lie below vacuum before.
    """
    mean, cov, (mech, atom) = _initial_moments(model, initial)
    per_step = trajectory is not None or return_info
    x, values = _pulse(model, np.concatenate((cov[_TRIU], mean, (1.0,))), per_step)
    if trajectory is not None:
        _write_trajectory(trajectory, model.dt, values)
    mean, cov = x[_MEAN], (_DUP @ x[:_N_SIGMA]).reshape(8, 8)
    state = GaussianState._wrap((mech, atom, COS_MODE, SIN_MODE), mean, _settled(mean, cov))
    if not return_info:
        return state
    return state, {"n_steps": model.n_steps, "dt": model.dt, **_max_drift(model, values)}


def _pulse(
    model: DriftNoiseModel, x: np.ndarray, per_step: bool
) -> tuple[np.ndarray, np.ndarray | None]:
    """The ``model.n_steps`` RK4 steps from ``x``: ``P`` per whole period, then the kernel.

    Returns the final ``x`` and, with ``per_step``, the output values of
    steps ``0 .. n_steps`` (else ``None``).  Its own function, so that the
    period's output rows (about 0.36 MB) are freed before the caller writes
    the trajectory.
    """
    q = _period_steps(model)
    whole, rest = divmod(model.n_steps, q) if q else (0, model.n_steps)
    if whole:
        build = _period_map.__wrapped__ if per_step else _period_map
        cleared = replace(model, params=replace(model.params, n_i=0.0))
        basis, period_map, rows = build(cleared, per_step)
    else:
        basis, period_map, rows = _generator_basis(model), None, None
    starts = [x]
    for _ in range(whole):
        starts.append(period_map @ starts[-1])
    x, values = _advance(
        model, basis, starts[-1], whole * q, rest, _OUTPUT_FORMS if per_step else None
    )
    if per_step and whole:
        # step p q + j of the pulse is step j of period p: row j applied to
        # the start of period p
        periods = np.array(starts[:whole]) @ rows.reshape(-1, _DIM).T
        values = np.concatenate((periods.reshape(whole * q, len(_OUTPUT_FORMS)), values))
    return x, values


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


def _generator_basis(model: DriftNoiseModel) -> np.ndarray:
    """The matrices ``B_j`` of ``G(t) = sum_j f_j(t) B_j``, shape ``(6, 45, 45)``.

    ``dx/dt = G(t) x`` on ``x = [vech Sigma; mean; 1]`` is
    ``dSigma/dt = A Sigma + Sigma A^T + D`` and ``dmean/dt = A mean``, with
    ``f = (1, cos, sin, cos^2, sin^2, cos sin)`` of the Larmor phase.  The
    flow ``A (x) I + I (x) A`` on ``vec Sigma`` keeps ``Sigma`` symmetric, so
    on ``vech`` it is ``E (A (x) I + I (x) A) Dup``.  The drift and the noise
    columns are affine in (cos, sin); their three parts are solved from
    ``drift_matrix`` and ``noise_columns`` at three phases, so the physics
    stays written there.
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
        basis[j, :_N_SIGMA, :_N_SIGMA] = (np.kron(a, eye) + np.kron(eye, a))[_VECH] @ _DUP
        basis[j, _MEAN, _MEAN] = a
    basis[:, :_N_SIGMA, -1] = np.reshape(diffusion, (6, 64))[:, _VECH]
    return basis


def _generator(basis: np.ndarray, phase: float) -> np.ndarray:
    """``G`` at Larmor phase ``phase``, a dense 45 x 45 matrix."""
    cos, sin = math.cos(phase), math.sin(phase)
    f = np.array((1.0, cos, sin, cos * cos, sin * sin, cos * sin))
    return (f @ basis.reshape(6, -1)).reshape(_DIM, _DIM)


def _advance(
    model: DriftNoiseModel,
    basis: np.ndarray,
    x: np.ndarray,
    k0: int,
    count: int,
    forms: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray | None]:
    """Take RK4 steps ``k0 .. k0 + count - 1`` of ``dx/dt = G(t) x``.

    Step ``k`` runs from ``t = k dt`` to ``(k + 1) dt``.  ``x`` is one
    augmented state or a 45 x 45 matrix whose columns are states; the period
    map is the identity advanced over one period.  Returns the advanced ``x``
    and, when ``forms`` is given, ``out`` with ``out[j] = forms @ x`` after
    ``j`` of the steps, ``j = 0 .. count`` (else ``None``).  For a state and
    the output forms these are the output values; for the identity from
    ``k0 = 0`` they are the rows ``L C_j``.
    """
    out = None
    if forms is not None:
        out = np.empty((count + 1, *forms.shape[:-1], *x.shape[1:]))
        out[0] = forms @ x
    if not count:
        return x, out
    h = model.dt
    omega = model.params.Omega
    g_start = _generator(basis, omega * (k0 * h))
    for j, k in enumerate(range(k0, k0 + count), 1):
        g_mid = _generator(basis, omega * (k * h + h / 2))
        g_end = _generator(basis, omega * ((k + 1) * h))
        k1 = g_start @ x
        k2 = g_mid @ (x + h / 2 * k1)
        k3 = g_mid @ (x + h / 2 * k2)
        k4 = g_end @ (x + h * k3)
        x = x + h / 6 * (k1 + 2.0 * (k2 + k3) + k4)
        g_start = g_end
        if out is not None:
            out[j] = forms @ x
    return x, out


def _turn(basis: np.ndarray, r: int) -> np.ndarray:
    """The turn ``R = T^(4/r)`` with ``G(phi + 2 pi / r) = R^T G(phi) R``.

    The identity is checked on ``basis``: shifting the phase by a quarter
    period maps ``f`` to ``(1, -sin, cos, sin^2, cos^2, -cos sin)``, so it
    holds for every phase exactly when ``R^T B_j R`` is the ``B_j`` of the
    shifted ``f``.  Raises ``RuntimeError`` when it does not hold to
    roundoff: a drift or noise term that breaks the symmetry must stop the
    build, not give a wrong period map.
    """
    turn, index, signs = np.eye(_DIM), np.arange(6), np.ones(6)
    for _ in range(4 // r):
        turn = turn @ _QUARTER_TURN
        index, signs = index[_QUARTER_SHIFT], signs[_QUARTER_SHIFT] * _QUARTER_SHIFT_SIGNS
    error = max(
        float(np.max(np.abs(turn.T @ b @ turn - sign * basis[j])))
        for b, j, sign in zip(basis, index, signs)
    )
    if error > _SYMMETRY_RTOL * float(np.max(np.abs(basis))):
        raise RuntimeError(
            f"the generator breaks the Larmor turn symmetry (shift 2 pi / {r}) by {error:.2e}; "
            "the period map cannot be built from a part of the period"
        )
    return turn


@functools.lru_cache(maxsize=4)
def _period_map(
    model: DriftNoiseModel, outputs: bool
) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """The generator basis, the map of one Larmor period and its output rows.

    The identity is stepped through one unit of ``u = q / r`` steps only,
    with ``r = gcd(q, 4)``, giving its map ``Q``.  Unit ``m`` repeats the
    first unit turned by ``R^m`` (see :func:`_turn`, which checks the
    symmetry), so the period map is ``P = (R Q)^r`` and the first ``j``
    steps of unit ``m`` end at ``R^-m C_j (R Q)^m``.  An odd ``q`` has
    ``r = 1`` and steps the whole period.  The rows ``L C_k`` of every step
    ``k < q`` of the period come only with ``outputs``: the kernel records
    the stacked forms ``L R^-m`` over the unit, and unit ``m``'s are
    multiplied by ``(R Q)^m`` into the rows in period order.

    Rows come from the uncached ``_period_map.__wrapped__``: they take
    about 0.36 MB a drift model.  Callers clear ``n_i``, which only sets the
    initial state, so a grid over initial occupations shares the cached map.
    An entry takes about 115 kB, most of it the dense basis; four leave room
    for a model that alternates with its matched baseline, as ``compare``
    does in a sweep.
    """
    basis = _generator_basis(model)
    q = _period_steps(model)
    r = math.gcd(q, 4)
    unit = q // r
    turn = _turn(basis, r)
    forms = None
    if outputs:
        # out[j, m] = L R^-m C_j over the first unit
        forms = np.stack([_OUTPUT_FORMS @ np.linalg.matrix_power(turn.T, m) for m in range(r)])
    unit_map, out = _advance(model, basis, np.eye(_DIM), 0, unit, forms)
    step = turn @ unit_map
    period = np.linalg.matrix_power(step, r)
    rows = None
    if outputs:
        # rows[m, j] = out[j, m] (R Q)^m, written once in period order
        rows = np.empty((r, unit, len(_OUTPUT_FORMS), _DIM))
        rows[0] = out[:unit, 0]
        for m in range(1, r):
            np.matmul(out[:unit, m], np.linalg.matrix_power(step, m), out=rows[m])
        rows = rows.reshape(q, len(_OUTPUT_FORMS), _DIM)
    return basis, period, rows


def oracle_epr_after_measurement(
    model: DriftNoiseModel,
    *,
    initial: GaussianState | None = None,
):
    """Propagate, condition on both accumulated p-quadratures, report EPR.

    This is the brute-force counterpart of the pulse map followed by homodyne
    conditioning; it certifies the idealized pipeline.
    """
    state = propagate_moments(model, initial=initial)
    mech, atom = state.modes[0], state.modes[1]
    state, _ = condition_on_readout(state)
    return epr_variance(state, mech, atom, provenance=Provenance.ORACLE)
