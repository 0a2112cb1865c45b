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

The covariance equation is linear in the state ``x = [vech Sigma; 1]`` of
37 entries (the 36 entries of the upper triangle of the symmetric ``Sigma``
and a constant), ``dx/dt = G(t) x``; the mean equation is linear in the 8
means on their own, and neither reads the other.  ``G`` and ``A`` depend
on time only through the Larmor phase: ``A`` is the sum of three
8 x 8 parts weighted by ``(1, cos, sin)`` of ``Omega t``, and ``D`` of six
weighted by ``f = (1, cos, sin, cos^2, sin^2, cos sin)``.  The parts are
solved from :meth:`DriftNoiseModel.drift_matrix` and
:meth:`DriftNoiseModel.noise_columns` at three phases, with the inverse
that unmixes them cached per Larmor frequency, so the physics is written
once.

Every pulse takes one route, built from one RK4 step.  The Larmor phase
enters only through the cos/sin accumulators, so rotating both pairs
``(Y_xc, Y_xs)`` and ``(Y_pc, Y_ps)`` by any angle ``theta`` (the turn
``s_theta``; ``R_theta`` lifted onto ``x``) conjugates the generator,
``G(phi + theta) = R_theta^-1 G(phi) R_theta``.  Every build first checks
this on the parts, as ``A(phi) s_theta = s_theta A(phi + theta)`` and
``D(phi) = s_theta D(phi + theta) s_theta^T`` at the five phases
``2 pi k / 5`` and ``theta = 2 pi / 5``, which implies it at every shift,
and raises if it fails.  With ``delta = Omega dt``, step ``k`` of the grid
is therefore ``S_k = R_delta^-k S_0 R_delta^k``, with ``S_0`` the RK4 step
from phase 0, whose stages lift ``A`` and ``D`` at the phases ``0``,
``delta / 2`` and ``delta`` onto ``x`` by a gather.  The ``n`` steps of a
pulse compose to ``C_n = R_(-n delta) M^n`` with ``M = R_delta S_0``: the
same RK4 scheme with the floating-point operations in another order.
``M^n`` comes from binary powering on the increment ``M - I``, which keeps
the state within about 1e-14 of an extended-precision run of the steps,
relative to its largest entry.  ``(M, C_n)`` is cached per drift model, so
a cached pulse is one matrix-vector product, and the lifts ``R_theta - I``
are cached per angle, which a grid shares across drift models.  The means
take the same route on ``A`` alone, through the same kernels: the RK4 step
of ``dmean/dt = A mean``, the turn ``s_theta`` and the powering give their
8 x 8 pulse map, which is the mean block of the same route on the 45
entries ``[vech Sigma; mean; 1]``, bit for bit, since every entry between
the blocks is an exact zero.  It is built, and cached per drift model,
only for a pulse from a displaced state: from zero means a pulse leaves the
means exactly zero, and the EPR figure reads only the covariance.  In the
frame that rotates with the grid the state ``z_k = M^k x_0`` evolves on its
own, and the state at step ``k`` is ``x_k = R_(-k delta) z_k``.  Per-step
output (trajectory rows, the conservation drift) is read off ``z_k`` in
blocks of ``b`` steps: the rows ``F M^j``, ``j < b``, of the output forms
``F`` applied to the block starts ``(M^b)^p x_0`` give every step's values
in one product.  Each step's cos and sin then turn both 2 x 2 blocks of the
output once: the ``Y_p`` block back to the lab frame, the EPR block onto
the conserved pair.

Coupling mismatch is realized physically through distinct mechanical and
atomic strengths ``kappa_m = kappa (1 + eps)``, ``kappa_a = kappa (1 - eps)``
(so ``eps = (kappa_m - kappa_a) / (kappa_m + kappa_a)``); mechanical damping
through ``-gamma_m / 2`` on both mechanical quadratures plus diffusion
``gamma_m (n_th + 1)`` per quadrature, matching the Langevin noise variance
``n_th + 1`` used by the closed-form damping correction.  The light's
propagation and detection loss ``eta_light * eta_det`` has no dynamics: it
admixes vacuum into the two readout modes after the pulse map, as in the
idealized map.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass, field
from typing import TextIO

import numpy as np

from ._g17 import format_g17
from .gaussian import (
    GaussianState,
    ModeLabel,
    Provenance,
    _admix_loss,
    _conditioned,
    _epr_report,
    _settled,
    atomic_mode,
    epr_forms,
    mechanical_mode,
)
from .iomaps import (
    _PARAM_NAMES,
    COS_MODE,
    SIN_MODE,
    ParameterError,
    ProtocolParams,
    _is_integer,
    _readout,
    _resolve_roles,
)

#: Minimum integration resolution from the convergence study: the
#: fourth-order scheme holds the EPR-conservation drift below 1e-6 relative
#: at this density.
MIN_STEPS_PER_PERIOD = 200

# state vector ordering
_XM, _PM, _XA, _PA, _YXC, _YPC, _YXS, _YPS = range(8)

# covariance state x = [vech Sigma; 1], vech the row-major upper triangle
_TRIU = np.triu_indices(8)
_N_SIGMA = len(_TRIU[0])
_DIM = _N_SIGMA + 1
# where vech sits in the row-major vec (the elimination), and vec = _DUP vech
_VECH = 8 * _TRIU[0] + _TRIU[1]
_DUP = np.zeros((64, _N_SIGMA))
_DUP[_VECH, range(_N_SIGMA)] = _DUP[8 * _TRIU[1] + _TRIU[0], range(_N_SIGMA)] = 1.0


def _lift_table() -> np.ndarray:
    """Where ``vech(A Sigma + Sigma A^T)`` reads ``A``, shape ``(2, 36, 36)``.

    Entry ``(ij, kl)`` of the lift ``E (A (x) I + I (x) A) Dup`` is
    ``A_ik [j = l] + A_jl [i = k]``, plus ``A_il [j = k] + A_jk [i = l]``
    when ``k < l``.  Of ``[j = l]`` and ``[j = k]`` at most one holds there,
    and likewise of ``[i = k]`` and ``[i = l]``, so the entry is the sum of
    two flat entries of ``A``, with 64 (an appended zero) for a missing one.
    """
    i, j = (index[:, None] for index in _TRIU)
    k, l = _TRIU
    first = np.where(j == l, 8 * i + k, np.where(j == k, 8 * i + l, 64))
    second = np.where(i == k, 8 * j + l, np.where(i == l, 8 * j + k, 64))
    return np.stack((first, second))


_LIFT = _lift_table()

#: Relative distance of the step count ``steps_per_period Omega tau / (2 pi)``
#: from a whole number below which it is taken as whole (roundoff only).
_COMMENSURATE_RTOL = 1e-12


def _frame_forms() -> np.ndarray:
    """Linear forms on ``x`` giving the per-step output (``F`` above).

    The rows are ``Var(X_m + X_a)``, the covariance of that with
    ``P_m - P_a``, ``Var(P_m - P_a)``, and the ``Y_p`` block: ``Var(Y_pc)``,
    ``Cov(Y_pc, Y_ps)`` and ``Var(Y_ps)``.  The first three do not see the
    rotation of the accumulators; the last three give the lab variances of
    ``Y_pc`` and ``Y_ps`` once turned back.
    """
    pair = epr_forms(8, 0, 1)
    ypc, yps = np.eye(8)[[_YPC, _YPS]]
    pairs = (
        (pair[0], pair[0]), (pair[0], pair[1]), (pair[1], pair[1]),
        (ypc, ypc), (ypc, yps), (yps, yps),
    )
    forms = np.zeros((len(pairs), _DIM))
    forms[:, :_N_SIGMA] = [np.kron(a, b) @ _DUP for a, b in pairs]  # a^T Sigma b
    return forms


_FRAME_FORMS = _frame_forms()


def _accumulator_turn(theta: float) -> np.ndarray:
    """``s_theta - I``, with ``s_theta`` the rotation ``(Y_c, Y_s) -> (cos Y_c
    + sin Y_s, cos Y_s - sin Y_c)`` of both accumulator pairs, on the 8
    quadratures; ``cos - 1 = -2 sin^2(theta / 2)`` keeps its digits."""
    cos1, sin = -2.0 * math.sin(theta / 2.0) ** 2, math.sin(theta)
    e = np.zeros((8, 8))
    for yc, ys in ((_YXC, _YXS), (_YPC, _YPS)):
        e[[yc, ys, yc, ys], [yc, ys, ys, yc]] = cos1, cos1, sin, -sin
    return e


@functools.lru_cache(maxsize=8)
def _rotation_increment(theta: float) -> np.ndarray:
    """``R_theta - I``, with ``R_theta`` the turn ``s_theta`` of the
    accumulator pairs lifted onto ``x = [vech Sigma; 1]``; read-only,
    cached per angle.

    ``R_a R_b = R_(a + b)`` and ``R_(pi / 2)`` is the quarter turn
    ``(Y_c, Y_s) -> (Y_s, -Y_c)``.  Shifting the Larmor phase by ``theta``
    turns the generator to ``G(phi + theta) = R_theta^-1 G(phi) R_theta``.
    The increment is formed without ``R_theta``: with ``s = I + e``,
    ``s Sigma s^T - Sigma = e Sigma s^T + Sigma e^T``.  The lift depends on
    the angle alone, so every drift model on one grid shares it: the step's
    ``delta`` and the closing ``-n delta``.  The constant does not turn.  An
    entry takes about 11 kB.
    """
    e = _accumulator_turn(theta)
    turn = np.zeros((_DIM, _DIM))
    turn[:_N_SIGMA, :_N_SIGMA] = (_vech_kron(e, np.eye(8) + e) + _vech_kron(np.eye(8), e)) @ _DUP
    turn.flags.writeable = False
    return turn


def _vech_kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The rows of ``a (x) b`` at ``vech``: ``vec Sigma -> vech(a Sigma b^T)``."""
    return (a[_TRIU[0], :, None] * b[_TRIU[1], None, :]).reshape(_N_SIGMA, 64)


def _vech_lift(a: np.ndarray) -> np.ndarray:
    """``E (a (x) I + I (x) a) Dup`` of each ``a`` in a stack ``(m, 8, 8)``.

    Gathered through :data:`_LIFT`, so each entry takes the one addition of
    drift entries that the 0/1 product takes.
    """
    flat = np.zeros((len(a), 65))
    flat[:, :64] = a.reshape(-1, 64)
    return flat.take(_LIFT[0], axis=1) + flat.take(_LIFT[1], axis=1)


#: Largest entry of either residual of :func:`_check_symmetry`, relative to
#: the largest entry of its drift or diffusion parts, that still counts as
#: roundoff.
_SYMMETRY_RTOL = 1e-12

#: Trajectory rows formatted per call of :func:`format_g17`.  What one chunk
#: bounds is its text and the kernel's scratch: a ``tracemalloc`` peak of
#: 0.86 MB at this size.  Built beforehand are the per-step values of the
#: whole pulse, 614 kB at 64 periods, and, once per write, the table of the
#: rows written, 512 kB.  Larger chunks spread the kernel's fixed cost per
#: call over more values, until its scratch outgrows the caches and what the
#: allocator keeps between chunks: ``oracle_trajectory``'s ``op_p50_ms`` read
#: 2.49-2.50 ms at 512 rows, 2.22-2.33 at 1024 and 2.22-2.27 at 2048, whose
#: ``peak_rss_mb`` was 0.4 MB higher (two 8 s runs each, on a shared 2-core
#: x86 machine).
_CSV_CHUNK_ROWS = 1024
#: The character after each value of a trajectory row.
_CSV_SEPARATORS = ",,,,\n"

#: The values of the :class:`ProtocolParams` fields that enter the drift or
#: the diffusion, as a tuple: all but ``n_i``, which sets only the initial
#: state, and the readout loss, which acts after the pulse map.
_drift_values = operator.attrgetter(
    *(name for name in _PARAM_NAMES if name not in ("n_i", "eta_light", "eta_det"))
)


@dataclass(frozen=True)
class DriftNoiseModel:
    """Drift/diffusion description of one pulse, ready to integrate.

    Its identity (equality and hash), computed once, leaves out ``params.n_i``,
    which sets only the initial state, and the readout loss ``eta_light`` and
    ``eta_det``, which acts after the pulse map: a grid over either shares a
    pulse map.
    """

    params: ProtocolParams = field(compare=False)
    kappa_mech: float
    kappa_atom: float
    damping: bool
    n_steps: int
    dt: float
    _drift_params: tuple = field(init=False, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "_drift_params", _drift_values(self.params))

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
        d_th = self.thermal_diffusion
        # columns: x_in, p_in, then the thermal kicks of X_m and P_m
        b = np.zeros((8, 4 if d_th > 0.0 else 2))
        b[_PM, 0] = self.kappa_mech * sqrt2_tau / math.sqrt(2.0)
        b[_PA, 0] = self.kappa_atom * sqrt2_tau / math.sqrt(2.0)
        b[_YXC, 0] = b[_YPC, 1] = cos * inv_sqrt_tau
        b[_YXS, 0] = b[_YPS, 1] = sin * inv_sqrt_tau
        if d_th > 0.0:
            b[_XM, 2] = b[_PM, 3] = math.sqrt(d_th)
        return b


def _steps_per_period(steps_per_period: int = MIN_STEPS_PER_PERIOD) -> int:
    """The oracle's integration steps per Larmor period, an integer of at
    least :data:`MIN_STEPS_PER_PERIOD`, as an ``int``."""
    if not _is_integer(steps_per_period) or steps_per_period < MIN_STEPS_PER_PERIOD:
        raise ValueError(
            f"steps_per_period must be an integer >= {MIN_STEPS_PER_PERIOD}, "
            f"got {steps_per_period!r}"
        )
    return int(steps_per_period)


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
    regardless of any declared mismatch.  ``steps_per_period`` is checked
    by :func:`_steps_per_period`; a product of steps and periods that is
    whole up to roundoff is taken as whole, so whole and half periods keep
    a grid commensurate with the period.  Parameters the oracle cannot
    model raise :class:`ParameterError`.
    """
    if params.Omega <= 0.0:
        raise ParameterError("oracle propagation requires a positive Larmor frequency")
    if not math.isclose(params.omega_m, params.Omega, rel_tol=1e-9):
        raise ParameterError(
            "oracle requires matched frequencies omega_m == Omega; coupling "
            "mismatch is the only imperfection modeled dynamically"
        )
    steps_per_period = _steps_per_period(steps_per_period)
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


#: The system modes of a pulse from the default initial state.
_DEFAULT_ROLES = (mechanical_mode("m"), atomic_mode("a"))


def _initial_moments(
    model: DriftNoiseModel, initial: GaussianState | None
) -> tuple[np.ndarray, np.ndarray, tuple[ModeLabel, ModeLabel]]:
    mean = np.zeros(8)
    cov = np.zeros((8, 8))
    if initial is None:
        mech, atom = _DEFAULT_ROLES
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


def _start(
    model: DriftNoiseModel, initial: GaussianState | None
) -> tuple[np.ndarray, np.ndarray, tuple[ModeLabel, ...]]:
    """The covariance state ``x_0`` of a pulse, its 8 means and the modes of
    its joint state: the system roles, then the cos and sin modes."""
    mean, cov, roles = _initial_moments(model, initial)
    return np.concatenate((cov[_TRIU], (1.0,))), mean, (*roles, COS_MODE, SIN_MODE)


def _pulse_moments(
    model: DriftNoiseModel, pulse: np.ndarray, x: np.ndarray, mean: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The joint moments after the pulse map ``pulse`` (``C_n``) from ``x``
    and the pulse's means ``mean``, a fresh array, with the propagation and
    detection loss ``eta_light * eta_det`` admixing vacuum into the cos and
    then the sin mode, as the idealized map does.  The covariance is
    exactly symmetric."""
    cov = (_DUP @ (pulse @ x)[:_N_SIGMA]).reshape(8, 8)
    eta = model.params.eta_light * model.params.eta_det
    if eta < 1.0:
        for i in (2, 3):
            _admix_loss(mean, cov, i, eta)
    return mean, cov


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
    step ``k = 0 .. n_steps`` when given.  Each value is the text that
    ``"%.17g"`` writes for it, produced for a chunk of rows at a time by a
    vectorized kernel, so ``float`` reads back exactly the value computed.

    The pulse map ``C_n`` comes from the cache, built on the first pulse
    of a drift model; per-step output (``trajectory`` or ``return_info``)
    reads the same entry's ``M``.  The means' map is built, and cached, on
    the first pulse of a drift model from a displaced state; from zero means
    the returned means are zero, and no map is built.  The returned state is
    always ``C_n x_0`` followed by the readout loss ``eta_light * eta_det``
    on the cos and sin modes, so it is the same with or without per-step
    output.  Per-step
    output is taken before that loss: the trajectory's ``var_ypc`` and
    ``var_yps`` are the accumulators' lossless variances.

    The returned moments are settled once and not checked against the
    uncertainty relation: the accumulated temporal modes only become
    canonical pairs once the pulse is complete (exactly so only for an
    integer number of Larmor periods), and may lie below vacuum before.
    """
    x, mean, modes = _start(model, initial)
    step, pulse = _pulse_maps(model)
    values = _per_step_values(model, step, x) if trajectory is not None or return_info else None
    if trajectory is not None:
        _write_trajectory(trajectory, model.dt, values)
    mean = _mean_map(model) @ mean if mean.any() else np.zeros(8)
    mean, cov = _pulse_moments(model, pulse, x, mean)
    state = GaussianState._wrap(modes, mean, _settled(mean, cov))
    if not return_info:
        return state
    return state, {"n_steps": model.n_steps, "dt": model.dt, **_max_drift(values)}


def _per_step_values(model: DriftNoiseModel, step: np.ndarray, x: np.ndarray) -> np.ndarray:
    """The output values of steps ``0 .. n_steps`` from ``x``, shape ``(n + 1, 6)``.

    Step ``p b + j`` of the rotating frame is ``F M^j`` applied to the
    block start ``(M^b)^p x``; ``b`` is the least power of two at or above
    ``isqrt(n + 1)``, which can lie below ``sqrt(n + 1)`` (for 4,097 rows,
    ``b = 64``), so both stacks take about ``sqrt(n)`` rows and ``log n``
    squarings.  ``M^b`` is the square of the last power the forms' stack
    applied, and the starts' stack holds the ``ceil((n + 1) / b)`` starts
    the steps use.  The six forms are one batched product, a contiguous column
    of ``(n + 1)`` values each.  Each step's phase then turns both 2 x 2
    blocks on those columns, leaving ``Var(X_m + X_a)``, the conserved ``X``
    variance (see :func:`_max_drift`), ``Var(P_m - P_a)``, the lab
    ``Var(Y_pc)`` and ``Var(Y_ps)``, and the conserved ``P`` variance.  The
    result is the transposed view of the columns.
    """
    count = model.n_steps + 1
    b = 1 << (math.isqrt(count) - 1).bit_length()
    rows, half = _orbit(_FRAME_FORMS, step, b)
    jump = half @ half
    starts, _ = _orbit(x, jump.T, -(-count // b))
    # row p of form c's product holds steps p b .. p b + b - 1, in order
    forms = np.ascontiguousarray(rows.transpose(1, 2, 0))
    columns = (starts @ forms).reshape(len(forms), -1)[:, :count]
    phases = model.params.Omega * (np.arange(count) * model.dt)
    cos, sin = np.cos(phases), np.sin(phases)
    cc, cs, ss = cos * cos, 2.0 * cos * sin, sin * sin
    # the diagonal of R V R^T, R = [[cos, -sin], [sin, cos]], of each block
    # V = [[a, b], [b, d]]: the Y_p block back to the lab frame, x_k =
    # R_(-k delta) z_k, and the EPR block onto the pair that co-rotates
    for block, (i, j) in ((slice(3, 6), (3, 4)), (slice(0, 3), (1, 5))):
        a, b, d = columns[block]
        cross = cs * b
        columns[i], columns[j] = cc * a - cross + ss * d, ss * a + cross + cc * d
    return columns.T


def _orbit(first: np.ndarray, step: np.ndarray, count: int) -> tuple[np.ndarray, np.ndarray]:
    """``first @ step^j`` for ``j < count``, stacked, and the power of
    ``step`` the last doubling applied, ``step^(2^(m - 1))`` after ``m``.

    Each doubling appends the rows still needed times the current power;
    the power is squared between doublings, not after the last.
    """
    orbit = first[None]
    while True:
        orbit = np.concatenate((orbit, orbit[: count - len(orbit)] @ step))
        if len(orbit) >= count:
            return orbit, step
        step = step @ step


def _write_trajectory(stream: TextIO, dt: float, values: np.ndarray) -> None:
    """The header, then rows of ``k dt`` and columns 0, 2, 3 and 4 of
    ``values``, each value written as ``"%.17g"`` writes it.  The rows are
    one table, built once; each chunk is a contiguous view of it, written by
    one call of :func:`format_g17`.

    ``np.arange(n) * dt`` is the IEEE product ``k * dt`` of each row.
    """
    stream.write("t,var_xsum,var_pdiff,var_ypc,var_yps\n")
    table = np.empty((len(values), 5))
    table[:, 0] = np.arange(len(values)) * dt
    table[:, 1] = values[:, 0]
    table[:, 2:] = values[:, 2:5]
    for start in range(0, len(table), _CSV_CHUNK_ROWS):
        stream.write(format_g17(table[start : start + _CSV_CHUNK_ROWS], _CSV_SEPARATORS))


def _max_drift(values: np.ndarray) -> dict[str, float]:
    """Maximum relative drift of the conserved QND variances over the steps.

    The conserved observables are the EPR pair co-rotating at the Larmor
    frequency: ``R pair`` with the rotation ``R = [[cos, -sin], [sin, cos]]``
    of the phase, whose variances :func:`_per_step_values` leaves in
    columns 1 and 5.
    """
    drift = {}
    for name, column in (("max_rel_drift_xsum", 1), ("max_rel_drift_pdiff", 5)):
        value = values[:, column]
        ref = value[0]
        drift[name] = float(np.max(np.abs(value - ref)) / ref) if ref > 0.0 else 0.0
    return drift


@functools.lru_cache(maxsize=8)
def _unmix(omega: float) -> tuple[tuple[float, float, float], np.ndarray]:
    """The three times at which :func:`_model_parts` reads a model and the
    inverse of ``(1, cos, sin)`` at their phases; cached per frequency."""
    times = (0.0, 0.5 * math.pi / omega, math.pi / omega)
    unmix = np.linalg.inv([[1.0, math.cos(omega * t), math.sin(omega * t)] for t in times])
    unmix.flags.writeable = False
    return times, unmix


#: The noise parts ``(j, k)`` whose products ``n_j n_k^T`` give the diffusion
#: parts, in the order of ``f``, then the three ``(k, j)`` that add to the
#: parts with ``j != k``.
_NOISE_LEFT = np.array([0, 0, 0, 1, 2, 1, 1, 2, 2])
_NOISE_RIGHT = np.array([0, 1, 2, 1, 2, 2, 0, 0, 1])


def _model_parts(model: DriftNoiseModel) -> tuple[np.ndarray, np.ndarray]:
    """The drift's three parts and the diffusion's six, shapes ``(3, 8, 8)``
    and ``(6, 8, 8)``.

    ``A(phi) = sum_j f_j B_j`` over ``f = (1, cos, sin)`` of the Larmor
    phase, and ``D(phi)`` likewise over ``f = (1, cos, sin, cos^2, sin^2,
    cos sin)``.  The drift and the noise columns are affine in (cos, sin);
    their three parts are solved from ``drift_matrix`` and ``noise_columns``
    at three phases, so the physics stays written there.
    """
    times, unmix = _unmix(model.params.Omega)
    drift = np.stack([model.drift_matrix(t) for t in times])
    drift = (unmix @ drift.reshape(3, 64)).reshape(3, 8, 8)
    noise = np.stack([model.noise_columns(t) for t in times])
    noise = (unmix @ noise.reshape(3, -1)).reshape(noise.shape)
    products = noise.take(_NOISE_LEFT, axis=0) @ noise.take(_NOISE_RIGHT, axis=0).transpose(0, 2, 1)
    diffusion = products[:6]
    diffusion[1:3] += products[6:8]
    diffusion[5] += products[8]
    return drift, diffusion


def _trig(phases) -> np.ndarray:
    """``f = (1, cos, sin, cos^2, sin^2, cos sin)`` at each phase, shape ``(m, 6)``."""
    trig = ((math.cos(phase), math.sin(phase)) for phase in phases)
    return np.array([(1.0, cos, sin, cos * cos, sin * sin, cos * sin) for cos, sin in trig])


def _stage_trig(model: DriftNoiseModel) -> np.ndarray:
    """``f`` of :func:`_trig` at the phases ``0``, ``delta / 2`` and ``delta``
    of the RK4 stages of the first step, shape ``(3, 6)``."""
    delta = model.params.Omega * model.dt
    return _trig((0.0, delta / 2, delta))


def _drift_at(trig: np.ndarray, drift: np.ndarray) -> np.ndarray:
    """``A`` at each phase of ``trig``, from the drift's three parts, shape
    ``(m, 8, 8)``."""
    return (trig[:, :3] @ drift.reshape(3, 64)).reshape(-1, 8, 8)


def _covariance_generators(
    model: DriftNoiseModel, drift: np.ndarray, diffusion: np.ndarray
) -> np.ndarray:
    """``G`` on ``x = [vech Sigma; 1]`` at the phases of :func:`_stage_trig`,
    shape ``(3, 37, 37)``, lifted from ``A`` and ``D`` there.

    The flow ``A (x) I + I (x) A`` on ``vec Sigma`` keeps ``Sigma``
    symmetric, so on ``vech`` it is ``E (A (x) I + I (x) A) Dup``, gathered
    by :func:`_vech_lift`; ``vech D`` is the constant's column.
    """
    trig = _stage_trig(model)
    g = np.zeros((3, _DIM, _DIM))
    g[:, :_N_SIGMA, :_N_SIGMA] = _vech_lift(_drift_at(trig, drift))
    g[:, :_N_SIGMA, -1] = (trig @ diffusion.reshape(6, 64)).take(_VECH, axis=1)
    return g


def _rk4_increment(model: DriftNoiseModel, generators: np.ndarray) -> np.ndarray:
    """``S_0 - I``: the RK4 step of ``dy/dt = G(t) y`` from ``t = 0`` to
    ``dt``, less the identity, from ``G`` at the phases of
    :func:`_stage_trig`, stacked: the covariance state's or the means'.

    The stages are those of the step applied to the identity, ``k2 = G_mid
    (I + h/2 k1)`` and so on, with the identity carried through the
    products, so the increment is never rounded against it.
    """
    h = model.dt
    g_start, g_mid, g_end = generators
    stages = [g_start]
    for generator, scale in ((g_mid, h / 2), (g_mid, h / 2), (g_end, h)):
        stage = generator @ stages[-1]
        stage *= scale
        stage += generator
        stages.append(stage)
    k1, k2, k3, k4 = stages
    # h/6 (k1 + 2 (k2 + k3) + k4), in place
    k2 += k3
    k2 *= 2.0
    k2 += k1
    k2 += k4
    k2 *= h / 6
    return k2


def _power_increment(e: np.ndarray, n: int) -> np.ndarray:
    """``(I + e)^n - I`` by binary powering, about ``2 log2 n`` products.

    Each product is taken on increments, ``(I + a)(I + b) - I = a + b + a b``:
    the identity is never added to a small increment, so the roundoff of
    ``e``, which ``n`` factors would repeat, stays relative to ``e``.  The
    squarings and products land in buffers made once, with every addition
    in the order of ``a + b + a b``.
    """
    e, product, power = e.copy(), np.empty_like(e), None
    while True:
        if n & 1:
            if power is None:
                power = e.copy()
            else:
                np.matmul(power, e, out=product)
                power += e
                power += product
        n >>= 1
        if not n:
            return power
        np.matmul(e, e, out=product)
        e *= 2.0
        e += product


#: The check's phases ``phi_k = 2 pi k / 5``, then ``phi_(k + 1)``, as ``f`` of
#: :func:`_trig`, and the turn ``s_theta`` by ``theta = 2 pi / 5``.
_CHECK_TRIG = _trig(2.0 * math.pi * np.array([0, 1, 2, 3, 4, 1, 2, 3, 4, 0]) / 5)
_CHECK_TURN = np.eye(8) + _accumulator_turn(2.0 * math.pi / 5)


def _check_symmetry(drift: np.ndarray, diffusion: np.ndarray) -> None:
    """Check ``A(phi) s = s A(phi + theta)`` and ``D(phi) = s D(phi + theta)
    s^T``, with ``s = s_theta`` and ``theta = 2 pi / 5``, on the parts of
    :func:`_model_parts`.

    On ``x`` this is ``G(phi) R_theta = R_theta G(phi + theta)``.  Both
    residuals are trigonometric polynomials of degree at most 2 in ``phi``,
    so they vanish everywhere when they vanish at the five phases
    ``phi_k = 2 pi k / 5``, where ``phi_k + theta`` is ``phi_(k + 1)``.
    Then ``s_phi A(phi) s_phi^T`` and ``s_phi D(phi) s_phi^T``, of degree at
    most 4, have period ``2 pi / 5`` and are constant: the identity holds at
    every shift, the grid's ``delta`` included.  Each residual is taken
    relative to the largest entry of its own parts.  Raises
    ``RuntimeError`` when either exceeds roundoff: a drift or noise term that
    breaks the symmetry must stop the build, not give a wrong pulse map.
    """
    a, a_next = _drift_at(_CHECK_TRIG, drift).reshape(2, 5, 8, 8)
    d, d_next = (_CHECK_TRIG @ diffusion.reshape(6, 64)).reshape(2, 5, 8, 8)
    s = _CHECK_TURN
    error = max(
        float(abs(a @ s - s @ a_next).max() / abs(drift).max()),
        float(abs(d - s @ d_next @ s.T).max() / abs(diffusion).max()),
    )
    if error > _SYMMETRY_RTOL:
        raise RuntimeError(
            f"the generator breaks the Larmor turn symmetry by {error:.2e} (relative); "
            "the pulse map cannot be built from one step"
        )


def _maps(model: DriftNoiseModel, generators: np.ndarray, turn) -> tuple[np.ndarray, np.ndarray]:
    """``(M, C_n)`` on one part of the state, from ``G`` on it at the phases
    of :func:`_stage_trig` and its turn, ``theta -> R_theta - I``.

    ``M - I = (I + turn)(I + rk4) - I`` is powered on the increment: at 64
    periods of 200 steps that leaves the state about 100 times closer to an
    extended-precision run of the steps than powering ``M``.
    """
    rk4 = _rk4_increment(model, generators)
    step_turn = turn(model.params.Omega * model.dt)
    increment = step_turn + rk4
    increment += step_turn @ rk4
    eye = np.eye(len(increment))
    power = _power_increment(increment, model.n_steps)
    power += eye
    back = eye + turn(-model.params.Omega * (model.n_steps * model.dt))
    return eye + increment, back @ power


@functools.lru_cache(maxsize=4)
def _pulse_maps(model: DriftNoiseModel) -> tuple[np.ndarray, np.ndarray]:
    """The rotating-frame step ``M = R_delta S_0`` and the pulse map ``C_n``
    on the covariance state ``x = [vech Sigma; 1]``.

    ``C_n = R_(-n delta) M^n`` is the product of the ``n`` RK4 steps of the
    grid; :func:`_check_symmetry` checks the symmetry that makes it so on
    the 8 x 8 parts that :func:`_covariance_generators` then lifts onto
    ``x``.  The two rotation lifts come from :func:`_rotation_increment`'s
    cache, shared by every model on the same grid.  The cache key, the
    model's identity, leaves out ``n_i`` and the readout loss, so a grid
    over initial occupations or over the loss shares an entry.
    An entry takes about 22 kB; four leave room for a model that alternates
    with its matched baseline, as ``compare`` does in a sweep.
    """
    drift, diffusion = _model_parts(model)
    _check_symmetry(drift, diffusion)
    return _maps(model, _covariance_generators(model, drift, diffusion), _rotation_increment)


@functools.lru_cache(maxsize=4)
def _mean_map(model: DriftNoiseModel) -> np.ndarray:
    """The pulse map of the 8 means, ``s_(-n delta) m^n`` with ``m`` the
    rotating-frame step of ``dmean/dt = A mean``: :func:`_maps` on ``A`` at
    the first step's phases, with the turn :func:`_accumulator_turn`.

    It reads the drift parts that :func:`_pulse_maps` checks, and
    :func:`propagate_moments`, its one caller, builds that map of the model
    first.  Cached per drift model as :func:`_pulse_maps` is; an entry
    takes 512 bytes.
    """
    drift, _ = _model_parts(model)
    return _maps(model, _drift_at(_stage_trig(model), drift), _accumulator_turn)[1]


def oracle_epr_after_measurement(
    model: DriftNoiseModel,
    *,
    initial: GaussianState | None = None,
):
    """Propagate, condition on both accumulated p-quadratures, report EPR.

    This is the brute-force counterpart of the pulse map followed by homodyne
    conditioning; it certifies the idealized pipeline.  The figure is
    :func:`propagate_moments` and ``condition_on_readout`` with no state
    between: the pulse's moments, after the readout loss, are conditioned as
    arrays, settled once, and the report is read off the covariance.  The
    covariance does not depend on the means, so the pulse's means are taken
    as zero: no mean map is built, even from a displaced state.
    """
    x, _, modes = _start(model, initial)
    mean, cov = _pulse_moments(model, _pulse_maps(model)[1], x, np.zeros(8))
    _, mean, cov, _ = _conditioned(modes, mean, cov, _readout(), None)
    return _epr_report(_settled(mean, cov), 0, 1, Provenance.ORACLE)
