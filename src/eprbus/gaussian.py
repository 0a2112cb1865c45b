"""Gaussian states over labeled bosonic modes, and the linear-algebra
primitives everything else is built from.

Conventions used throughout the package:

* quadratures are ordered ``(X1, P1, ..., Xn, Pn)`` with ``[X, P] = i``,
* the vacuum has variance 1/2 per quadrature, a thermal state ``nbar + 1/2``,
* with these choices two ground-state modes have an EPR variance
  ``Var(X1 + X2) + Var(P1 - P2) = 2``, and any value below 2 certifies
  entanglement.

States are immutable values; every operation returns a fresh state, so
independent computations can run concurrently without locking.  Anything
stochastic (sampling a homodyne outcome) takes an explicit
``numpy.random.Generator`` so replays are deterministic.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

#: Absolute tolerance for covariance-symmetry and symplectic-identity checks.
SYMMETRY_TOL = 1e-10
#: Eigenvalues of the uncertainty test matrix may dip below zero by this plus
#: ``UNCERTAINTY_ROUNDOFF * eps * max|cov|`` before a state is rejected: the
#: roundoff grows with the largest entry, about 1e8 for a resonator at room
#: temperature.
UNCERTAINTY_TOL = 1e-9
UNCERTAINTY_ROUNDOFF = 4.0
#: Channel outputs with a larger covariance entry are refused: roundoff there
#: (``eps * 1e12 ~ 2e-4``) nears the vacuum variance, and a conditioning on
#: such an output loses its digits.
MAX_CHANNEL_VARIANCE = 1e12
#: Marginal variances below this are treated as degenerate, not conditioned on.
DEGENERATE_VARIANCE = 1e-12

VACUUM_VARIANCE = 0.5
ENTANGLEMENT_BOUND = 2.0


class InvalidStateError(ValueError):
    """The mean/covariance data does not describe a physical Gaussian state."""


class InvalidChannelError(ValueError):
    """A linear map produced an output violating the uncertainty relation."""


class ModeKind(enum.Enum):
    MECHANICAL = "mechanical"
    ATOMIC = "atomic"
    LIGHT = "light"


@dataclass(frozen=True)
class ModeLabel:
    """Identity of one bosonic mode.

    Atomic modes follow the negative-mass convention (the collective spin is
    pumped to the energetically higher state, flipping the sign of its Larmor
    rotation).  The flag lives in the dynamics modules; here the kind is pure
    bookkeeping.
    """

    kind: ModeKind
    name: str

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.kind.value}:{self.name}"


def mechanical_mode(name: str = "m") -> ModeLabel:
    return ModeLabel(ModeKind.MECHANICAL, name)


def atomic_mode(name: str = "a") -> ModeLabel:
    return ModeLabel(ModeKind.ATOMIC, name)


def light_mode(name: str) -> ModeLabel:
    return ModeLabel(ModeKind.LIGHT, name)


@functools.cache
def symplectic_form(n_modes: int) -> np.ndarray:
    """Standard symplectic form in XPXP ordering; shared and read-only."""
    omega = np.kron(np.eye(n_modes), [[0.0, 1.0], [-1.0, 0.0]])
    omega.setflags(write=False)
    return omega


@functools.cache
def _embedding_base(n_modes: int) -> np.ndarray:
    """``[[0, -Omega/2], [Omega/2, 0]]``; shared and read-only."""
    dim = 2 * n_modes
    half = symplectic_form(n_modes) / 2.0
    base = np.zeros((2 * dim, 2 * dim))
    base[:dim, dim:] = -half
    base[dim:, :dim] = half
    base.setflags(write=False)
    return base


def _embedding(cov: np.ndarray) -> np.ndarray:
    """The real embedding ``[[cov, -Omega/2], [Omega/2, cov]]`` of
    ``cov + i/2 * Omega``, which is PSD exactly when the latter is."""
    dim = cov.shape[0]
    test = _embedding_base(dim // 2).copy()
    test[:dim, :dim] = test[dim:, dim:] = cov
    return test


def _min_uncertainty_eigenvalue(cov: np.ndarray) -> float:
    return float(np.linalg.eigvalsh(_embedding(cov))[0])


def _check_uncertainty(cov: np.ndarray) -> None:
    """Raise :class:`InvalidStateError` unless ``cov + i/2 * Omega >= 0``
    holds to within ``tol`` (see ``UNCERTAINTY_TOL``).

    The embedding shifted by ``tol * I`` has a Cholesky factor whenever its
    smallest eigenvalue lies above ``-tol``, so a finite factor accepts the
    state; pure states, with a zero eigenvalue, stay on this fast side.  When
    the factorization fails, or LAPACK carries a NaN or infinity through it
    without failing, ``eigvalsh`` decides against the same ``tol`` and names
    the smallest eigenvalue.
    """
    tol = UNCERTAINTY_TOL + UNCERTAINTY_ROUNDOFF * np.finfo(float).eps * float(np.abs(cov).max())
    test = _embedding(cov)
    test.reshape(-1)[:: len(test) + 1] += tol  # the diagonal, as a view
    try:
        if np.isfinite(np.linalg.cholesky(test)).all():
            return
    except np.linalg.LinAlgError:
        pass
    lam = _min_uncertainty_eigenvalue(cov)
    if lam < -tol:
        raise InvalidStateError(f"uncertainty relation violated (min eigenvalue {lam:.2e})")


def _settled(mean: np.ndarray, cov: np.ndarray) -> np.ndarray:
    """``cov`` as a state holds it, after the checks every state passes.

    Raises :class:`InvalidStateError` on a non-finite mean or covariance and
    on a covariance asymmetric beyond ``SYMMETRY_TOL``; roundoff asymmetry
    below that is averaged away.
    """
    # a NaN or infinity makes the sum of squares non-finite, and so can
    # overflow, which the test by entry then lets pass
    if not math.isfinite(np.vdot(mean, mean) + np.vdot(cov, cov)):
        for name, value in (("mean", mean), ("cov", cov)):
            if not np.isfinite(value).all():
                raise InvalidStateError(f"{name} must be finite")
    asym = float(np.abs(cov - cov.T).max()) if cov.size else 0.0
    if asym > SYMMETRY_TOL:
        raise InvalidStateError(f"covariance asymmetric by {asym:.2e}")
    if asym:  # averaging changes no exactly symmetric matrix, and may overflow
        cov = (cov + cov.T) / 2.0
    return cov


def _channel_output(mean: np.ndarray, cov: np.ndarray) -> np.ndarray:
    """The settled covariance of a channel's output, checked against the
    uncertainty relation and ``MAX_CHANNEL_VARIANCE``.

    A failed check means the channel was not physical, or not representable,
    for its input: every :class:`InvalidStateError` is raised as
    :class:`InvalidChannelError`.
    """
    try:
        cov = _settled(mean, cov)
        if np.abs(cov).max() > MAX_CHANNEL_VARIANCE:
            raise InvalidStateError("covariance above 1e12: roundoff would swamp the vacuum noise")
        _check_uncertainty(cov)
    except InvalidStateError as err:
        raise InvalidChannelError(str(err)) from err
    return cov


@dataclass(frozen=True)
class GaussianState:
    """Mean vector and covariance matrix over an ordered set of labeled modes.

    ``mean`` has length ``2n`` and ``cov`` shape ``(2n, 2n)`` in the
    ``(X1, P1, ..., Xn, Pn)`` ordering.  Construction, the way states come in
    from outside the package, copies both and checks everything: shapes,
    unique mode names, finite moments, a symmetric covariance and the
    uncertainty relation.  Inside, :meth:`_wrap` takes the arrays of outputs
    that are physical whenever their input is as they are.
    """

    modes: tuple[ModeLabel, ...]
    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self) -> None:
        modes = tuple(self.modes)
        dim = 2 * len(modes)
        mean = np.array(self.mean, dtype=float).reshape(-1)
        cov = np.array(self.cov, dtype=float)
        if mean.shape != (dim,):
            raise InvalidStateError(f"mean must have length {dim}, got {mean.shape}")
        if cov.shape != (dim, dim):
            raise InvalidStateError(f"cov must be {dim}x{dim}, got {cov.shape}")
        cov = _settled(mean, cov)
        if dim:
            _check_uncertainty(cov)
        self._take(modes, mean, cov)

    @classmethod
    def _wrap(cls, modes: tuple[ModeLabel, ...], mean: np.ndarray, cov: np.ndarray):
        """A state over fresh float arrays the package has just built and
        settled: not copied, settled again or checked for uncertainty."""
        state = object.__new__(cls)
        state._take(modes, mean, cov)
        return state

    def _take(self, modes: tuple[ModeLabel, ...], mean: np.ndarray, cov: np.ndarray) -> None:
        """Set the fields, read-only, after the one test every state passes."""
        names = [m.name for m in modes]
        if len(set(names)) != len(names):
            raise InvalidStateError(f"mode names must be unique, got {names}")
        mean.setflags(write=False)
        cov.setflags(write=False)
        for field, value in (("modes", modes), ("mean", mean), ("cov", cov)):
            object.__setattr__(self, field, value)

    @property
    def n_modes(self) -> int:
        return len(self.modes)

    @property
    def dim(self) -> int:
        return 2 * len(self.modes)

    def mode_index(self, mode: ModeLabel | str) -> int:
        return _mode_index(self.modes, mode)

    def x_index(self, mode: ModeLabel | str) -> int:
        return 2 * self.mode_index(mode)

    def p_index(self, mode: ModeLabel | str) -> int:
        return 2 * self.mode_index(mode) + 1


def _mode_index(modes: tuple[ModeLabel, ...], mode: ModeLabel | str) -> int:
    for i, label in enumerate(modes):
        if label == mode or label.name == mode:
            return i
    raise ValueError(f"mode {mode!r} not present in state {list(map(str, modes))}")


class Provenance(enum.Enum):
    """How an EPR-variance figure was obtained."""

    PREDICTED = "predicted"
    IDEALIZED_MAP = "idealized_map"
    ORACLE = "oracle"
    VERIFICATION_READOUT = "verification_readout"


@dataclass(frozen=True)
class EPRReport:
    """EPR variance of a mechanical/atomic pair and the entanglement verdict.

    ``delta_epr = var_xsum + var_pdiff`` and ``entangled`` iff the total is
    below 2.  ``corrections`` optionally records closed-form decoherence
    terms that were folded in; ``stderr`` carries the standard error of a
    finite-shot verification estimate.
    """

    var_xsum: float
    var_pdiff: float
    provenance: Provenance
    corrections: dict | None = None
    stderr: float | None = None

    def __post_init__(self) -> None:
        # numpy scalars in, plain floats out: the verdict is then a bool that JSON takes
        object.__setattr__(self, "var_xsum", float(self.var_xsum))
        object.__setattr__(self, "var_pdiff", float(self.var_pdiff))

    @property
    def delta_epr(self) -> float:
        return self.var_xsum + self.var_pdiff

    @property
    def entangled(self) -> bool:
        return self.delta_epr < ENTANGLEMENT_BOUND


@dataclass(frozen=True)
class MeasurementRecord:
    """Outcome of one homodyne detection (angle 0 = X, pi/2 = P)."""

    mode: ModeLabel
    quadrature_angle: float
    outcome: float
    outcome_variance: float

    def __post_init__(self) -> None:
        if not self.outcome_variance > 0.0:
            raise ValueError("outcome_variance must be positive")


# ---------------------------------------------------------------------------
# construction


def make_state(
    specs: Sequence[tuple[ModeLabel, float, tuple[float, float]]]
) -> GaussianState:
    """Product state of thermal/displaced modes.

    Each spec is ``(label, nbar, (mean_x, mean_p))``; the mode gets a diagonal
    covariance ``nbar + 1/2`` per quadrature.  Non-finite values and negative
    occupations are rejected; a finite ``nbar >= 0`` makes the state
    physical exactly, so it is not checked further.
    """
    labels, mean, diag = [], [], []
    for label, nbar, displacement in specs:
        dx, dp = map(float, displacement)
        if not all(map(math.isfinite, (nbar, dx, dp))):
            raise InvalidStateError(f"occupation and displacement of {label} must be finite")
        if nbar < 0:
            raise ValueError(f"occupation must be non-negative, got {nbar} for {label}")
        labels.append(label)
        mean.extend([dx, dp])
        diag.extend([nbar + VACUUM_VARIANCE] * 2)
    diag = np.array(diag, dtype=float)
    return GaussianState._wrap(tuple(labels), np.array(mean, dtype=float), np.diag(diag))


def tensor(a: GaussianState, b: GaussianState) -> GaussianState:
    """Product of two states on disjoint mode sets."""
    mean = np.concatenate([a.mean, b.mean])
    cov = np.zeros((a.dim + b.dim, a.dim + b.dim))
    cov[: a.dim, : a.dim] = a.cov
    cov[a.dim :, a.dim :] = b.cov
    return GaussianState(a.modes + b.modes, mean, cov)


# ---------------------------------------------------------------------------
# channels


def apply_linear_map(state: GaussianState, transform: np.ndarray) -> GaussianState:
    """Gaussian channel ``mean -> S mean``, ``cov -> S cov S^T``.

    If the output would violate the uncertainty relation ``S`` was not a
    physical map for this input and :class:`InvalidChannelError` is raised.
    """
    dim = state.dim
    transform = np.asarray(transform, dtype=float)
    if transform.shape != (dim, dim):
        raise ValueError(f"transform must be {dim}x{dim}, got {transform.shape}")
    mean = transform @ state.mean
    cov = transform @ state.cov @ transform.T
    return GaussianState._wrap(state.modes, mean, _channel_output(mean, cov))


def displace(state: GaussianState, mode: ModeLabel | str, dx: float, dp: float) -> GaussianState:
    """Shift the mean of one mode; the covariance is untouched."""
    i = state.x_index(mode)
    mean = state.mean.copy()
    mean[i : i + 2] += (dx, dp)
    if not np.isfinite(mean[i : i + 2]).all():
        raise InvalidStateError("displaced mean must be finite")
    return GaussianState._wrap(state.modes, mean, state.cov)


def loss_channel(
    state: GaussianState, mode: ModeLabel | str, transmission: float
) -> GaussianState:
    """Beam-splitter admixture of vacuum on one mode (photon loss).

    The lossy mode's block becomes ``eta * block + (1 - eta) I / 2``,
    cross-covariances and means scale by ``sqrt(eta)``.
    """
    if not 0.0 <= transmission <= 1.0:
        raise ValueError(f"transmission must lie in [0, 1], got {transmission}")
    mean, cov = state.mean.copy(), state.cov.copy()
    _admix_loss(mean, cov, state.mode_index(mode), transmission)
    return GaussianState(state.modes, mean, cov)


def _admix_loss(mean: np.ndarray, cov: np.ndarray, i: int, transmission: float) -> None:
    """:func:`loss_channel` on mode ``i`` of the moments, in place and unchecked.

    A symmetric ``cov`` stays exactly symmetric.
    """
    sl = slice(2 * i, 2 * i + 2)
    root = math.sqrt(transmission)
    block = transmission * cov[sl, sl]
    mean[sl] *= root
    cov[sl, :] *= root
    cov[:, sl] *= root
    # diagonal block picked up eta once from each side; fix it to eta * block
    cov[sl, sl] = block
    cov[sl, sl] += (1.0 - transmission) * VACUUM_VARIANCE * np.eye(2)


# ---------------------------------------------------------------------------
# measurement and reduction


def condition_on_homodyne(
    state: GaussianState,
    mode: ModeLabel | str,
    angle: float,
    outcome: float | str = 0.0,
    *,
    rng: np.random.Generator | None = None,
) -> tuple[GaussianState, MeasurementRecord]:
    """Measure one quadrature of ``mode`` and condition the rest on the result.

    The remaining modes are updated by the Schur-complement rule; the measured
    mode is removed.  The conditional covariance does not depend on the
    outcome value.  ``outcome="sample"`` draws the result from the marginal
    using ``rng`` (required in that case).
    """
    state, (record,) = _condition(state, ((mode, angle, outcome),), rng)
    return state, record


def _condition(
    state: GaussianState,
    measurements: Sequence[tuple[ModeLabel | str, float, float | str]],
    rng: np.random.Generator | None,
) -> tuple[GaussianState, tuple[MeasurementRecord, ...]]:
    """:func:`condition_on_homodyne` of each ``(mode, angle, outcome)`` in turn,
    each mode looked up among those still present: a rank-1 update, the drop
    of the mode and a settle each, then one state wrapped unchecked, since
    conditioning a physical state gives a physical one.  Returns the state
    and one record per measurement.
    """
    modes, mean, cov = state.modes, state.mean, state.cov
    records = []
    for mode, angle, outcome in measurements:
        idx = _mode_index(modes, mode)
        label = modes[idx]
        v = np.zeros(len(mean))
        v[2 * idx] = math.cos(angle)
        v[2 * idx + 1] = math.sin(angle)
        var_b = float(v @ cov @ v)
        if var_b < DEGENERATE_VARIANCE:
            raise ValueError(f"measured quadrature of {label} has degenerate variance {var_b:.3e}")
        mean_b = float(v @ mean)
        if isinstance(outcome, str):
            if outcome != "sample":
                raise ValueError(f"outcome must be a number or 'sample', got {outcome!r}")
            if rng is None:
                raise ValueError("sampling an outcome requires an explicit rng")
            xi = float(rng.normal(mean_b, math.sqrt(var_b)))
        else:
            xi = float(outcome)
        records.append(MeasurementRecord(label, angle, xi, var_b))

        cross = cov @ v
        gain = cross / var_b
        mean = mean + gain * (xi - mean_b)
        cov = cov - np.outer(gain, cross)

        # an index array picks rows, then columns, at a third of the cost of np.ix_
        keep = np.array([j for j in range(len(mean)) if j not in (2 * idx, 2 * idx + 1)])
        mean, cov = mean[keep], cov[keep][:, keep]
        cov = _settled(mean, cov)
        modes = modes[:idx] + modes[idx + 1 :]
    return GaussianState._wrap(modes, mean, cov), tuple(records)


def linear_form_moments(
    state: GaussianState, forms: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Mean and covariance of linear combinations of quadratures.

    ``forms`` has shape ``(k, 2n)``; row ``i`` defines the observable
    ``sum_j forms[i, j] * r_j``.
    """
    forms = np.atleast_2d(np.asarray(forms, dtype=float))
    if forms.shape[1] != state.dim:
        raise ValueError(f"forms must have {state.dim} columns")
    return forms @ state.mean, forms @ state.cov @ forms.T


def epr_pair(pos: int, neg: int) -> tuple[tuple[int, int, float], tuple[int, int, float]]:
    """The EPR pair read by the QND Bell measurement, on mode indices.

    The mode at index ``pos`` plays the positive-mass role and the one at
    ``neg`` the negative-mass role; the pair is ``X_pos + X_neg`` and
    ``P_pos - P_neg``.  Each observable is returned as ``(i, j, s)``:
    quadrature ``i`` plus ``s`` times quadrature ``j``.  Every EPR figure in
    the package takes the pair from here.
    """
    return (2 * pos, 2 * neg, 1.0), (2 * pos + 1, 2 * neg + 1, -1.0)


def epr_forms(dim: int, pos: int, neg: int) -> np.ndarray:
    """The pair of :func:`epr_pair` as two rows of linear forms over ``dim`` quadratures."""
    forms = np.zeros((2, dim))
    for row, (i, j, s) in zip(forms, epr_pair(pos, neg)):
        row[i] = 1.0
        row[j] = s
    return forms


def epr_variance(
    state: GaussianState,
    mech: ModeLabel | str,
    atom: ModeLabel | str,
    provenance: Provenance = Provenance.IDEALIZED_MAP,
) -> EPRReport:
    """``Var(X_mech + X_atom) + Var(P_mech - P_atom)`` with the < 2 verdict."""
    c = state.cov
    var_xsum, var_pdiff = (
        c[i, i] + c[j, j] + 2.0 * s * c[i, j]
        for i, j, s in epr_pair(state.mode_index(mech), state.mode_index(atom))
    )
    return EPRReport(var_xsum, var_pdiff, provenance)
