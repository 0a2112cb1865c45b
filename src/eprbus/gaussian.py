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

:class:`GaussianState` gives the checks and the unchecked wrap, the constants
below their tolerances; :func:`_conditioned` and :func:`_admix_loss` are the
array kernels of conditioning and loss.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

#: A covariance may be asymmetric by this plus the roundoff below before a
#: state is rejected.
SYMMETRY_TOL = 1e-10
#: Eigenvalues of the uncertainty test matrix may dip below zero by this plus
#: the roundoff below before a state is rejected.
UNCERTAINTY_TOL = 1e-9
#: Both checks allow ``ROUNDOFF_ULPS * eps * max|cov|`` more: the roundoff
#: grows with the largest entry, about 1e8 for a resonator at room
#: temperature.
ROUNDOFF_ULPS = 4.0
#: ``ROUNDOFF_ULPS * eps``, read once.
_ROUNDOFF_PER_UNIT = ROUNDOFF_ULPS * np.finfo(float).eps
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


def _check_uncertainty(cov: np.ndarray, peak: float | None = None) -> None:
    """Raise :class:`InvalidStateError` unless ``cov + i/2 * Omega >= 0``
    holds to within ``tol`` (see ``UNCERTAINTY_TOL``); ``peak`` is
    ``max|cov|`` when the caller has already taken it.

    The embedding shifted by ``tol * I`` has a Cholesky factor whenever its
    smallest eigenvalue lies above ``-tol``, so a finite factor accepts the
    state; pure states, with a zero eigenvalue, stay on this fast side.  When
    the factorization fails, or LAPACK carries a NaN or infinity through it
    without failing, ``eigvalsh`` decides against the same ``tol`` and names
    the smallest eigenvalue.
    """
    tol = _roundoff_tol(UNCERTAINTY_TOL, _peak(cov) if peak is None else peak)
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


def _roundoff_tol(tol: float, peak: float) -> float:
    """``tol`` plus the roundoff of entries as large as ``peak``."""
    return tol + _ROUNDOFF_PER_UNIT * peak


def _peak(cov: np.ndarray) -> float:
    """``max|cov|`` of a non-empty covariance."""
    return float(np.maximum.reduce(np.abs(cov), axis=None))


def _settled(mean: np.ndarray, cov: np.ndarray) -> np.ndarray:
    """``cov`` as a state holds it, after the checks every state passes.

    Raises :class:`InvalidStateError` on a non-finite mean or covariance and
    on a covariance asymmetric beyond ``SYMMETRY_TOL`` plus the roundoff of
    its largest entry (see ``ROUNDOFF_ULPS``); roundoff asymmetry below that
    is averaged away.
    """
    # a NaN or infinity makes the sum of squares non-finite, and so can
    # overflow, which the test by entry then lets pass
    if not math.isfinite(np.vdot(mean, mean) + np.vdot(cov, cov)):
        for name, value in (("mean", mean), ("cov", cov)):
            if not np.isfinite(value).all():
                raise InvalidStateError(f"{name} must be finite")
    # its own transpose byte for byte, as conditioning leaves it, a
    # covariance has no asymmetry; an empty one has no largest entry
    if cov.tobytes() == cov.T.tobytes():
        return cov
    asym = _peak(cov - cov.T)
    # the absolute bound first: nearly every state passes it
    if asym > SYMMETRY_TOL and asym > _roundoff_tol(SYMMETRY_TOL, _peak(cov)):
        raise InvalidStateError(f"covariance asymmetric by {asym:.2e}")
    if asym:  # averaging changes no exactly symmetric matrix, and may overflow
        cov = (cov + cov.T) / 2.0
    return cov


def _channel_output(mean: np.ndarray, cov: np.ndarray) -> np.ndarray:
    """The settled covariance of a channel's output, checked against the
    uncertainty relation and ``MAX_CHANNEL_VARIANCE``.

    A failed check means the channel was not physical, or not representable,
    for its input: every :class:`InvalidStateError` is raised as
    :class:`InvalidChannelError`.  The cap and the uncertainty tolerance
    read one ``max|cov|``.
    """
    try:
        cov = _settled(mean, cov)
        peak = _peak(cov)
        if peak > MAX_CHANNEL_VARIANCE:
            raise InvalidStateError("covariance above 1e12: roundoff would swamp the vacuum noise")
        _check_uncertainty(cov, peak)
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
        _require_unique_names(modes)
        mean.setflags(write=False)
        cov.setflags(write=False)
        # one update of the instance dict, where object.__setattr__ puts each
        vars(self).update(modes=modes, mean=mean, cov=cov)

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


def _require_unique_names(modes: Sequence[ModeLabel]) -> None:
    """Raise :class:`InvalidStateError` unless the names of ``modes`` are unique."""
    names = [m.name for m in modes]
    if len(set(names)) != len(names):
        raise InvalidStateError(f"mode names must be unique, got {names}")


def _mode_index(modes: Sequence[ModeLabel], mode: ModeLabel | str) -> int:
    """Where ``mode``, a label or a mode name, sits in ``modes``.

    The label itself is looked for first, by identity, which is how the
    package passes its own labels; then an equal label or the name.  Mode
    names are unique, so either pass finds the same mode.
    """
    for i, label in enumerate(modes):
        if label is mode:
            return i
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

    @classmethod
    def _wrap(cls, var_xsum: float, var_pdiff: float, provenance: Provenance) -> "EPRReport":
        """A report of two plain floats, with no corrections and no standard
        error, its fields set in one update of the instance dict rather than
        by the frozen ``__init__``, whose ``__post_init__`` would change
        nothing."""
        report = object.__new__(cls)
        vars(report).update(
            var_xsum=var_xsum,
            var_pdiff=var_pdiff,
            provenance=provenance,
            corrections=None,
            stderr=None,
        )
        return report

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

    @classmethod
    def _wrap(
        cls, mode: ModeLabel, quadrature_angle: float, outcome: float, outcome_variance: float
    ) -> "MeasurementRecord":
        """The record, its fields set in one update of the instance dict
        rather than by the frozen ``__init__``, and not checked: its one
        caller, :func:`_conditioned`, has refused a variance that is not
        finite or below ``DEGENERATE_VARIANCE``."""
        record = object.__new__(cls)
        vars(record).update(
            mode=mode,
            quadrature_angle=quadrature_angle,
            outcome=outcome,
            outcome_variance=outcome_variance,
        )
        return record


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
        mean += dx, dp
        diag += [nbar + VACUUM_VARIANCE] * 2
    dim = len(diag)
    cov = np.zeros((dim, dim))
    cov.reshape(-1)[:: dim + 1] = diag  # the diagonal, as a view
    return GaussianState._wrap(tuple(labels), np.array(mean, dtype=float), cov)


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
    mode is removed, so measuring the last mode leaves the state of no modes.
    The conditional covariance does not depend on the outcome value.
    ``outcome="sample"`` draws the result from the marginal using ``rng``
    (required in that case).  A non-finite ``angle`` raises ``ValueError``.
    """
    state, (record,) = _condition(state, ((mode, angle, outcome),), rng)
    return state, record


def _condition(
    state: GaussianState,
    measurements: Sequence[tuple[ModeLabel | str, float, float | str]],
    rng: np.random.Generator | None,
) -> tuple[GaussianState, tuple[MeasurementRecord, ...]]:
    """:func:`_conditioned` on a state, settled once and wrapped unchecked,
    since conditioning a physical state gives a physical one."""
    modes, mean, cov, records = _conditioned(state.modes, state.mean, state.cov, measurements, rng)
    return GaussianState._wrap(modes, mean, _settled(mean, cov)), records


def _conditioned(
    modes: tuple[ModeLabel, ...],
    mean: np.ndarray,
    cov: np.ndarray,
    measurements: Sequence[tuple[ModeLabel | str, float, float | str]],
    rng: np.random.Generator | None,
) -> tuple[tuple[ModeLabel, ...], np.ndarray, np.ndarray, tuple[MeasurementRecord, ...]]:
    """:func:`condition_on_homodyne` of each ``(mode, angle, outcome)`` in turn
    on the moments of a settled state, each mode looked up among those not
    yet measured.

    Each measurement is a rank-1 Schur update of the full moments, averaged
    with its transpose as :func:`_settled` averages; the measured modes are
    dropped once, at the end, which leaves every kept entry as a drop after
    each update would.  A later update reduces rows that still hold the
    measured modes, so at a general angle it can differ in the last bit
    from a separate call on the dropped state.  Returns the modes left,
    their moments, not settled, and one record per measurement.
    """
    # the modes not yet measured, and where each sits in ``modes``
    left, kept, records = list(modes), list(range(len(modes))), []
    for mode, angle, outcome in measurements:
        at = _mode_index(left, mode)
        label, idx = left.pop(at), kept.pop(at)
        if not math.isfinite(angle):
            raise ValueError(f"homodyne angle of {label} must be finite, got {angle!r}")
        v = np.zeros(len(mean))
        v[2 * idx] = math.cos(angle)
        v[2 * idx + 1] = math.sin(angle)
        var_b = float(v @ cov @ v)
        if not DEGENERATE_VARIANCE <= var_b < math.inf:  # NaN fails both sides
            if not math.isfinite(var_b):
                raise ValueError(f"measured quadrature of {label} has variance {var_b}, not finite")
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
        records.append(MeasurementRecord._wrap(label, angle, xi, var_b))

        cross = cov @ v
        gain = cross / var_b
        mean = mean + gain * (xi - mean_b)
        cov = cov - np.multiply.outer(gain, cross)
        cov = (cov + cov.T) / 2.0

    # taking rows, then columns, costs a third of np.ix_ and leaves C order
    keep = _quadratures(tuple(kept))
    return tuple(left), mean.take(keep), cov.take(keep, 0).take(keep, 1), tuple(records)


@functools.lru_cache(maxsize=16)
def _quadratures(modes: tuple[int, ...]) -> np.ndarray:
    """The quadrature indices of the modes at ``modes``, in order; read-only."""
    index = np.array([q for i in modes for q in (2 * i, 2 * i + 1)], dtype=np.intp)
    index.setflags(write=False)
    return index


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
    pos, neg = state.mode_index(mech), state.mode_index(atom)
    if pos == neg:
        raise ValueError("positive- and negative-mass roles must differ")
    return _epr_report(state.cov, pos, neg, provenance)


def _epr_report(cov: np.ndarray, pos: int, neg: int, provenance: Provenance) -> EPRReport:
    """:func:`epr_variance` read off a covariance, with the roles at mode
    indices ``pos`` and ``neg``; the sums are those of numpy scalars, on
    plain floats."""
    (xi, xj, xs), (pi, pj, ps) = epr_pair(pos, neg)
    entry = cov.item
    return EPRReport._wrap(
        entry(xi, xi) + entry(xj, xj) + 2.0 * xs * entry(xi, xj),
        entry(pi, pi) + entry(pj, pj) + 2.0 * ps * entry(pi, pj),
        provenance,
    )
