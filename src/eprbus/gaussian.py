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
from dataclasses import InitVar, dataclass
from typing import Iterable, Sequence

import numpy as np

#: Absolute tolerance for covariance-symmetry and symplectic-identity checks.
SYMMETRY_TOL = 1e-10
#: Eigenvalues of the uncertainty test matrix may dip this far below zero
#: before a state is rejected (absorbs accumulated roundoff).  The fast test
#: adds it to the diagonal of that matrix and accepts on a Cholesky factor, so
#: pure states, whose smallest eigenvalue is zero, pass without ``eigvalsh``.
UNCERTAINTY_TOL = 1e-9
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
def _shifted_embedding_base(n_modes: int) -> np.ndarray:
    """``[[tol I, -Omega/2], [Omega/2, tol I]]``: the shifted real embedding
    of ``cov + i/2 * Omega`` without ``cov``, with ``tol = UNCERTAINTY_TOL``."""
    dim = 2 * n_modes
    half = symplectic_form(n_modes) / 2.0
    base = np.zeros((2 * dim, 2 * dim))
    base[:dim, dim:] = -half
    base[dim:, :dim] = half
    base[np.diag_indices(2 * dim)] = UNCERTAINTY_TOL
    base.setflags(write=False)
    return base


def _min_uncertainty_eigenvalue(cov: np.ndarray) -> float:
    """Smallest eigenvalue of the real embedding of ``cov + i/2 * Omega``.

    ``cov + (i/2) Omega >= 0`` is equivalent to PSD-ness of the real symmetric
    matrix ``[[cov, -Omega/2], [Omega/2, cov]]``.
    """
    half = symplectic_form(cov.shape[0] // 2) / 2.0
    return float(np.linalg.eigvalsh(np.block([[cov, -half], [half, cov]]))[0])


def _check_uncertainty(cov: np.ndarray) -> None:
    """Raise :class:`InvalidStateError` unless ``cov + i/2 * Omega >= 0``
    holds to within ``UNCERTAINTY_TOL``.

    The embedding shifted by ``UNCERTAINTY_TOL * I`` has a Cholesky factor
    whenever its smallest eigenvalue lies above ``-UNCERTAINTY_TOL``, so a
    finite factor accepts the state.  Pure states put a zero eigenvalue in
    the unshifted embedding, and the shift keeps them on the fast side.  When
    the factorization fails, or LAPACK carries a NaN or infinity through it
    without failing, ``eigvalsh`` decides and names the smallest eigenvalue:
    a state is rejected only when ``eigvalsh`` rejects it.
    """
    dim = cov.shape[0]
    test = _shifted_embedding_base(dim // 2).copy()
    test[:dim, :dim] += cov
    test[dim:, dim:] += cov
    try:
        if np.isfinite(np.linalg.cholesky(test)).all():
            return
    except np.linalg.LinAlgError:
        pass
    lam = _min_uncertainty_eigenvalue(cov)
    if lam < -UNCERTAINTY_TOL:
        raise InvalidStateError(f"uncertainty relation violated (min eigenvalue {lam:.2e})")


@dataclass(frozen=True)
class GaussianState:
    """Mean vector and covariance matrix over an ordered set of labeled modes.

    ``mean`` has length ``2n`` and ``cov`` shape ``(2n, 2n)`` in the
    ``(X1, P1, ..., Xn, Pn)`` ordering.  Construction rejects a non-finite
    mean or covariance and checks symmetry always, and the uncertainty
    relation unless ``validate=False`` (used internally for partially
    accumulated temporal modes, which are legitimate sub-vacuum objects until
    the pulse completes).
    """

    modes: tuple[ModeLabel, ...]
    mean: np.ndarray
    cov: np.ndarray
    validate: InitVar[bool] = True

    def __post_init__(self, validate: bool) -> None:
        modes = tuple(self.modes)
        names = [m.name for m in modes]
        if len(set(names)) != len(names):
            raise InvalidStateError(f"mode names must be unique, got {names}")
        dim = 2 * len(modes)
        mean = np.array(self.mean, dtype=float).reshape(-1)
        cov = np.array(self.cov, dtype=float)
        if mean.shape != (dim,):
            raise InvalidStateError(f"mean must have length {dim}, got {mean.shape}")
        if cov.shape != (dim, dim):
            raise InvalidStateError(f"cov must be {dim}x{dim}, got {cov.shape}")
        # a NaN or infinity makes the sum of squares non-finite, and so can
        # overflow, which the test by entry then lets pass
        if not math.isfinite(np.vdot(mean, mean) + np.vdot(cov, cov)):
            for name, value in (("mean", mean), ("cov", cov)):
                if not np.isfinite(value).all():
                    raise InvalidStateError(f"{name} must be finite")
        asym = float(np.max(np.abs(cov - cov.T))) if dim else 0.0
        if asym > SYMMETRY_TOL:
            raise InvalidStateError(f"covariance asymmetric by {asym:.2e}")
        if asym:  # averaging changes no exactly symmetric matrix, and may overflow
            cov = (cov + cov.T) / 2.0
        if validate and dim:
            _check_uncertainty(cov)
        mean.setflags(write=False)
        cov.setflags(write=False)
        object.__setattr__(self, "modes", modes)
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov", cov)

    @property
    def n_modes(self) -> int:
        return len(self.modes)

    @property
    def dim(self) -> int:
        return 2 * len(self.modes)

    def mode_index(self, mode: ModeLabel | str) -> int:
        for i, label in enumerate(self.modes):
            if label == mode or label.name == mode:
                return i
        raise ValueError(f"mode {mode!r} not present in state {list(map(str, self.modes))}")

    def x_index(self, mode: ModeLabel | str) -> int:
        return 2 * self.mode_index(mode)

    def p_index(self, mode: ModeLabel | str) -> int:
        return 2 * self.mode_index(mode) + 1


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
    covariance ``nbar + 1/2`` per quadrature.  Negative occupations are
    rejected.
    """
    labels = []
    mean = []
    diag = []
    for label, nbar, displacement in specs:
        if nbar < 0:
            raise ValueError(f"occupation must be non-negative, got {nbar} for {label}")
        dx, dp = displacement
        labels.append(label)
        mean.extend([float(dx), float(dp)])
        diag.extend([nbar + VACUUM_VARIANCE] * 2)
    return GaussianState(tuple(labels), np.array(mean), np.diag(diag))


def vacuum_state(labels: Iterable[ModeLabel]) -> GaussianState:
    return make_state([(label, 0.0, (0.0, 0.0)) for label in labels])


def tensor(a: GaussianState, b: GaussianState) -> GaussianState:
    """Product of two states on disjoint mode sets."""
    overlap = {m.name for m in a.modes} & {m.name for m in b.modes}
    if overlap:
        raise ValueError(f"mode names present in both factors: {sorted(overlap)}")
    mean = np.concatenate([a.mean, b.mean])
    cov = np.zeros((a.dim + b.dim, a.dim + b.dim))
    cov[: a.dim, : a.dim] = a.cov
    cov[a.dim :, a.dim :] = b.cov
    return GaussianState(a.modes + b.modes, mean, cov)


# ---------------------------------------------------------------------------
# channels


def apply_linear_map(
    state: GaussianState,
    transform: np.ndarray,
    noise: np.ndarray | None = None,
    displacement: np.ndarray | None = None,
) -> GaussianState:
    """General Gaussian channel ``mean -> S mean + d``, ``cov -> S cov S^T + N``.

    ``noise`` must be symmetric PSD.  If the output would violate the
    uncertainty relation the pair ``(S, noise)`` was not a physical channel
    for this input and :class:`InvalidChannelError` is raised.
    """
    dim = state.dim
    transform = np.asarray(transform, dtype=float)
    if transform.shape != (dim, dim):
        raise ValueError(f"transform must be {dim}x{dim}, got {transform.shape}")
    if noise is not None:
        noise = np.asarray(noise, dtype=float)
        if noise.shape != (dim, dim):
            raise ValueError(f"noise must be {dim}x{dim}, got {noise.shape}")
        if np.max(np.abs(noise - noise.T)) > SYMMETRY_TOL:
            raise ValueError("noise matrix must be symmetric")
        if np.linalg.eigvalsh((noise + noise.T) / 2.0)[0] < -UNCERTAINTY_TOL:
            raise ValueError("noise matrix must be positive semidefinite")
    if displacement is not None:
        displacement = np.asarray(displacement, dtype=float).reshape(-1)
        if displacement.shape != (dim,):
            raise ValueError(f"displacement must have length {dim}")

    mean = transform @ state.mean
    if displacement is not None:
        mean = mean + displacement
    cov = transform @ state.cov @ transform.T
    if noise is not None:
        cov = cov + noise
    try:
        return GaussianState(state.modes, mean, cov)
    except InvalidStateError as err:
        raise InvalidChannelError(str(err)) from err


def displace(state: GaussianState, mode: ModeLabel | str, dx: float, dp: float) -> GaussianState:
    """Shift the mean of one mode; the covariance is untouched."""
    mean = state.mean.copy()
    mean[state.x_index(mode)] += dx
    mean[state.p_index(mode)] += dp
    return GaussianState(state.modes, mean, state.cov, validate=False)


def loss_channel(
    state: GaussianState,
    mode: ModeLabel | str,
    transmission: float,
    noise_occupation: float = 0.0,
) -> GaussianState:
    """Beam-splitter admixture of a thermal environment on one mode.

    The lossy mode's block becomes ``eta * block + (1 - eta)(nbar + 1/2) I``,
    cross-covariances and means scale by ``sqrt(eta)``.  ``nbar = 0`` is the
    plain photon-loss model where the admixed noise is vacuum.
    """
    if not 0.0 <= transmission <= 1.0:
        raise ValueError(f"transmission must lie in [0, 1], got {transmission}")
    if noise_occupation < 0.0:
        raise ValueError("noise occupation must be non-negative")
    i = state.mode_index(mode)
    sl = slice(2 * i, 2 * i + 2)
    root = math.sqrt(transmission)
    mean = state.mean.copy()
    mean[sl] *= root
    cov = state.cov.copy()
    cov[sl, :] *= root
    cov[:, sl] *= root
    # diagonal block picked up eta once from each side; fix it to eta * block
    cov[sl, sl] = transmission * state.cov[sl, sl]
    cov[sl, sl] += (1.0 - transmission) * (noise_occupation + VACUUM_VARIANCE) * np.eye(2)
    return GaussianState(state.modes, mean, cov)


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
    idx = state.mode_index(mode)
    label = state.modes[idx]
    v = np.zeros(state.dim)
    v[2 * idx] = math.cos(angle)
    v[2 * idx + 1] = math.sin(angle)
    var_b = float(v @ state.cov @ v)
    if var_b < DEGENERATE_VARIANCE:
        raise ValueError(
            f"measured quadrature of {label} has degenerate variance {var_b:.3e}"
        )
    mean_b = float(v @ state.mean)
    if isinstance(outcome, str):
        if outcome != "sample":
            raise ValueError(f"outcome must be a number or 'sample', got {outcome!r}")
        if rng is None:
            raise ValueError("sampling an outcome requires an explicit rng")
        xi = float(rng.normal(mean_b, math.sqrt(var_b)))
    else:
        xi = float(outcome)

    cross = state.cov @ v
    gain = cross / var_b
    mean = state.mean + gain * (xi - mean_b)
    cov = state.cov - np.outer(gain, cross)

    keep = [j for j in range(state.dim) if j not in (2 * idx, 2 * idx + 1)]
    labels = tuple(m for j, m in enumerate(state.modes) if j != idx)
    reduced = GaussianState(labels, mean[keep], cov[np.ix_(keep, keep)], validate=False)
    record = MeasurementRecord(
        mode=label, quadrature_angle=angle, outcome=xi, outcome_variance=var_b
    )
    return reduced, record


def partial_trace(
    state: GaussianState, modes_to_keep: Sequence[ModeLabel | str]
) -> GaussianState:
    """Marginal over the requested modes (exact for Gaussian states)."""
    if not modes_to_keep:
        raise ValueError("modes_to_keep must be non-empty")
    indices = [state.mode_index(m) for m in modes_to_keep]
    if len(set(indices)) != len(indices):
        raise ValueError("duplicate modes requested")
    quad = [q for i in indices for q in (2 * i, 2 * i + 1)]
    labels = tuple(state.modes[i] for i in indices)
    return GaussianState(
        labels, state.mean[quad], state.cov[np.ix_(quad, quad)], validate=False
    )


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
