import numpy as np
import pytest

from eprbus import gaussian, oracle, protocols
from eprbus.gaussian import GaussianState, light_mode, make_state


def vacuum(*labels) -> GaussianState:
    """The vacuum of the modes ``labels``."""
    return make_state([(label, 0.0, (0.0, 0.0)) for label in labels])


def random_unitary(n: int, rng: np.random.Generator) -> np.ndarray:
    z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, r = np.linalg.qr(z)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def _xxpp_to_xpxp(n: int) -> np.ndarray:
    perm = np.empty(2 * n, dtype=int)
    perm[0::2] = np.arange(n)
    perm[1::2] = np.arange(n) + n
    return perm


def random_symplectic(
    n_modes: int, rng: np.random.Generator, max_squeeze: float = 0.6
) -> np.ndarray:
    """Random symplectic matrix in XPXP ordering (Euler decomposition)."""
    perm = _xxpp_to_xpxp(n_modes)

    def orthogonal() -> np.ndarray:
        u = random_unitary(n_modes, rng)
        o = np.block([[u.real, -u.imag], [u.imag, u.real]])
        return o[np.ix_(perm, perm)]

    r = rng.uniform(-max_squeeze, max_squeeze, size=n_modes)
    squeeze = np.diag(np.column_stack([np.exp(r), np.exp(-r)]).ravel())
    return orthogonal() @ squeeze @ orthogonal()


def random_valid_state(
    n_modes: int, rng: np.random.Generator, max_squeeze: float = 0.6
) -> GaussianState:
    s = random_symplectic(n_modes, rng, max_squeeze)
    nu = 0.5 + rng.exponential(0.5, size=n_modes)
    cov = s @ np.diag(np.repeat(nu, 2)) @ s.T
    mean = rng.normal(scale=1.0, size=2 * n_modes)
    modes = tuple(light_mode(f"q{i}") for i in range(n_modes))
    return GaussianState(modes, mean, cov)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20240811)


@pytest.fixture
def state_counts(monkeypatch) -> dict:
    """Counts of states built by the checked constructor (``checked``) and by
    ``GaussianState._wrap`` (``wrapped``), of ``_settled`` calls and of
    uncertainty checks."""
    counts = {"checked": 0, "wrapped": 0, "settles": 0, "checks": 0}
    post_init, wrap = GaussianState.__post_init__, GaussianState._wrap
    settled, check = gaussian._settled, gaussian._check_uncertainty

    def counted(key, function):
        def call(*args):
            counts[key] += 1
            return function(*args)

        return call

    monkeypatch.setattr(GaussianState, "__post_init__", counted("checked", post_init))
    monkeypatch.setattr(GaussianState, "_wrap", staticmethod(counted("wrapped", wrap)))
    # the oracle and the protocols import ``_settled`` by name, and the
    # protocols ``_check_uncertainty``
    for module in (gaussian, oracle, protocols):
        monkeypatch.setattr(module, "_settled", counted("settles", settled))
    for module in (gaussian, protocols):
        monkeypatch.setattr(module, "_check_uncertainty", counted("checks", check))
    return counts
