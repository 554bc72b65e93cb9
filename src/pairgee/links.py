"""Mean functions (inverse links) and their analytic derivatives.

Each link maps a linear predictor ``eta`` to the conditional mean ``h`` of a
pairwise response, together with ``dh/deta``.  All functions are pure and
vectorised over numpy arrays.

Available kinds
---------------
``identity``  h = eta
``exp``       h = exp(eta), guarded against overflow (eta > 700 raises)
``expit``     h = 1 / (1 + exp(-eta)), output in (0, 1)
``probitc``   h = Phi(-eta), the complementary standard-normal CDF; used by
              rank (Mann-Whitney-type) regressions.  Phi is evaluated with
              ``scipy.special.ndtr`` (Cephes erfc-based implementation,
              absolute error well below 1e-13).

``expit`` and ``probitc`` import ``scipy.special`` on first use, not at
module level, so a process that fits only the other links never pays its
start-up time.
"""

from __future__ import annotations

import numpy as np

from .errors import EvaluationError, InputError

LINK_KINDS = ("identity", "exp", "expit", "probitc")

# exp(710) overflows float64; fail loudly inside solvers instead of
# propagating inf through the estimating equations.
_EXP_ETA_MAX = 700.0

_INV_SQRT_2PI = 1.0 / np.sqrt(2.0 * np.pi)


def link_mean_deriv(kind: str, eta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Evaluate mean ``h(eta)`` and derivative ``h'(eta)`` for one link kind.

    Parameters
    ----------
    kind : one of ``LINK_KINDS``
    eta : array of linear predictors (any shape)

    Returns
    -------
    (h, dh) : arrays of the same shape as ``eta``; they may be the same
        array (the ``exp`` link, where h' = h), so a caller that writes
        into one must not read the other afterwards

    Raises
    ------
    EvaluationError
        For the ``exp`` link when any ``eta`` exceeds 700 (carries the
        offending value) or is non-finite.
    """
    eta = np.asarray(eta, dtype=float)
    if kind == "identity":
        return eta.copy(), np.ones_like(eta)
    if kind == "exp":
        # two reductions check every eta: a NaN fails the first, -inf the second
        hi = float(eta.max(initial=-np.inf))
        if not (hi <= _EXP_ETA_MAX and np.isfinite(eta.min(initial=0.0))):
            if not np.all(np.isfinite(eta)):
                raise EvaluationError("non-finite linear predictor under exp link",
                                      eta=float(np.max(np.abs(eta))))
            raise EvaluationError(
                f"exp-link overflow: eta={hi:.6g} exceeds {_EXP_ETA_MAX:g}", eta=hi)
        h = np.exp(eta)
        return h, h
    if kind == "expit":
        from scipy.special import expit

        h = expit(eta)
        # 1 - h from eta: 1 - h rounds to 0 for eta >= 37
        return h, h * expit(-eta)
    if kind == "probitc":
        from scipy.special import ndtr

        h = ndtr(-eta)
        dh = -_INV_SQRT_2PI * np.exp(-0.5 * eta * eta)
        return h, dh
    raise InputError(f"unknown link kind {kind!r}; expected one of {LINK_KINDS}")


def link_complement(kind: str, eta: np.ndarray, h: np.ndarray) -> np.ndarray:
    """1 - h for the mean ``h`` = h(``eta``) of one link kind.

    The ``expit`` and ``probitc`` means are distribution functions of eta,
    so their complement is evaluated from eta itself (expit(-eta),
    Phi(eta)); 1 - h would round to 0 once h rounds to 1, which under
    ``probitc`` happens for eta < -8.3.  The other links return 1 - h, so
    a mean outside (0, 1) gives a nonpositive complement.
    """
    if kind == "expit":
        from scipy.special import expit

        return expit(-eta)
    if kind == "probitc":
        from scipy.special import ndtr

        return ndtr(eta)
    return 1.0 - h
