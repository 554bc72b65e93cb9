"""Independent brute-force reference implementations used by the tests.

Everything here is written as plain loops over the definitions, on purpose:
these functions must stay independent of the library code paths they check.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.optimize import minimize_scalar
from scipy.special import gammaln


def brute_pairs(n):
    out = []
    for a in range(n):
        for b in range(a + 1, n):
            out.append((a, b))
    return out


def brute_ustat_mean(func, Y):
    """Plain double loop: average func(Y[a], Y[b]) over all pairs a < b."""
    n = len(Y)
    total = None
    count = 0
    for a in range(n):
        for b in range(a + 1, n):
            val = np.atleast_1d(np.asarray(func(Y[a], Y[b]), dtype=float))
            total = val if total is None else total + val
            count += 1
    return total / count


def brute_hajek(n, scores):
    """Per-subject projected scores by looping pairs in lexicographic order.

    Matches the definition: each pair's score is added to the accumulators
    of both members, then scaled by 2/(n-1).
    """
    scores = np.asarray(scores, dtype=float)
    if scores.ndim == 1:
        scores = scores[:, None]
    acc = np.zeros((n, scores.shape[1]))
    k = 0
    for a in range(n):
        for b in range(a + 1, n):
            acc[a] = acc[a] + scores[k]
            acc[b] = acc[b] + scores[k]
            k += 1
    return acc * (2.0 / (n - 1))


def brute_projection_variance(vtil):
    """Sum of outer products of centered projected scores, divided by n."""
    vtil = np.atleast_2d(np.asarray(vtil, dtype=float))
    n, q = vtil.shape
    vbar = np.zeros(q)
    for j in range(n):
        vbar = vbar + vtil[j]
    vbar = vbar / n
    out = np.zeros((q, q))
    for j in range(n):
        d = vtil[j] - vbar
        out = out + np.outer(d, d)
    return out / n


def _brute_scalar_pair(link, wv_kind, wv_value, eta, f):
    """Mean derivative g, residual r, working variance V and
    quasi-likelihood term of one pair of the scalar model."""
    if link == "identity":
        h, g, comp = eta, 1.0, 1.0 - eta
    elif link == "exp":
        h = math.exp(eta)
        g, comp = h, 1.0 - h
    else:  # probitc: h = Phi(-eta)
        h = 0.5 * math.erfc(eta / math.sqrt(2.0))
        g = -math.exp(-0.5 * eta * eta) / math.sqrt(2.0 * math.pi)
        comp = 0.5 * math.erfc(-eta / math.sqrt(2.0))
    r = f - h
    if wv_kind == "constant":
        V = 1.0 if wv_value is None else wv_value
        q = -0.5 * r * r / V
    elif wv_kind == "nb":
        tau = wv_value
        V = h * (1.0 + h / tau)
        q = f * math.log(h / (tau + h)) - tau * math.log(tau + h)
    else:  # bernoulli
        V = h * comp
        q = f * math.log(h) + (1.0 - f) * math.log(comp)
    return g, r, V, q


def brute_pair_pass(model, data, beta):
    """One pair at a time: the quasi-objective, U, J, the (n, q) per-subject
    sums of the pair scores and Z2 = sum of their outer products.

    ``model`` is a scalar model (``link``, ``working_variance`` of kind
    constant, nb or bernoulli, ``intercept``) or a rater-agreement model
    (``raters``), read as plain data.
    """
    beta = [float(b) for b in beta]
    q = len(beta)
    N = len(data.i1)
    if hasattr(model, "raters"):
        K = model.raters
        tau2, rho = beta
        c = (1.0 + (K - 1) * rho) / K
        h = [c * tau2, tau2]
        D = [[c, (K - 1) * tau2 / K], [1.0, 0.0]]
        R = [[float(v) for v in row] for row in data.f]
        V = []
        for a in range(2):
            mean = sum(row[a] for row in R) / N
            V.append(sum((row[a] - mean) ** 2 for row in R) / (N - 1))
    merit = 0.0
    U = np.zeros(q)
    J = np.zeros((q, q))
    acc = np.zeros((data.n, q))
    Z2 = np.zeros((q, q))
    for k in range(N):
        if hasattr(model, "raters"):
            r = [R[k][a] - h[a] for a in range(2)]
            merit += sum(-0.5 * r[a] * r[a] / V[a] for a in range(2))
            s = np.array([sum(D[a][b] * r[a] / V[a] for a in range(2))
                          for b in range(q)])
            Jk = np.array([[sum(D[a][b] * D[a][c] / V[a] for a in range(2))
                            for c in range(q)] for b in range(q)])
        else:
            x = ([1.0] if model.intercept else []) + [float(v) for v in data.x[k]]
            eta = sum(b * v for b, v in zip(beta, x))
            wv = model.working_variance
            g, r, V, term = _brute_scalar_pair(model.link, wv.kind, wv.value,
                                                  eta, float(data.f[k]))
            merit += term
            s = np.array([v * g * r / V for v in x])
            Jk = np.array([[u * v * g * g / V for v in x] for u in x])
        U += s
        J += Jk
        acc[data.i1[k]] += s
        acc[data.i2[k]] += s
        Z2 += np.outer(s, s)
    return merit, U, J, acc, Z2


def pairwise_least_squares(x, f, intercept):
    """Closed-form weighted-by-constant solution of the identity-link equations."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    if intercept:
        x = np.hstack([np.ones((x.shape[0], 1)), x])
    gram = x.T @ x
    return np.linalg.solve(gram, x.T @ np.asarray(f, dtype=float))


def central_diff(func, x, step=1e-5):
    return (func(x + step) - func(x - step)) / (2.0 * step)


def nb_tau_quadratic(r2, h):
    """Closed-form minimiser of sum((r2 - h - h^2/tau)^2) over 1/tau >= 0.

    The objective is quadratic in phi = 1/tau; the unconstrained minimiser
    is phi = sum((r2 - h) h^2) / sum(h^4), floored at zero (tau = inf).
    """
    phi = float(np.sum((r2 - h) * h * h) / np.sum(h ** 4))
    if phi <= 0:
        return math.inf
    return 1.0 / phi


def nb_loglik(f, mu, tau):
    """Negative-binomial log-likelihood of independent counts (inf: Poisson)."""
    if np.isinf(tau):
        return float(np.sum(f * np.log(mu) - mu - gammaln(f + 1.0)))
    p = 1.0 / (1.0 + mu / tau)
    return float(np.sum(gammaln(f + tau) - gammaln(tau) - gammaln(f + 1.0)
                        + tau * np.log(p) + f * np.log1p(-p)))


def nb_working_mle_bounded(f, x, tau_max=1e8, max_iter=200, tol=1e-10):
    """Reference working MLE: a bounded search over log tau from scratch.

    Alternates scoring steps for the log-linear coefficients (intercept
    first) with a bounded Brent search of the profile log-likelihood over
    log tau in [log 1e-3, log tau_max].  tau is inf when the Poisson limit
    is within 1e-3 of the searched maximum.  Returns (beta, tau, loglik,
    iterations, converged).
    """
    f = np.asarray(f, dtype=float)
    X = np.column_stack([np.ones(len(f)), np.asarray(x, dtype=float)])
    beta = np.zeros(X.shape[1])
    fbar = float(f.mean())
    beta[0] = np.log(fbar) if fbar > 0 else 0.0
    mu = np.exp(X @ beta)
    excess = float(np.sum((f - mu) ** 2 - mu))
    tau = float(np.clip(np.sum(mu * mu) / excess, 1e-2, tau_max)) \
        if excess > 0 else math.inf

    def profile_tau(mu):
        limit = nb_loglik(f, mu, math.inf)
        res = minimize_scalar(
            lambda log_tau: -nb_loglik(f, mu, float(np.exp(log_tau))),
            bounds=(np.log(1e-3), np.log(tau_max)),
            method="bounded", options={"xatol": 1e-12})
        if limit >= -res.fun - 1e-3:
            return math.inf
        return float(np.exp(res.x))

    converged = False
    it = 0
    for it in range(1, max_iter + 1):
        beta_old, tau_old = beta.copy(), tau
        for _ in range(50):
            mu = np.exp(np.clip(X @ beta, -700, 700))
            p = 1.0 / (1.0 + mu / tau)
            score = X.T @ ((f - mu) * p)
            info = (X * (mu * p)[:, None]).T @ X
            step = np.linalg.solve(info, score)
            beta = beta + step
            if np.max(np.abs(step)) < tol:
                break
        mu = np.exp(X @ beta)
        tau = profile_tau(mu)
        tau_moved = (abs(np.log(tau) - np.log(tau_old)) > 1e-6
                     if np.isfinite(tau) and np.isfinite(tau_old)
                     else np.isfinite(tau) != np.isfinite(tau_old))
        if np.max(np.abs(beta - beta_old)) < 1e-9 and not tau_moved:
            converged = True
            break
    mu = np.exp(X @ beta)
    return beta, tau, nb_loglik(f, mu, tau), it, converged


def clr_by_hand(v):
    logs = [math.log(val) for val in v]
    mean = sum(logs) / len(logs)
    return [lv - mean for lv in logs]


def aitchison_by_hand(y1, y2):
    c1 = clr_by_hand(y1)
    c2 = clr_by_hand(y2)
    return math.sqrt(sum((a - b) ** 2 for a, b in zip(c1, c2)))


# --------------------------------------------------------------------------- #
# Pair data over all pairs at once
# --------------------------------------------------------------------------- #
# The builders evaluate one chunk of pairs at a time and store no index
# arrays.  These rebuild the same datasets the way the library first did:
# every array over all n(n-1)/2 pairs at once, from the full index arrays
# of ``np.triu_indices``.  The chunked builders must match them byte for
# byte.

def full_array_subject_pairs(kernel, Y, X=None, pair_covariate=None):
    """(x, f) of the complete dataset of the subjects in the rows of Y."""
    from pairgee.kernels import pairwise_responses
    from pairgee.model import pair_covariate_matrix

    i1, i2 = np.triu_indices(len(Y), k=1)
    f = pairwise_responses(kernel, Y, i1, i2)
    x = (np.empty((len(i1), 0)) if pair_covariate is None
         else pair_covariate_matrix(pair_covariate, X, i1, i2))
    return x, f


def full_array_nb_scenario(n, seed, tau=10.0, beta0=3.0, beta1=3.0, a=0.0, b=1.0):
    """(x, f) of ``gen_nb_scenario``: n uniforms, then N gamma rates and N
    Poisson counts, each drawn over all N pairs in one call."""
    from pairgee import make_rng

    rng = make_rng(seed)
    xs = rng.uniform(a, b, size=n)
    i1, i2 = np.triu_indices(n, k=1)
    xp = xs[i1] + xs[i2]
    mu = np.exp(beta0 + beta1 * xp)
    f = rng.poisson(rng.gamma(shape=tau, scale=mu / tau)).astype(float)
    return xp[:, None], f


def full_array_linear_pair_data(d):
    """(x, f) of ``linear_pair_data``: the pairwise differences of x and y."""
    i1, i2 = np.triu_indices(len(d.x), k=1)
    return (d.x[i1] - d.x[i2])[:, None], d.y[i1] - d.y[i2]
