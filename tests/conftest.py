import csv
import json
import math
import os
import subprocess
import sys
from dataclasses import fields

import numpy as np
import pytest
from scipy.linalg import cho_factor, cho_solve
from scipy.linalg.lapack import dposv
from scipy.optimize import brentq
from scipy.special import log_ndtr, logsumexp

from exactsi.errors import (
    ConvergenceError,
    ExactSIError,
    GeometryInconsistencyError,
    InvalidArgumentError,
    NoRootError,
)
from exactsi.inference import (
    IntervalEstimate,
    PivotParams,
    exact_pivot,
    polyhedral_pivot,
)
from exactsi.selection import (
    _AS_MAX_STEPS,
    Dataset,
    _kkt_residual,
    _unbounded,
    lasso_event_rep,
    sample_randomization,
    solve_randomized_lasso,
)
from exactsi.study import generate_design, generate_response, support_indices

# The one platform on which the frozen outputs, and the tests marked
# ``pinned``, run whatever the outer environment: one BLAS thread,
# OpenBLAS's Haswell kernel and numpy's loops below x86-64-v4, which any
# x86-64-v3 CPU (AVX2 and FMA) runs.
PLATFORM = {"OPENBLAS_NUM_THREADS": "1", "OPENBLAS_CORETYPE": "Haswell",
            "NPY_DISABLE_CPU_FEATURES": "X86_V4 AVX512_ICL AVX512_SPR"}


# nodeid -> PASSED, FAILED or ERROR, and "output": the session's one pytest
# subprocess that runs every selected ``pinned`` test
PINNED = pytest.StashKey[dict]()


def pytest_pyfunc_call(pyfuncitem):
    """Run the tests marked ``pinned`` in one pytest subprocess on
    ``PLATFORM``, unless this process runs there already: the exit each
    asserts turns on how the BLAS kernel rounds a singular or near-singular
    Gram.  The subprocess's output is a failure's message."""
    if pyfuncitem.get_closest_marker("pinned") is None or all(
        os.environ.get(key) == value for key, value in PLATFORM.items()
    ):
        return None
    pinned = pyfuncitem.config.stash.setdefault(PINNED, {})
    if not pinned:
        ids = [item.nodeid for item in pyfuncitem.session.items
               if item.get_closest_marker("pinned")]
        # numpy warns, at import, of a feature that it cannot disable on this CPU
        done = subprocess.run(
            [sys.executable, "-W", "ignore::ImportWarning", "-m", "pytest", "-q", "-rA",
             "-p", "no:cacheprovider", *ids],
            cwd=pyfuncitem.config.rootpath, env={**os.environ, **PLATFORM},
            capture_output=True, text=True,
        )
        pinned["output"] = done.stdout + done.stderr
        for line in done.stdout.splitlines():
            outcome, _, rest = line.partition(" ")
            if outcome in ("PASSED", "FAILED", "ERROR"):
                pinned[rest.split(" - ")[0]] = outcome
    assert pinned.get(pyfuncitem.nodeid) == "PASSED", pinned["output"]
    return True


# Stopping rule of the reference lasso solver ``_cd_lasso``.
_CD_MAX_SWEEPS = 50_000
_CD_TOL = 1e-10
_KKT_TOL = 1e-9


def toy_dataset():
    """The two-row single-feature instance: X = [[1], [0]], y = (2, 0)."""
    return Dataset(y=np.array([2.0, 0.0]), X=np.array([[1.0], [0.0]]))


def toy_fit():
    """The toy dataset's fit, with hand-checkable arithmetic."""
    data = toy_dataset()
    out = solve_randomized_lasso(data, lam=1.0, epsilon=0.0, w=np.array([0.5]))
    rep = lasso_event_rep(data, out, lam=1.0, epsilon=0.0)
    return data, out, rep, 1.0  # the randomization variance tau2


def random_dataset(rng, n=40, p=8, sigma=1.0):
    X = rng.standard_normal((n, p))
    beta = np.zeros(p)
    beta[: p // 3] = rng.uniform(1, 3, size=p // 3) * rng.choice([-1, 1], size=p // 3)
    y = X @ beta + sigma * rng.standard_normal(n)
    return Dataset(y=y, X=X)


def carving_fit(rng, n=40, p=8, tau2=0.7, lam=None, min_selected=1):
    """A random carving-randomized lasso fit with a nonempty selection."""
    for _ in range(50):
        X = rng.standard_normal((n, p))
        beta = np.zeros(p)
        k = max(1, p // 4)
        beta[rng.choice(p, size=k, replace=False)] = rng.uniform(1, 3, size=k)
        y = X @ beta + rng.standard_normal(n)
        data = Dataset(y=y, X=X)
        w = sample_randomization(data, tau2, seed=int(rng.integers(1 << 30)))
        lam_use = lam if lam is not None else 1.2 * math.sqrt(2 * math.log(p) * n) / 2
        out = solve_randomized_lasso(data, lam=lam_use, epsilon=0.0, w=w)
        if out.selected.size >= min_selected:
            rep = lasso_event_rep(data, out, lam=lam_use, epsilon=0.0)
            return data, out, rep, lam_use, tau2
    raise AssertionError("could not generate a nonempty selection")


def _soft(z: float, lam: float) -> float:
    if z > lam:
        return z - lam
    if z < -lam:
        return z + lam
    return 0.0


def _cd_lasso(gram: np.ndarray, c: np.ndarray, lam: float, epsilon: float) -> np.ndarray:
    """Cyclic coordinate descent with exact soft-threshold updates.

    Full sweeps alternate with sweeps restricted to the current support until
    the maximum coordinate change drops below ``_CD_TOL`` and the KKT residual
    is below ``_KKT_TOL``, or raises ``ConvergenceError`` after
    ``_CD_MAX_SWEEPS`` sweeps.
    """
    p = c.size
    diag = np.diag(gram).copy()
    b = np.zeros(p)
    s = np.zeros(p)  # s = gram @ b, maintained incrementally

    def sweep(indices) -> float:
        nonlocal s
        change = 0.0
        for j in indices:
            old = b[j]
            denom = diag[j] + epsilon
            if denom <= 0:
                continue
            new = _soft(c[j] - s[j] + diag[j] * old, lam) / denom
            if new != old:
                s = s + gram[:, j] * (new - old)
                b[j] = new
                change = max(change, abs(new - old))
        return change

    sweeps = 0
    converged = False
    all_idx = range(p)
    while sweeps < _CD_MAX_SWEEPS:
        change = sweep(all_idx)
        sweeps += 1
        s = gram @ b  # reset incremental drift at each full pass
        if change <= _CD_TOL and _kkt_residual(s, c, b, lam, epsilon) <= _KKT_TOL:
            converged = True
            break
        active = np.flatnonzero(b)
        while sweeps < _CD_MAX_SWEEPS and active.size:
            if sweep(active) <= _CD_TOL:
                break
            sweeps += 1
    if not converged:
        s = gram @ b
        resid = _kkt_residual(s, c, b, lam, epsilon)
        if resid > _KKT_TOL:
            raise ConvergenceError(
                f"coordinate descent did not converge in {_CD_MAX_SWEEPS} sweeps",
                residual=resid,
            )
    return b


def reference_kkt_residual(
    s: np.ndarray, c: np.ndarray, b: np.ndarray, lam: float, epsilon: float
) -> float:
    """``selection._kkt_residual`` as written on boolean masks, before it
    took index arrays: the oracle of its value."""
    active = b != 0
    resid = 0.0
    if active.any():
        stat = s[active] - c[active] + epsilon * b[active] + lam * np.sign(b[active])
        resid = float(np.max(np.abs(stat)))
    if (~active).any():
        slack = np.abs(c[~active] - s[~active]) - lam
        resid = max(resid, float(max(np.max(slack), 0.0)))
    return resid


def reference_active_set_lasso(
    gram: np.ndarray, c: np.ndarray, lam: float, epsilon: float
) -> tuple[np.ndarray, np.ndarray]:
    """The feature-sign search as it was written on Python lists, with the
    active block of ``gram`` gathered again at every restricted solve: the
    oracle of ``selection._active_set_lasso``, whose answer, errors and
    restricted solves must match it bit for bit.  The body is a verbatim
    copy but for its KKT residual (``reference_kkt_residual``).  ``dposv``
    and ``_unbounded`` are this module's names, so a test counts this
    copy's restricted solves apart from the search's."""
    tol = 1e-11 * max(float(np.max(np.abs(c))), lam)
    seen = set()  # the (A, theta) pairs solved so far

    def uncertified(why: str) -> ExactSIError:
        if epsilon == 0 and _unbounded(gram, c, lam):
            return InvalidArgumentError("lasso objective is unbounded below")
        resid = reference_kkt_residual(gram @ b, c, b, lam, epsilon)
        return ConvergenceError(
            f"active-set lasso: {why} (KKT residual {resid:.3e}, tolerance {tol:.3e})",
            residual=resid,
        )

    b = np.zeros(c.size)
    # the active coordinates and their signs, as lists that grow by append,
    # and as the index arrays of the current restricted solve
    active: list[int] = []
    signs: list[float] = []
    A, theta = np.zeros(0, dtype=int), np.zeros(0)
    g = c.copy()  # c - X'X b, which is c - H b off the support
    steps = 0
    while True:
        slack = np.abs(g)
        slack[A] = 0.0
        j = int(np.argmax(slack))
        if not slack[j] > lam + tol:
            break
        active.append(j)
        signs.append(float(np.sign(g[j])))
        A, theta = np.array(active), np.array(signs)
        while active:
            steps += 1
            if steps > _AS_MAX_STEPS:
                raise uncertified(f"more than {_AS_MAX_STEPS} restricted solves")
            pair = frozenset(zip(active, signs))
            if pair in seen:
                raise uncertified("repeated active set and signs")
            seen.add(pair)
            H_AA = gram[A[:, None], A]
            if epsilon:
                H_AA = H_AA + epsilon * np.eye(A.size)
            _, new, info = dposv(H_AA, c[A] - lam * theta)  # Cholesky solve
            if info:
                # H_AA is singular (more active columns than the rank, as
                # with p > n and epsilon = 0).  As in LARS, step along the
                # part of the restricted residual in its null space: there
                # the restricted objective falls linearly, so go until the
                # first coordinate reaches zero, then drop that coordinate.
                old = b[A]
                evals, evecs = np.linalg.eigh(H_AA)
                null = evecs[:, evals <= A.size * np.finfo(float).eps * evals[-1]]
                z = null @ (null.T @ (c[A] - lam * theta - H_AA @ old))
                if not z.any():
                    raise uncertified("singular restricted Gram with no null-space step")
                shrinking = theta * z < 0
                if not shrinking.any():
                    # H_AA z = 0 and theta'z = ||z||_1, so the objective falls
                    # at rate z'(c_A - lam theta - H_AA old) = ||z||^2 along z.
                    raise InvalidArgumentError("lasso objective is unbounded below")
                t = -old[shrinking] / z[shrinking]
                k = int(np.argmin(t))
                best = old + t[k] * z
                best[np.flatnonzero(shrinking)[k]] = 0.0
                b[A] = best
                keep = best != 0
                A, theta = A[keep], theta[keep]
                active, signs = A.tolist(), theta.tolist()
                continue
            if (np.sign(new) == theta).all():
                b[A] = new
                break
            # Discrete line search over the zero crossings of old -> new.  Up to
            # the first crossing the signs agree with theta, where the objective
            # is the restricted quadratic that decreases towards new, so the
            # best candidate lowers the objective.
            old = b[A]
            cross = np.flatnonzero((np.sign(new) != theta) & (old != 0))
            t = np.minimum(old[cross] / (old[cross] - new[cross]), 1.0)
            points = old + t[:, None] * (new - old)
            points[np.arange(cross.size), cross] = 0.0
            points = np.vstack([points, new])
            objective = (
                0.5 * np.einsum("ki,ij,kj->k", points, H_AA, points)
                - points @ c[A]
                + lam * np.abs(points).sum(axis=1)
            )
            best = points[int(np.argmin(objective))]
            b[A] = best
            keep = best != 0
            A, theta = A[keep], np.sign(best[keep])
            active, signs = A.tolist(), theta.tolist()
        g = c - gram[:, A] @ b[A]
    if reference_kkt_residual(gram @ b, c, b, lam, epsilon) > tol:
        raise uncertified("KKT certificate failed")
    return b, g


def take(record, index):
    """The entries ``index`` of a constants record whose fields are arrays:
    one target's floats for an int, a smaller record for a list of ints."""
    return type(record)(*(np.asarray(getattr(record, f.name))[index] for f in fields(record)))


def stack(records):
    """One constants record whose fields are arrays of the ``records``' fields."""
    return type(records[0])(
        *np.array([[getattr(r, f.name) for f in fields(r)] for r in records], dtype=float).T
    )


def oracle_pivot(params, beta0, nodes=4001, drop=60.0):
    """The exact pivot by a log-space Simpson rule over the weight variable.

    An independent check of ``exact_pivot``: the estimate X ~ N(m, s^2) with
    m = lambda_j beta0 + zeta_j, and the combination Y = theta(X) + vartheta e
    conditioned to the truncation interval, are standardized to U and V.  The
    pivot is int phi(v) P(U <= u | V = v) dv over the truncation interval,
    normalized by its complement's integral plus its own.  Simpson panels
    cover the part of the interval within ``drop`` log-units of V's largest
    density there, split around the steep part of P(U <= u | V = v).
    """
    s = math.sqrt(params.sigma_j2)
    vt2 = params.vartheta2
    m = params.lambda_j * beta0 + params.zeta_j
    sd_y = math.sqrt(vt2 * vt2 * params.sigma_j2 + vt2)
    rho = -vt2 * params.sigma_j2 / (s * sd_y)  # cov(X, Y) / (sd_x sd_y)
    cond_sd = math.sqrt(1.0 - rho * rho)
    u = (params.beta_hat_j - m) / s
    mu_y = params.theta_intercept - vt2 * m
    a = (params.lower - mu_y) / sd_y
    b = (params.upper - mu_y) / sd_y
    nearest = min(max(0.0, a), b)
    reach = math.sqrt(nearest * nearest + 2.0 * drop)
    lo, hi = max(a, -reach), min(b, reach)
    # P(U <= u | V = v) = Phi((u - rho v) / cond_sd) turns over near v = u / rho
    turn, width = u / rho, 12.0 * cond_sd / abs(rho)
    cuts = sorted({lo, hi, *(min(max(c, lo), hi) for c in (turn - width, turn + width))})
    log_below, log_above = [], []
    for left, right in zip(cuts[:-1], cuts[1:]):
        if right <= left:
            continue
        v = np.linspace(left, right, nodes)
        w = np.full(nodes, 2.0)
        w[1::2] = 4.0
        w[0] = w[-1] = 1.0
        logw = np.log(w * (right - left) / (3.0 * (nodes - 1))) - 0.5 * v * v
        z = (u - rho * v) / cond_sd
        log_below.append(logw + log_ndtr(z))
        log_above.append(logw + log_ndtr(-z))
    lb = logsumexp(np.concatenate(log_below))
    la = logsumexp(np.concatenate(log_above))
    if lb <= la:
        return float(1.0 / (1.0 + np.exp(min(la - lb, 700.0))))
    return float(1.0 - 1.0 / (1.0 + np.exp(min(lb - la, 700.0))))


def explicit_contrasts(data, E, model):
    """The n x |E| contrasts of the selected coordinates ``E``, built from X by
    ``np.linalg.solve``: column j is ``design G^{-1} e_j``, G the Gram of
    ``X_E`` (``selected``) or of X (``full``), ``e_j`` the unit vector of j
    among the selected columns or of ``E[j]`` among all.  Independent of
    ``build_target``."""
    E = np.asarray(E, dtype=int)
    design, columns = (data.X[:, E], np.arange(E.size)) if model == "selected" else (data.X, E)
    return design @ np.linalg.solve(design.T @ design, np.eye(design.shape[1])[:, columns])


def carving_line(data, outcome, j, tau2):
    """The line ``A + qj t`` along which the closed form slices selected
    coordinate j's sign constraints for the carving covariance with no
    ridge, and ``r_obs``, the t at which it meets the observed solution O.
    With ``rj = -e_j / (tau2 ||c||^2)`` and ``Theta = tau2 G_EE^{-1}``, ``qj =
    Theta rj / (rj' Theta rj)`` is ``-tau2 G_EE^{-1} e_j``, ``r_obs = rj'O``
    and ``A = O - qj r_obs``.  Returns ``qj``, ``r_obs`` and ``A``."""
    XE = data.X[:, outcome.selected]
    gram_inv = cho_solve(cho_factor(XE.T @ XE), np.eye(outcome.selected.size))
    contrast = XE @ gram_inv[:, j]
    O = outcome.active_solution
    qj = -tau2 * gram_inv[:, j]
    r_obs = -O[j] / (tau2 * float(contrast @ contrast))
    return qj, r_obs, O - qj * r_obs


def carving_pivot_params(data, outcome, j, sigma, tau2, lam):
    """Closed-form pivot constants of selected coordinate j for the carving
    covariance with no ridge.

    Independent of the generic route: no randomization-covariance solves, only
    the selected-design Gram, and its own contrast.  The oracle for the
    generic constants.
    """
    E = outcome.selected
    XE = data.X[:, E]
    q = E.size
    gram = XE.T @ XE
    factor = cho_factor(gram)
    gram_inv = cho_solve(factor, np.eye(q))
    contrast = XE @ gram_inv[:, j]
    norm2 = float(contrast @ contrast)
    vartheta2 = 1.0 / (tau2 * norm2)
    sigma_j2 = sigma**2 * norm2
    theta_intercept = float(lam * (gram_inv @ outcome.signs)[j] / (tau2 * norm2))

    # interval on rj'O along the line A + qj t
    qj, r_obs, A = carving_line(data, outcome, j, tau2)
    lower, upper = -math.inf, math.inf
    for k in range(q):
        coef = -outcome.signs[k] * qj[k]
        bound = outcome.signs[k] * A[k] / coef if coef != 0 else math.nan
        if coef > 0:
            upper = min(upper, bound)
        elif coef < 0:
            lower = max(lower, bound)
        elif -outcome.signs[k] * A[k] >= 0:
            raise GeometryInconsistencyError("sign constraint violated off-direction")
    if not lower < r_obs < upper:
        raise GeometryInconsistencyError("observed combination outside closed-form interval")
    return PivotParams(
        vartheta2=vartheta2,
        sigma_j2=sigma_j2,
        lambda_j=1.0,
        zeta_j=0.0,
        theta_intercept=theta_intercept,
        lower=lower,
        upper=upper,
        beta_hat_j=float(contrast @ data.y),
    )


def explicit_polyhedral_bounds(data, outcome, lam, model):
    """Oracle for ``polyhedral_bounds``: the plain lasso's event {selected
    set E, signs S} as the explicit n-column constraint matrix ``G y < h`` of
    Lee, Sun, Sun & Taylor (2016), built from X by ``np.linalg.solve``, and
    sliced row by row along the contrast c of each target of ``model``
    (``explicit_contrasts``) at fixed residual ``y - c c'y / ||c||^2``.  A
    row whose coefficient is at most ``1e-12 ||row|| ||c / ||c||^2||`` in
    size is orthogonal to the line.  Returns the lower and upper bounds of
    every target's estimate."""
    X, E, S = data.X, outcome.selected, outcome.signs
    XE, XI = X[:, E], X[:, np.setdiff1d(np.arange(data.p), E)]
    gram = XE.T @ XE
    pinv, ginv_s = np.linalg.solve(gram, XE.T), np.linalg.solve(gram, S)
    across = (XI.T - XI.T @ XE @ pinv) / lam
    base = XI.T @ XE @ ginv_s
    G = np.vstack([-S[:, None] * pinv, across, -across])
    h = np.concatenate([-lam * S * ginv_s, 1.0 - base, 1.0 + base])
    lowers, uppers = [], []
    for c in explicit_contrasts(data, E, model).T:
        norm2 = c @ c
        gamma = data.y - c * (c @ data.y) / norm2
        coefs, slack = G @ (c / norm2), h - G @ gamma
        live = np.abs(coefs) > 1e-12 * np.linalg.norm(G, axis=1) * math.sqrt(1.0 / norm2)
        ends = slack[live] / coefs[live]
        lowers.append(np.max(ends[coefs[live] < 0], initial=-math.inf))
        uppers.append(np.min(ends[coefs[live] > 0], initial=math.inf))
    return np.array(lowers), np.array(uppers)


def reference_invert_monotone(g, target, seed_bracket):
    """Scalar reference for ``invert_monotone``: solve ``g(x) = target`` for
    one continuous monotone scalar ``g``.

    The seed bracket is expanded geometrically (factor 2 per step, at most 60
    steps) toward the side that has not yet straddled the target, or toward
    both sides while g ties on the two ends of the bracket, then the
    root is isolated by Brent's method to a bracket width of 1e-10.
    """
    a, b = map(float, seed_bracket)
    if not (math.isfinite(a) and math.isfinite(b)):
        raise InvalidArgumentError("seed bracket must be finite")
    ga, gb = g(a), g(b)
    for _ in range(60):
        if min(ga, gb) <= target <= max(ga, gb):
            break
        width = b - a
        increasing = gb >= ga
        target_above = target > max(ga, gb)
        tie = ga == gb
        # For increasing g, values grow to the right; move the deficient side,
        # and on a tie both sides.
        if tie or target_above == increasing:
            b += width
            gb = g(b)
        if tie or target_above != increasing:
            a -= width
            ga = g(a)
    else:
        raise NoRootError(
            f"target {target!r} not straddled after 60 bracket expansions"
        )
    if ga == target:
        return a
    if gb == target:
        return b
    sign = 1.0 if gb >= ga else -1.0
    return float(brentq(lambda x: sign * (g(x) - target), a, b, xtol=1e-10))


def reference_invert_pivot(params, alpha):
    """Scalar reference for one target of ``invert_pivot``."""
    half = 5.0 * math.sqrt(params.sigma_j2) / params.lambda_j
    bracket = (params.beta_hat_j - half, params.beta_hat_j + half)

    def pivot_at(b):
        return exact_pivot(params, b)

    lower = reference_invert_monotone(pivot_at, 1.0 - alpha / 2.0, bracket)
    upper = reference_invert_monotone(pivot_at, alpha / 2.0, bracket)
    return IntervalEstimate(lower=lower, upper=upper)


def reference_polyhedral_interval(bounds, alpha):
    """Scalar reference for one target of ``polyhedral_interval``: each
    endpoint solved from a bracket of 5 sd on its side of the estimate."""
    beta_hat, half = bounds.beta_hat, 5.0 * bounds.sd

    def pivot_at(b):
        return polyhedral_pivot(bounds, b)

    lower = reference_invert_monotone(pivot_at, 1.0 - alpha / 2.0, (beta_hat - half, beta_hat))
    upper = reference_invert_monotone(pivot_at, alpha / 2.0, (beta_hat, beta_hat + half))
    return IntervalEstimate(lower=lower, upper=upper)


def reference_read_csv(
    path: str, response: str = "y", standardize: bool = False
) -> tuple[Dataset, list[str]]:
    """Reference for ``cli.read_csv_dataset``: ``float()`` on every cell.

    The reader as it was before the C-parser fast path, kept verbatim, so a
    header-only file still fails in ``Dataset`` rather than with "no data rows".
    """
    # utf-8-sig drops the byte-order mark that some spreadsheet exports write
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise InvalidArgumentError(f"{path}: empty file") from None
        if response not in header:
            raise InvalidArgumentError(
                f"{path}: response column {response!r} not in header {header}"
            )
        ridx = header.index(response)
        names = [h for i, h in enumerate(header) if i != ridx]
        ys, rows = [], []
        for line_no, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(header):
                raise InvalidArgumentError(
                    f"{path}: row {line_no} has {len(row)} fields, expected {len(header)}"
                )
            vals = []
            for col, cell in zip(header, row):
                try:
                    vals.append(float(cell))
                except ValueError:
                    raise InvalidArgumentError(
                        f"{path}: row {line_no}, column {col!r}: "
                        f"not numeric: {cell!r}"
                    ) from None
            ys.append(vals[ridx])
            rows.append([v for i, v in enumerate(vals) if i != ridx])
    X = np.asarray(rows, dtype=float)
    y = np.asarray(ys, dtype=float)
    if standardize:
        X = X - X.mean(axis=0)
        scale = X.std(axis=0)
        scale[scale == 0] = 1.0
        X = X / scale
    return Dataset(y=y, X=X), names


def read_frozen(path, text):
    """The JSON frozen in ``path``.  Where the file is missing, write ``text``
    there and fail, so that deleting a frozen file and running its test once
    re-freezes it, and the diff shows what moved."""
    if not path.exists():
        path.write_text(text, encoding="utf-8")
        pytest.fail(f"wrote {path.name}: check its diff, then run again")
    return json.loads(path.read_text(encoding="utf-8"))


def write_frame(path, y, X):
    """Write ``y`` and ``X`` as a ``%.17g`` CSV headed y, x0, x1, ..."""
    header = ",".join(["y"] + [f"x{j}" for j in range(X.shape[1])])
    np.savetxt(path, np.column_stack([y, X]), fmt="%.17g", delimiter=",",
               header=header, comments="")


def ar_frame(n, p):
    """An AR(0.5) design (seed 3) with five signals (response seed 4)."""
    X = generate_design(n, p, 0.5, 3)
    return generate_response(X, support_indices(p, 5), 0.75, 3.0, 4)[0], X


def duplicated_column_frame():
    """``ar_frame(200, 30)`` with its last column a copy of its first:
    X'X is singular, so it fails its check."""
    y, X = ar_frame(200, 30)
    X[:, 29] = X[:, 0]
    return y, X


def near_copy_frame():
    """40 x 3, x2 = x0 + 3.9e-9 N(0, 1) and y = 2 x1 + N(0, 1): the rank
    test keeps every column, yet X'X has no Cholesky factor."""
    rng = np.random.default_rng(65)
    X = rng.standard_normal((40, 3))
    X[:, 2] = X[:, 0] + 3.9e-9 * rng.standard_normal(40)
    return 2.0 * X[:, 1] + rng.standard_normal(40), X


def ill_conditioned_frame():
    """150 x 20, x3 = x1 + 1e-7 N(0, 1): the rank test keeps every column,
    but X'X fails its scaled-condition check."""
    rng = np.random.default_rng(0)
    X = rng.standard_normal((150, 20))
    X[:, 3] = X[:, 1] + 1e-7 * rng.standard_normal(150)
    return X[:, :5].sum(axis=1) + rng.standard_normal(150), X


def zero_frame():
    """An all-zero 40 x 3 frame: the randomization base has no Cholesky factor."""
    return np.zeros(40), np.zeros((40, 3))


def six_rows():
    """6 x 2: ``round(0.8 * 6) = 5`` leaves split one held-out row."""
    rng = np.random.default_rng(0)
    X = rng.standard_normal((6, 2))
    return 3.0 * X[:, 0] + rng.standard_normal(6), X
