"""Correctness checks that do not trust the program.

Values are recomputed from the assembled matrices (``K``, ``M``,
``M_full``, ``W_full``) with this module's own formulas and its own scipy
factorizations; nothing here calls a ``pdeabcd`` function.  The remaining
checks are properties the method must have: weak duality, the accelerated
value bound, flat iteration counts and second-order convergence of the
optimal value.  Each check returns a list of failure messages, empty when
the answer passes.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

# slack for roundoff in a quantity that is nonnegative in exact arithmetic
ROUNDOFF = 1e-12
# the certification rule: oracle and dual values agree to this, relative
CERT_REL = 1e-7
# slack of the value bound, as in the acceptance gate
BOUND_SLACK = 1e-10
# mesh-independence: every count within this share of the median
SPREAD = 0.2
# a second-order value shrinks its level-to-level differences by about 4
SHRINK_RANGE = (3.0, 5.0)


class Problem:
    """The discrete control problem, rebuilt from an instance's matrices."""

    def __init__(self, inst):
        ops = inst.ops
        self.K = sp.csc_matrix(ops.K)
        self.M = sp.csc_matrix(ops.M)
        self.Mf = sp.csr_matrix(ops.M_full)
        self.Wf = np.asarray(ops.W_full, dtype=float)
        self.interior = np.asarray(ops.interior)
        self.n_full = self.Mf.shape[0]
        self.alpha = float(inst.alpha)
        self.beta = float(inst.beta)
        self.box = (float(inst.box[0]), float(inst.box[1]))
        self.gamma = float(inst.gamma)
        self.y_d = np.asarray(inst.y_d, dtype=float)
        self.y_r = np.asarray(inst.y_r, dtype=float)
        self._K_lu = None
        self._M_lu = None

    def pad(self, v):
        out = np.zeros(self.n_full)
        out[self.interior] = v
        return out

    def K_solve(self, b):
        if self._K_lu is None:
            self._K_lu = spla.splu(self.K, permc_spec="COLAMD")
        return self._K_lu.solve(b)

    def M_solve(self, b):
        if self._M_lu is None:
            self._M_lu = spla.splu(self.M, permc_spec="COLAMD")
        return self._M_lu.solve(b)

    def primal(self, u) -> float:
        """J(u) = 1/2|y - y_d|_M^2 + alpha/2 |u|_M^2 + beta sum|M u|,
        K y = (M_full (u + y_r)) on interior rows."""
        u = np.asarray(u, dtype=float)
        y = self.K_solve((self.Mf @ (u + self.y_r))[self.interior])
        e = y - self.y_d
        return float(0.5 * e @ (self.M @ e)
                     + 0.5 * self.alpha * u @ (self.Mf @ u)
                     + self.beta * np.abs(self.Mf @ u).sum())

    def dual(self, lam, p, mu) -> float:
        """Phi(lam, p, mu) for lam inside [-beta, beta]."""
        lam, p, mu = (np.asarray(v, dtype=float) for v in (lam, p, mu))
        a, b = self.box
        r = self.K @ p - self.M @ self.y_d
        c = lam + mu - self.pad(p)
        s = self.Mf @ mu
        return float(0.5 * r @ self.M_solve(r)
                     + 0.5 / self.alpha * c @ (self.Mf @ c)
                     + (self.Mf @ self.y_r)[self.interior] @ p
                     + b * np.maximum(s, 0.0).sum()
                     + a * np.minimum(s, 0.0).sum()
                     - 0.5 * self.y_d @ (self.M @ self.y_d))

    def control(self, lam, p, mu):
        """Box-feasible control of a dual point: clip((E p - lam - mu)/alpha)."""
        u = (self.pad(p) - np.asarray(lam) - np.asarray(mu)) / self.alpha
        return np.clip(u, *self.box)

    def tau(self, lam0, mu0, lam_s, mu_s) -> float:
        """1/(2 alpha)[d'(M_f E G^-1 E' M_f + W - M_f)d + gamma e' M_f W^-1 M_f e]
        with G = M + alpha K M^-1 K, applied through the block system
        [[M, K], [K, -M/alpha]] [x; alpha M^-1 K x] = [b; 0]."""
        d = np.asarray(lam0, float) - np.asarray(lam_s, float)
        e = np.asarray(mu0, float) - np.asarray(mu_s, float)
        md = self.Mf @ d
        b = md[self.interior]
        n = b.size
        block = sp.bmat([[self.M, self.K], [self.K, -self.M / self.alpha]],
                        format="csc")
        x = spla.splu(block, permc_spec="COLAMD").solve(
            np.concatenate([b, np.zeros(n)]))[:n]
        me = self.Mf @ e
        term = b @ x + d @ (self.Wf * d) - d @ md \
            + self.gamma * (me / self.Wf) @ me
        return float(term / (2.0 * self.alpha))


def check_box(prob: Problem, lam) -> list[str]:
    worst = float(np.abs(lam).max(initial=0.0))
    if worst > prob.beta:
        return [f"lam leaves [-beta, beta]: max |lam| = {worst!r} > "
                f"{prob.beta!r}"]
    return []


def check_gap(prob: Problem, lam, p, mu, tol: float) -> list[str]:
    """Duality gap at the final iterate: nonnegative and at most ``tol``
    relative to the primal value."""
    fails = check_box(prob, lam)
    if fails:
        return fails
    j = prob.primal(prob.control(lam, p, mu))
    gap = prob.dual(lam, p, mu) + j
    scale = 1.0 + abs(j)
    if gap < -ROUNDOFF * scale:
        fails.append(f"negative duality gap {gap!r}: weak duality broken")
    if gap > tol * scale:
        fails.append(f"duality gap {gap!r} exceeds {tol!r} x (1 + |J|)")
    return fails


def check_certificate(prob: Problem, u_star, lam, p, mu) -> list[str]:
    """Oracle control and dual optimum agree to the certification rule."""
    u_star = np.asarray(u_star, dtype=float)
    a, b = prob.box
    fails = check_box(prob, lam)
    if u_star.min() < a or u_star.max() > b:
        fails.append("oracle control leaves the box")
    if fails:
        return fails
    j = prob.primal(u_star)
    phi = prob.dual(lam, p, mu)
    if abs(j + phi) > CERT_REL * (1.0 + abs(j)):
        fails.append(f"oracle value J={j!r} and dual value Phi={phi!r} "
                     f"disagree by {abs(j + phi)!r}")
    return fails


def check_value_bound(ks, phis, tau: float, phi_star: float) -> list[str]:
    """Phi(z_k) - Phi* <= 4 tau / (k+1)^2 at every logged iteration."""
    if not np.isfinite(tau) or tau <= 0.0:
        return [f"distance constant tau={tau!r} is not positive"]
    ks = np.asarray(ks, dtype=float)
    gaps = np.asarray(phis, dtype=float) - phi_star
    bounds = 4.0 * tau / (ks + 1.0) ** 2
    bad = np.flatnonzero(gaps > bounds + BOUND_SLACK * (1.0 + abs(phi_star)))
    if bad.size:
        k = int(ks[bad[0]])
        return [f"value bound broken at {bad.size} logged iterations, first "
                f"k={k}: gap {gaps[bad[0]]!r} > {bounds[bad[0]]!r}"]
    return []


def check_flat_counts(counts) -> list[str]:
    """No level saturates and every count lies within 20% of the median."""
    counts = [int(c) for c in counts]
    if any(c < 0 for c in counts):
        return [f"a level saturated: counts {counts}"]
    median = float(np.median(counts))
    off = [c for c in counts if abs(c - median) > SPREAD * median]
    if off:
        return [f"counts {off} lie outside {SPREAD:.0%} of the median "
                f"{median!r}"]
    return []


def check_h2_shrinkage(levels, optima) -> list[str]:
    """Successive differences of the optima shrink by about 4 per level."""
    order = np.argsort(levels)
    if list(order) != list(range(len(levels))):
        return [f"levels {list(levels)} are not in increasing order"]
    diffs = np.diff(np.asarray(optima, dtype=float))
    if np.any(diffs == 0.0) or np.any(np.sign(diffs) != np.sign(diffs[0])):
        return [f"optima {list(optima)} do not converge monotonically"]
    ratios = diffs[:-1] / diffs[1:]
    lo, hi = SHRINK_RANGE
    if np.any((ratios < lo) | (ratios > hi)):
        return [f"differences {list(diffs)} shrink by {list(ratios)}, "
                f"outside [{lo}, {hi}]"]
    return []
