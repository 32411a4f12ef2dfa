"""Linear(ized) measurement models, projections, neighbors, and attacks.

The model is z = H x + a + eta with eta ~ N(0, sigma^2 I): a system matrix
(or Jacobian at the operating point) H, homoscedastic noise scale sigma,
and an optional ridge weight lambda for the underdetermined case. Callers
with correlated noise pre-whiten first; callers with a nonlinear forward
model supply the Jacobian at the operating point.

Alongside construction and simulation, this module carries the residual
projector P (and its ridge variant), distance-one row perturbations with
one rank-two Woodbury update of the factor behind both the neighbour's
projector and its noncentrality root, the low-pass state-subspace
reduction, and unobservable (stealth) attack construction for test
fixtures.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .csvio import split_header
from .exceptions import NumericError, RankDeficiencyError, SingularUpdateError
from .streams import as_generator

# A neighbour whose capacitance has det K = det G' / det G at or below this
# is numerically singular (see _NeighborGram).
_PIVOT_TOL = 1e-10


def _readonly(a: np.ndarray) -> np.ndarray:
    out = np.array(a, dtype=float)
    out.flags.writeable = False
    return out


# ---------------------------------------------------------------------------
# Domain types
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class Factor:
    """Thin SVD H = U diag(s) V^T with the ridge shrink weights.

    ``w = s^2 / (s^2 + lam sigma^2)``, all ones when lam = 0, are the
    eigenvalues of the hat matrix H (H^T H + lam sigma^2 I)^{-1} H^T on
    col(U), so the residual projector is P = I - U diag(w) U^T: it
    scales U^T z by 1 - w and keeps the part of z off col(U).
    """

    u: np.ndarray
    s: np.ndarray
    vt: np.ndarray
    w: np.ndarray

    @property
    def rank(self) -> int:
        """Numerical rank of H: singular values above max(m, n) eps s_max."""
        cutoff = max(self.u.shape[0], self.vt.shape[1]) * np.finfo(float).eps * self.s[0]
        return int(np.count_nonzero(self.s > cutoff))

    @property
    def residual_rank(self) -> int:
        """Rank of P: the m - k directions off col(U), plus each 1 - w_i above m eps."""
        m, k = self.u.shape
        return (m - k) + int(np.count_nonzero(1.0 - self.w > m * np.finfo(float).eps))


@dataclass(frozen=True, eq=False)
class MeasurementModel:
    """System matrix H (m x n), noise scale sigma > 0, ridge weight lam >= 0.

    With lam = 0 the matrix must have full column rank (checked at
    construction); the ridge path lifts that requirement. ``factor`` is
    the thin SVD of H, computed once per model (at construction when
    lam = 0, since the rank check needs it).
    """

    H: np.ndarray
    sigma: float
    lam: float = 0.0

    def __post_init__(self):
        H = np.atleast_2d(np.asarray(self.H, dtype=float))
        if H.ndim != 2 or H.shape[0] < 1 or H.shape[1] < 1:
            raise ValueError(f"H must be a 2-D matrix, got shape {H.shape}")
        if not np.all(np.isfinite(H)):
            raise ValueError("H must have finite entries")
        if not (self.sigma > 0 and 0 < self.sigma * self.sigma < np.inf):
            raise ValueError(f"sigma must be finite and > 0 with a positive finite "
                             f"square, got {self.sigma}")
        if not 0 <= self.lam < np.inf:
            raise ValueError(f"lambda must be finite and >= 0, got {self.lam}")
        object.__setattr__(self, "H", _readonly(H))
        if self.lam == 0 and self.factor.rank < H.shape[1]:
            raise RankDeficiencyError(
                f"H ({H.shape[0]}x{H.shape[1]}) lacks full column rank; "
                "set lambda > 0 or reduce the state space"
            )

    @cached_property
    def factor(self) -> Factor:
        u, s, vt = np.linalg.svd(self.H, full_matrices=False)
        w = np.ones_like(s) if self.lam == 0 \
            else s**2 / (s**2 + self.lam * self.sigma**2)
        return Factor(u=_readonly(u), s=_readonly(s), vt=_readonly(vt), w=_readonly(w))

    @property
    def m(self) -> int:
        return self.H.shape[0]

    @property
    def n(self) -> int:
        return self.H.shape[1]


@dataclass(frozen=True, eq=False)
class StateVector:
    """State vector (ground truth or estimate); entries must be finite."""

    x: np.ndarray

    def __post_init__(self):
        x = np.atleast_1d(np.asarray(self.x, dtype=float))
        if x.ndim != 1:
            raise ValueError(f"state must be 1-D, got shape {x.shape}")
        if not np.all(np.isfinite(x)):
            raise ValueError("state entries must be finite")
        object.__setattr__(self, "x", _readonly(x))

    def __len__(self) -> int:
        return self.x.shape[0]


@dataclass(frozen=True, eq=False)
class AttackVector:
    """Sparse additive corruption of the measurements, stored densely.

    Entries off the support are exactly zero; the support is the set of
    nonzero coordinates.
    """

    a: np.ndarray

    def __post_init__(self):
        a = np.atleast_1d(np.asarray(self.a, dtype=float))
        if a.ndim != 1:
            raise ValueError(f"attack vector must be 1-D, got shape {a.shape}")
        if not np.all(np.isfinite(a)):
            raise ValueError("attack entries must be finite")
        object.__setattr__(self, "a", _readonly(a))

    @classmethod
    def zero(cls, m: int) -> "AttackVector":
        return cls(np.zeros(m))

    @classmethod
    def sparse(cls, m: int, indices, values) -> "AttackVector":
        indices = [int(i) for i in indices]
        values = [float(v) for v in values]
        if len(indices) != len(values):
            raise ValueError("indices and values must have equal length")
        if len(set(indices)) != len(indices):
            raise ValueError(f"attack indices must be distinct, got {indices}")
        a = np.zeros(m)
        for i, v in zip(indices, values):
            if not 0 <= i < m:
                raise ValueError(f"attack index {i} out of range [0, {m})")
            a[i] = v
        return cls(a)

    @property
    def m(self) -> int:
        return self.a.shape[0]

    @property
    def support(self) -> tuple[int, ...]:
        return tuple(int(i) for i in np.flatnonzero(self.a))


@dataclass(frozen=True, eq=False)
class NeighborPerturbation:
    """A distance-one neighbor: row ``row_index`` of H shifted by ``delta_h``."""

    row_index: int
    delta_h: np.ndarray

    def __post_init__(self):
        dh = np.atleast_1d(np.asarray(self.delta_h, dtype=float))
        if dh.ndim != 1:
            raise ValueError("delta_h must be 1-D")
        if not np.all(np.isfinite(dh)):
            raise ValueError("delta_h entries must be finite")
        if self.row_index < 0:
            raise ValueError(f"row_index must be >= 0, got {self.row_index}")
        object.__setattr__(self, "delta_h", _readonly(dh))


@dataclass(frozen=True, eq=False)
class Projection:
    """Residual projector and its numerical rank.

    A reference for checking the factor-based path (acceptance criteria 1
    and 4), not part of it: ``rank`` equals ``Factor.residual_rank``.
    """

    matrix: np.ndarray
    rank: int


def _attack_dense(attack, m: int) -> np.ndarray:
    if attack is None:
        return np.zeros(m)
    a = attack.a if isinstance(attack, AttackVector) else np.asarray(attack, dtype=float)
    if a.shape != (m,):
        raise ValueError(f"attack has length {a.shape[0]}, expected {m}")
    return a


def _state_dense(x, n: int) -> np.ndarray:
    v = x.x if isinstance(x, StateVector) else np.atleast_1d(np.asarray(x, dtype=float))
    if v.shape != (n,):
        raise ValueError(f"state has length {v.shape[0]}, expected {n}")
    return v


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------

def projection_matrix(model: MeasurementModel) -> Projection:
    """Residual projector of the model as a dense m x m matrix, with its rank.

    P = I - H (H^T H + lam sigma^2 I)^{-1} H^T = I - U diag(w) U^T from the
    model's factor; with lam = 0 it is the orthogonal projector onto the
    complement of col(H). This is a reference, not a path: no package
    computation forms this matrix, which stays public for acceptance
    criteria 1 and 4 and for callers that want P itself.
    """
    f = model.factor
    P = np.eye(model.m) - (f.u * f.w) @ f.u.T
    P = 0.5 * (P + P.T)
    return Projection(matrix=_readonly(P), rank=f.residual_rank)


def simulate_measurements(model: MeasurementModel, x_true, attack, rng,
                          trials: int | None = None, out: np.ndarray | None = None) -> np.ndarray:
    """Draw z = H x_true + a + eta with eta ~ N(0, sigma^2 I).

    ``attack`` is None for a clean draw. Returns a length-m vector, or a
    (trials, m) array when ``trials`` is given. Reproducible under a fixed
    seed. With ``out`` (a C-contiguous float64 array of that shape) the
    draw is written into it in place and ``out`` is returned; the values
    are the same as without it.
    """
    gen = as_generator(rng)
    x = _state_dense(x_true, model.n)
    a = _attack_dense(attack, model.m)
    mean = model.H @ x + a
    shape = (model.m,) if trials is None else (int(trials), model.m)
    if out is None:
        out = np.empty(shape)
    elif out.shape != shape or out.dtype != np.float64 or not out.flags.c_contiguous:
        raise ValueError(
            f"out must be a C-contiguous float64 array of shape {shape}, "
            f"got {out.dtype} {out.shape}"
        )
    gen.standard_normal(out=out)
    out *= model.sigma
    out += mean
    return out


def apply_neighbor(model: MeasurementModel, pert: NeighborPerturbation) -> MeasurementModel:
    """The distance-one neighbor model: H' = H + e delta_h^T."""
    if not 0 <= pert.row_index < model.m:
        raise ValueError(f"row_index {pert.row_index} out of range [0, {model.m})")
    if pert.delta_h.shape != (model.n,):
        raise ValueError(
            f"delta_h has length {pert.delta_h.shape[0]}, expected {model.n}"
        )
    Hp = model.H.copy()
    Hp[pert.row_index, :] += pert.delta_h
    return MeasurementModel(H=Hp, sigma=model.sigma, lam=model.lam)


class _NeighborGram(NamedTuple):
    """The rank-two Woodbury solve of distance-one neighbours' Grams.

    Neighbour k shifts row i = ``rows[k]`` of H by dh. In the factor's
    coordinates w = dh V / s (row k of ``w``), H' = Y S V^T with
    Y = U + e_i w^T, and Y^T Y = I + A B^T with A = [U_i + w, w] and
    B = [w, U_i], so (Y^T Y)^{-1} = I - A K^{-1} B^T through the 2 x 2
    capacitance K = I + B^T A = [[1 + gamma + beta, beta],
    [lev + gamma, 1 + gamma]]: beta = w^T w = dh^T G^{-1} dh,
    gamma = U_i^T w = h_i^T G^{-1} dh and the leverage lev = U_i^T U_i.
    By the matrix determinant lemma det K = det G' / det G, so the one
    singularity rule det K <= _PIVOT_TOL does not depend on the scale of
    H. det K = (1 + gamma)^2 + beta (1 - lev) sums two nonnegative terms
    (lev <= 1): k11 k22 - k12 k21 cancels from shifts of about 1e16 s.
    """

    rows: np.ndarray
    w: np.ndarray
    u_i: np.ndarray
    beta: np.ndarray
    gamma: np.ndarray
    lev: np.ndarray
    k: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]
    det: np.ndarray
    singular: np.ndarray

    def solve(self, r1, r2):
        """K^{-1} [r1, r2] per neighbour; singular neighbours divide by 1."""
        k11, k12, k21, k22 = self.k
        det = np.where(self.singular, 1.0, self.det)
        return (k22 * r1 - k12 * r2) / det, (k11 * r2 - k21 * r1) / det


def _neighbor_gram(model: MeasurementModel, rows, delta_h) -> _NeighborGram:
    """Gram update of the neighbours shifting row ``rows[k]`` by ``delta_h[k]``.

    O(len(rows) n) work and memory from the model's factor; G^{-1} is
    never formed. Requires lam = 0. A capacitance past the double range
    (a shift of about 1e154 times H's smallest singular value) raises
    NumericError: its det K says nothing of singularity.
    """
    if model.lam != 0:
        raise ValueError("the neighbour Gram update requires lambda = 0")
    rows = np.asarray(rows, dtype=np.intp)
    delta_h = np.asarray(delta_h, dtype=float)
    if rows.ndim != 1 or np.any((rows < 0) | (rows >= model.m)):
        raise ValueError(f"rows must be a 1-D array of indices in [0, {model.m})")
    if delta_h.shape != (rows.size, model.n):
        raise ValueError(f"delta_h has shape {delta_h.shape}, "
                         f"expected ({rows.size}, {model.n})")
    f = model.factor
    u_i = f.u[rows]
    with np.errstate(over="ignore", invalid="ignore"):
        w = (delta_h @ f.vt.T) / f.s
        beta = np.einsum("ij,ij->i", w, w)
        gamma = np.einsum("ij,ij->i", u_i, w)
        lev = np.einsum("ij,ij->i", u_i, u_i)
        k = (1.0 + gamma + beta, beta, lev + gamma, 1.0 + gamma)
        det = (1.0 + gamma) ** 2 + beta * (1.0 - lev)
    if not np.isfinite(det).all():  # a K entry that is not finite makes det so too
        raise NumericError(f"{np.count_nonzero(~np.isfinite(det))} of {rows.size} "
                           "neighbour Grams overflow the double range; reduce the "
                           "row-perturbation bound")
    return _NeighborGram(rows=rows, w=w, u_i=u_i, beta=beta, gamma=gamma, lev=lev,
                         k=k, det=det, singular=~(det > _PIVOT_TOL))


def neighbor_projection_update(model: MeasurementModel,
                               pert: NeighborPerturbation) -> np.ndarray:
    """Projector of the distance-one neighbour without refactoring H'.

    With Y = U + e_i w^T as in ``_NeighborGram``, P' = I - Y (Y^T Y)^{-1} Y^T
    and the rank-two Woodbury solve give

        P' = I - Y Y^T + Y [U_i + w, w] K^{-1} (Y [w, U_i])^T.

    Like ``projection_matrix`` and ``neighbor_roots``, a reference rather
    than a package path. Requires lam = 0. A neighbour whose Gram is
    numerically singular raises SingularUpdateError, by the rule under
    which ``neighbor_roots`` gives NaN.
    """
    g = _neighbor_gram(model, [pert.row_index], pert.delta_h[None, :])
    if g.singular[0]:
        raise SingularUpdateError(f"the neighbour Gram at row {pert.row_index} is "
                                  f"numerically singular (det K = {g.det[0]:.3e})")
    w, u_i = g.w[0], g.u_i[0]
    Y = model.factor.u.copy()
    Y[pert.row_index] += w
    yw, yu = Y @ w, Y @ u_i
    t1, t2 = g.solve(yw, yu)                 # the rows of K^{-1} (Y [w, U_i])^T
    P_prime = np.eye(model.m) - Y @ Y.T + np.outer(yu + yw, t1) + np.outer(yw, t2)
    return 0.5 * (P_prime + P_prime.T)


def neighbor_roots(model: MeasurementModel, attack, rows, delta_h) -> np.ndarray:
    """Noncentrality roots theta' = ||P' a|| / sigma of distance-one neighbours.

    Neighbour k shifts row i = ``rows[k]`` of H by dh = ``delta_h[k]``.
    With ``_neighbor_gram``'s w = S^-1 V^T dh, gamma, beta, lev and det K,
    col(H') lies in col(U) + span(q_i), q_i = (I - U U^T) e_i, where its
    normal is z = (sqrt(1 - lev) w; -(1 + gamma)) with ||z||^2 = det K. So
    P' a is (I - U U^T) a off that span plus a's component along z, and

        sigma^2 theta'^2 = ||P a||^2 + ((1 - lev) d^2 - 2 (1 + gamma) d (P a)_i
                                        - beta (P a)_i^2) / det K,

    d = dh^T x_hat; every root is 0 where U is square. Each of the three
    quotients is at most of the order of ||a||^2 whatever the shift, and
    each is formed as a ratio before any product, so no finite shift
    overflows and the accuracy does not decay with the shift: on the demo
    model (s from 2.9 to 6.6) the roots are within 4e-16 relative of a
    high-precision solve at every shift from 1e4 to 1e150, where a float QR
    of H' drifts from 5e-14 to 3e-6 relative between 1e4 and 1e12. O(len(rows)
    n) work and memory. Requires lam = 0. Returns NaN for neighbours whose
    Gram is numerically singular, by the rule under which
    ``neighbor_projection_update`` raises. A reference; the guarantee uses
    ``neighbor_root_interval``.
    """
    g = _neighbor_gram(model, rows, delta_h)
    f = model.factor
    a = _attack_dense(attack, model.m)
    c = f.u.T @ a
    d = g.w @ c                              # dh^T x_hat
    det = np.where(g.singular, 1.0, g.det)
    norm_sq = np.zeros(d.shape)
    if model.m > model.n:  # else U is square, and P a, q_i and every root are 0
        pa = a - f.u @ c
        pa_i, ratio = pa[g.rows], d / det
        norm_sq += (float(pa @ pa) + (1.0 - g.lev) * ratio * d
                    - 2.0 * (1.0 + g.gamma) * ratio * pa_i - g.beta / det * pa_i * pa_i)
    theta_prime = np.sqrt(np.maximum(norm_sq, 0.0)) / model.sigma
    theta_prime[g.singular] = np.nan
    return theta_prime


# The shared multipliers' run towards 1, as fractions of s_min^2.
_DUAL_UPPER = 1.0 - np.geomspace(0.5, 1e-12, 32)[1:]


def neighbor_root_interval(model: MeasurementModel, attack,
                           delta_h_bound: float) -> tuple[float, float, float]:
    """(theta_lo, theta, theta_hi), holding every distance-one neighbour's root.

    A neighbour shifts row i of H by dh, ||dh|| <= B = ``delta_h_bound``; its
    root is min_x ||r(x) - e_i dh^T x|| / sigma, r(x) = a - H x, and theta =
    ||P a|| / sigma. Upper end, by weak duality at x_hat (r = P a):
    sigma^2 theta'^2 <= ||P a||^2 - (P a)_i^2 + (|(P a)_i| + B ||x_hat||)^2.

    Lower end, by the S-lemma: for a multiplier t = mu B^2 in [0, s_min^2)
    and k_j = t / (s_j^2 - t), row i's dual is g = ||P a||^2 - sum k_j c_j^2
    - b^2 / A with b = (P a)_i - sum k_j u_ij c_j and A = 1 - ||u_i||^2 +
    mu - sum k_j u_ij^2 > 0 (else -inf); no ||a||^2 - ||c||^2 cancels, and a
    mu that overflows only zeroes b^2 / A. Every t bounds the row below
    and g is concave: each row keeps its best over 64 shared multipliers and
    5 safeguarded Newton steps in the two cells about its best one. As
    fractions of s_min^2 the multipliers are 0, 32 geometric from
    min(1e-6, 1e-3 B / s_min) up to 0.5, and 31 geometric towards 1. A
    row's best t is about B |(P a)_i| / ||x_hat||, of order B, so at small
    B the lower run reaches below it. At the hard case (optimum at t =
    s_min^2) the bound is valid but looser.
    O(m n) per multiplier; lam = 0. An end whose square, a noncentrality, is
    not a finite double raises NumericError.
    """
    if model.lam != 0:
        raise ValueError("the neighbour root interval requires lambda = 0")
    f = model.factor
    # Every root is homogeneous of degree one in a, so the work runs on a
    # scaled by a power of two to max |a| < 1, where no product overflows.
    a = _attack_dense(attack, model.m)
    a_exp = math.frexp(float(np.abs(a).max(initial=0.0)))[1]
    a = np.ldexp(a, -a_exp)
    c = f.u.T @ a
    pa = a - f.u @ c
    # Scaling H and B by one power of two leaves every root unchanged, so the
    # work runs at s_max ~ 1. B^2 is raised to the smallest normal double at
    # least, a larger neighbourhood whose lower end is still valid.
    scale = 2.0 ** round(math.log2(f.s[0]))
    s, bound = f.s / scale, float(delta_h_bound) / scale
    pa2, s2, b2 = float(pa @ pa), s**2, max(bound * bound, np.finfo(float).tiny)
    q2 = 1.0 - np.einsum("ij,ij->i", f.u, f.u)                # ||q_i||^2
    bx = bound * float(np.linalg.norm(c / s))                 # B ||x_hat||
    with np.errstate(over="ignore"):
        hi2 = pa2 + bx * (2.0 * float(np.abs(pa).max(initial=0.0)) + bx)

    def duals(t):
        """Each row's g at its own t, with dg/dt = r^2 / B^2 - sum k' d^2 at the
        inner minimizer r = b / A, d = c - r u_i, and d2g/dt2."""
        den = s2 - t[:, None]
        k, k1 = t[:, None] / den, s2 / den**2                 # k and dk/dt
        with np.errstate(over="ignore"):
            a_ = q2 + t / b2 - np.einsum("ij,ij,ij->i", k, f.u, f.u)
        b = pa - np.einsum("ij,ij,j->i", k, f.u, c)
        ok = a_ > 0
        r = b / np.where(ok, a_, np.inf)
        d = c - f.u * r[:, None]
        # At t far below B^2 an infinite r / B^2 makes the curvature -inf,
        # and the Newton step then bisects.
        with np.errstate(over="ignore"):
            e = np.einsum("ij,ij,ij->i", k1, f.u, d) + r / b2
            curv = -2.0 * (np.einsum("ij,ij,ij->i", k1 / den, d, d)
                           + e * e / np.where(ok, a_, np.inf))
        return (np.where(ok, pa2 - k @ (c * c) - b * r, -np.inf),
                np.where(ok, r * (r / b2) - np.einsum("ij,ij,ij->i", k1, d, d), -np.inf),
                curv)

    floor = min(1e-6, 1e-3 * bound / s[-1])
    ts = np.concatenate([[0.0], np.geomspace(floor, 0.5, 32), _DUAL_UPPER]) * s2[-1]
    k = ts[:, None] / (s2 - ts[:, None])
    with np.errstate(over="ignore"):
        a_ = q2[:, None] + ts / b2 - (f.u * f.u) @ k.T
    b = pa[:, None] - f.u @ (k * c).T
    grid = np.where(a_ > 0, pa2 - k @ (c * c) - b * b / np.where(a_ > 0, a_, np.inf), -np.inf)
    at = grid.argmax(axis=1)
    best, t = grid[np.arange(model.m), at], ts[at]
    lo, hi = ts[np.maximum(at - 1, 0)], ts[np.minimum(at + 1, ts.size - 1)]
    g, slope, curv = duals(t)
    for _ in range(5):
        lo, hi = np.where(slope > 0, t, lo), np.where(slope > 0, hi, t)
        with np.errstate(all="ignore"):                       # flat or infeasible: bisect
            step = t - slope / curv
        t = np.where((step > lo) & (step < hi), step, 0.5 * (lo + hi))
        g, slope, curv = duals(t)
        best = np.maximum(best, g)
    with np.errstate(over="ignore"):
        squares = np.ldexp([min(max(float(best.min()), 0.0), pa2), pa2, hi2], 2 * a_exp) \
            / model.sigma**2
    ends = np.sqrt(squares)
    if not np.isfinite(squares).all():
        raise NumericError(f"the neighbour root interval [{ends[0]:.3g}, {ends[2]:.3g}] "
                           f"about theta={ends[1]:.3g} leaves the double range; reduce the "
                           "row-perturbation bound or the attack")
    return tuple(float(v) for v in ends)


def gsp_reduce(model: MeasurementModel, u_kappa: np.ndarray) -> MeasurementModel:
    """Restrict the state to a kappa-dimensional subspace: H' = H U_kappa.

    ``u_kappa`` must be n x kappa with orthonormal columns and kappa < m.
    Makes residuals available when m < n and exposes attacks hidden in
    col(H) but not in col(H U_kappa).
    """
    U = np.atleast_2d(np.asarray(u_kappa, dtype=float))
    if U.shape[0] != model.n:
        raise ValueError(f"U_kappa has {U.shape[0]} rows, expected n={model.n}")
    kappa = U.shape[1]
    if kappa >= model.m:
        raise ValueError(f"kappa={kappa} must be < m={model.m}")
    gram = U.T @ U
    if np.max(np.abs(gram - np.eye(kappa))) > 1e-8:
        raise ValueError("U_kappa columns are not orthonormal (tolerance 1e-8)")
    return MeasurementModel(H=model.H @ U, sigma=model.sigma, lam=model.lam)


def stealth_attack(model: MeasurementModel, coeffs) -> AttackVector:
    """The unobservable attack a = H coeffs, which the projector annihilates.

    Requires lam = 0; the resulting corruption lies in col(H), so the
    residual statistic is unchanged for any noise realization.
    """
    if model.lam != 0:
        raise ValueError("stealth construction assumes the unregularized projector")
    c = np.atleast_1d(np.asarray(coeffs, dtype=float))
    if c.shape != (model.n,):
        raise ValueError(f"coeffs has length {c.shape[0]}, expected {model.n}")
    return AttackVector(model.H @ c)


# ---------------------------------------------------------------------------
# Model load/store (CSV with a structured-text header)
# ---------------------------------------------------------------------------

MODEL_SCHEMA = "dpresidual-model/1"


def save_model_csv(model: MeasurementModel, path) -> None:
    """Write the model as CSV rows of H preceded by '# key: value' headers."""
    path = Path(path)
    lines = [
        f"# schema: {MODEL_SCHEMA}",
        f"# m: {model.m}",
        f"# n: {model.n}",
        f"# sigma: {model.sigma!r}",
        f"# lambda: {model.lam!r}",
    ]
    for row in model.H:
        lines.append(",".join(repr(float(v)) for v in row))
    path.write_text("\n".join(lines) + "\n")


def load_model_csv(path) -> MeasurementModel:
    """Read a model written by ``save_model_csv``, validating the header."""
    header, body = split_header(path)
    if header.get("schema") != MODEL_SCHEMA:
        raise ValueError(f"unsupported model schema {header.get('schema')!r} in {path}")
    for key in ("m", "n", "sigma", "lambda"):
        if key not in header:
            raise ValueError(f"model header missing key {key!r} in {path}")
    m, n = int(header["m"]), int(header["n"])
    if not body:
        raise ValueError(f"model body is empty, header declares ({m}, {n})")
    # comments=None: a '#' inside a row is a bad cell, as it is to float().
    H = np.loadtxt(body, delimiter=",", comments=None, ndmin=2)
    if H.shape != (m, n):
        raise ValueError(f"model body is {H.shape}, header declares ({m}, {n})")
    return MeasurementModel(H=H, sigma=float(header["sigma"]), lam=float(header["lambda"]))
