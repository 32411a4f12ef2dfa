"""Linear(ized) measurement models, projections, neighbors, and attacks.

The model is z = H x + a + eta with eta ~ N(0, sigma^2 I): a system matrix
(or Jacobian at the operating point) H, homoscedastic noise scale sigma,
and an optional ridge weight lambda for the underdetermined case. Callers
with correlated noise pre-whiten first; callers with a nonlinear forward
model supply the Jacobian at the operating point.

Alongside construction and simulation, this module carries the residual
projector P (and its ridge variant), distance-one row perturbations with a
rank-one projector update, the low-pass state-subspace reduction, and
unobservable (stealth) attack construction for test fixtures.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from .exceptions import RankDeficiencyError, SingularUpdateError
from .streams import as_generator

logger = logging.getLogger(__name__)

# Relative pivot threshold below which the rank-one update is deemed singular.
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
        if not self.sigma > 0:
            raise ValueError(f"sigma must be > 0, got {self.sigma}")
        if self.lam < 0:
            raise ValueError(f"lambda must be >= 0, got {self.lam}")
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


def simulate_measurements(model: MeasurementModel, x_true, attack=None, rng=None,
                          trials: int | None = None, out: np.ndarray | None = None) -> np.ndarray:
    """Draw z = H x_true + a + eta with eta ~ N(0, sigma^2 I).

    Returns a length-m vector, or a (trials, m) array when ``trials`` is
    given. Reproducible under a fixed seed. With ``out`` (a C-contiguous
    float64 array of that shape) the draw is written into it in place and
    ``out`` is returned; the values are the same as without it.
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


def neighbor_projection_update(model: MeasurementModel, pert: NeighborPerturbation,
                               fallback: bool = True) -> np.ndarray:
    """Projector of the distance-one neighbor without refactoring H'.

    Propagates the row change through the Gram inverse by Sherman-Morrison
    steps: with C0 = H^T H, C1 = delta_h h^T C0^{-1} and pivot
    c0 = 1 + h^T C0^{-1} delta_h,

        M = C0^{-1} - C0^{-1} C1 / c0 - C1^T C0^{-1} / c0
                    + C1^T C0^{-1} C1 / c0^2

    inverts the rank-two corrected Gram up to a residual gamma *
    delta_h delta_h^T term with gamma = 1 - h^T C0^{-1} h; a final
    Sherman-Morrison step absorbs it, giving (H'^T H')^{-1} exactly. Then
    P' = I - H' (H'^T H')^{-1} H'^T = P + C4.

    Requires lam = 0. A near-zero pivot |c0| or a singular final step
    raises SingularUpdateError, or (default) falls back to direct
    recomputation with a logged warning.
    """
    if model.lam != 0:
        raise ValueError("rank-one projector update requires lambda = 0")
    if not 0 <= pert.row_index < model.m:
        raise ValueError(f"row_index {pert.row_index} out of range [0, {model.m})")
    if pert.delta_h.shape != (model.n,):
        raise ValueError(
            f"delta_h has length {pert.delta_h.shape[0]}, expected {model.n}"
        )

    H = model.H
    m = model.m
    h = H[pert.row_index, :]
    dh = pert.delta_h

    C0 = H.T @ H
    C0_inv = np.linalg.solve(C0, np.eye(model.n))
    c0 = 1.0 + h @ C0_inv @ dh

    def _direct() -> np.ndarray:
        return projection_matrix(apply_neighbor(model, pert)).matrix.copy()

    if abs(c0) <= _PIVOT_TOL:
        if fallback:
            logger.warning(
                "singular rank-one update (c0=%.3e) at row %d; recomputing directly",
                c0, pert.row_index,
            )
            return _direct()
        raise SingularUpdateError(f"pivot c0={c0:.3e} is numerically zero")

    C1 = np.outer(dh, h) @ C0_inv
    M = (C0_inv
         - (C0_inv @ C1) / c0
         - (C1.T @ C0_inv) / c0
         + (C1.T @ C0_inv @ C1) / c0**2)

    # Residual rank-one term left by the symmetric factorization above.
    gamma = 1.0 - h @ C0_inv @ h
    Md = M @ dh
    c1 = 1.0 + gamma * (dh @ Md)
    if abs(c1) <= _PIVOT_TOL:
        if fallback:
            logger.warning(
                "singular correction step (c1=%.3e) at row %d; recomputing directly",
                c1, pert.row_index,
            )
            return _direct()
        raise SingularUpdateError(f"correction pivot c1={c1:.3e} is numerically zero")
    gram_inv = M - gamma * np.outer(Md, Md) / c1

    e = np.zeros(m)
    e[pert.row_index] = 1.0
    Hp = H + np.outer(e, dh)
    P_prime = np.eye(m) - Hp @ gram_inv @ Hp.T
    return 0.5 * (P_prime + P_prime.T)


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
    path = Path(path)
    header: dict[str, str] = {}
    rows: list[list[float]] = []
    for line in path.read_text().splitlines():
        line = line.strip()
        if not line:
            continue
        if line.startswith("#"):
            key, _, value = line[1:].partition(":")
            header[key.strip()] = value.strip()
        else:
            rows.append([float(v) for v in line.split(",")])
    if header.get("schema") != MODEL_SCHEMA:
        raise ValueError(f"unsupported model schema {header.get('schema')!r} in {path}")
    for key in ("m", "n", "sigma", "lambda"):
        if key not in header:
            raise ValueError(f"model header missing key {key!r} in {path}")
    H = np.array(rows, dtype=float)
    m, n = int(header["m"]), int(header["n"])
    if H.shape != (m, n):
        raise ValueError(f"model body is {H.shape}, header declares ({m}, {n})")
    return MeasurementModel(H=H, sigma=float(header["sigma"]), lam=float(header["lambda"]))
