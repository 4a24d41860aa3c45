"""Christoffel symbols, curvature tensors, and covariant calculus at chart points.

All functions operate on batches: a MetricApparatus packs the metric, its
inverse, Christoffel symbols, and (at level 2) curvature at N points.  Level 2
computes the Ricci tensor straight from Gamma and d Gamma; the lowered Riemann
array and the coefficients of the linearized scalar-curvature operator are
built on first read and cached, so an apparatus whose readers read neither
never builds them.  The inverse and determinant are in closed form at n = 3.
Only first derivatives of the inverse metric are kept: a second derivative of a
g-contraction is taken covariantly, where nabla g = 0 moves g^{-1} outside
(Lap tr h = g^{ab} g^{ij} nabla_a nabla_b h_ij).  The covariant derivatives
take the field as the ``Jet`` its producer returns (``V.jet``,
``component_arrays``, ``component_jets``).  The Riemann convention is

    R_kjli = g( D_k D_j e_l - D_j D_k e_l , e_i )

so that for orthonormal X, Y the sectional curvature is K(X ^ Y) = R(X,Y,Y,X),
equal to -1 on the hyperbolic background.

Contractions are batched ``@`` products of stacked n x n factors, reshaped so
that the summed index is the inner one; no einsum of the curvature core takes
more than two operands.  Where two terms are (i, j)-transposes of each other
because the metric, its derivatives or the tensor field are symmetric, one is
computed and the other added as its transpose.  The g-contractions the other
modules share (``inner``, ``trace``, ``sharp``, ``sectional``) are written once,
as MetricApparatus methods.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import jets as J
from .chart import as_coords
from .metrics import MetricSpec


@dataclass
class MetricApparatus:
    """Pointwise metric data shared by curvature and operator evaluations.

    Level 1 holds g, dg, the inverse and its first derivative, Christoffel
    symbols and sqrt(det g); level 2 adds ddg, d Gamma, Ricci and the scalar
    curvature.  Two level-2 fields are lazy, built on first read and cached:
    ``riemann``, the lowered Riemann array, and ``linearization``, the
    coefficients of L_g.  No level carries second derivatives of the inverse
    metric.
    """

    coords: np.ndarray
    g: np.ndarray            # (N, n, n)
    dg: np.ndarray           # (N, a, i, j)
    inv: np.ndarray          # (N, n, n)
    dinv: np.ndarray         # (N, a, i, j)
    gamma: np.ndarray        # (N, k, i, j)
    sqrt_det: np.ndarray     # (N,)
    level: int
    ddg: np.ndarray = None
    dgamma: np.ndarray = None  # (N, a, k, i, j)
    ricci: np.ndarray = None
    scalar: np.ndarray = None
    _riemann: np.ndarray = field(default=None, init=False, repr=False)
    _linearization: tuple = field(default=None, init=False, repr=False)

    @property
    def n(self) -> int:
        return self.g.shape[-1]

    @property
    def riemann(self) -> np.ndarray:
        """R_kjli at (N, k, j, l, i), fully covariant (level 2, built on first read)."""
        if self._riemann is None:
            self._riemann = _lowered_riemann(self.g, self.gamma, self.dgamma)
        return self._riemann

    @property
    def linearization(self) -> tuple:
        """Coefficients (A, B, C) of L_g h = A . ddh + B . dh + C . h, each
        contracted with the jet array of the same shape (level 2, built on
        first read)."""
        if self._linearization is None:
            self._linearization = _linearization_coefficients(
                self.inv, self.gamma, self.dgamma, self.ricci)
        return self._linearization

    def inner(self, a, b) -> np.ndarray:
        """g-inner product g^{ia} g^{jb} a_ij b_ab of two 2-tensors at each point."""
        return ((self.inv @ a @ self.inv) * b).sum((1, 2))

    def trace(self, t) -> np.ndarray:
        """g-trace g^{ij} t_ij of a 2-tensor at each point."""
        return np.einsum("pij,pij->p", self.inv, t)

    def sharp(self, omega) -> np.ndarray:
        """Vector g^{ab} omega_b of a one-form at each point."""
        return np.einsum("pab,pb->pa", self.inv, omega)

    def sectional(self, X, Y) -> np.ndarray:
        """R(X, Y, Y, X) at each point; K(X ^ Y) for g-orthonormal X, Y (level 2)."""
        return np.einsum("pkjli,pk,pj,pl,pi->p", self.riemann, X, Y, Y, X)


class DegenerateMetricError(ArithmeticError):
    """A symmetric tensor with det g <= 0 at the points flagged in ``mask``."""

    def __init__(self, mask: np.ndarray):
        super().__init__(f"the metric is not positive definite: det g <= 0 "
                         f"at {np.count_nonzero(mask)} of {mask.size} points")
        self.mask = mask


def _bracket(dg):
    # d_i g_lj + d_j g_li - d_l g_ij at index (..., l, i, j), from dg at (..., a, i, j)
    t = dg.swapaxes(-3, -2)
    bracket = t + t.swapaxes(-2, -1)
    bracket -= dg
    return bracket


def _christoffel(inv, bracket):
    # Gamma^k_ij = 1/2 g^{kl} bracket_lij
    N, n = inv.shape[:2]
    gamma = inv @ bracket.reshape(N, n, n * n)
    gamma *= 0.5
    return gamma.reshape(N, n, n, n)


def _ricci(gamma, dgamma):
    """Ric_jl = d_k Gamma^k_jl - d_j Gamma^k_kl + Gamma^k_kq Gamma^q_jl - Gamma^k_jq Gamma^q_kl."""
    N, n = gamma.shape[:2]
    ricci = np.einsum("pkkjl->pjl", dgamma) - np.einsum("pjkkl->pjl", dgamma)
    traced = np.einsum("pkkq->pq", gamma)
    ricci += np.einsum("pq,pqx->px", traced, gamma.reshape(N, n, n * n)).reshape(N, n, n)
    # Gamma^k_jq at row j, column (k, q); Gamma^q_kl at row (k, q), column l
    swapped = np.ascontiguousarray(gamma.swapaxes(1, 2))
    ricci -= swapped.reshape(N, n, n * n) @ swapped.reshape(N, n * n, n)
    return ricci


def _lowered_riemann(g, gamma, dgamma):
    """R_kjli = R^m_kjl g_mi at (N, k, j, l, i).

    R^m_kjl = B_kmjl - B_jmkl with B_kmjl = d_k Gamma^m_jl + Gamma^m_kq Gamma^q_jl.
    """
    N, n = g.shape[:2]
    B = gamma.swapaxes(1, 2).reshape(N, n * n, n) @ gamma.reshape(N, n, n * n)
    B = B.reshape(N, n, n, n, n)
    B += dgamma
    B = B.transpose(0, 1, 3, 4, 2)              # (N, k, j, l, m)
    rm = np.subtract(B, B.swapaxes(1, 2), order="C")
    return (rm.reshape(N, n ** 3, n) @ g).reshape(N, n, n, n, n)


# rows and columns of a 3 x 3 matrix, extended cyclically to five
_CYCLIC = [0, 1, 2, 0, 1]


def _inverse_and_det(g):
    """Inverse and determinant of (N, n, n) matrices with det > 0, else
    DegenerateMetricError; adjugate and cofactor expansion at n = 3."""
    if g.shape[-1] == 3:
        # cofactor_ij = g_{i+1,j+1} g_{i+2,j+2} - g_{i+1,j+2} g_{i+2,j+1}, indices mod 3
        ext = g[:, _CYCLIC][:, :, _CYCLIC]
        cof = ext[:, 1:4, 1:4] * ext[:, 2:, 2:]
        cof -= ext[:, 1:4, 2:] * ext[:, 2:, 1:4]
        det = (g[:, 0] * cof[:, 0]).sum(axis=1)
    else:
        det = np.linalg.det(g)
    bad = det <= 0.0
    if bad.any():
        raise DegenerateMetricError(bad)
    if g.shape[-1] == 3:
        return np.divide(cof.swapaxes(1, 2), det[:, None, None], order="C"), det
    return np.linalg.inv(g), det


def _connection(g, dg):
    """The inverse metric, det g, the bracket of dg and the Christoffel symbols.

    A tensor with det g <= 0 at some point is not a metric there: raises
    DegenerateMetricError with the mask of such points.
    """
    inv, det = _inverse_and_det(g)
    bracket = _bracket(dg)
    return inv, det, bracket, _christoffel(inv, bracket)


def metric_apparatus(spec: MetricSpec | J.Jet, coords, level: int = 2) -> MetricApparatus:
    """Evaluate metric data at coordinate rows; level 2 adds curvature.

    ``spec`` is a metric spec, or the metric's component jet at ``coords``
    when the caller holds it already (of order ``level`` or more).  A spec's
    jets are built to the order the level needs: level 1 asks for first-order
    jets and computes no second derivative of g.  A tensor with det g <= 0 at
    some point is not a metric there: the call raises DegenerateMetricError
    with the mask of such points.
    """
    coords = as_coords(coords)
    g, dg, ddg = spec if isinstance(spec, J.Jet) else spec.component_jets(coords, order=level)
    N, n = g.shape[:2]
    inv, det, bracket, gamma = _connection(g, dg)
    dinv = inv[:, None] @ dg @ inv[:, None]
    dinv *= -1.0
    sqrt_det = np.sqrt(det)
    app = MetricApparatus(coords=coords, g=g, dg=dg, inv=inv,
                          dinv=dinv, gamma=gamma, sqrt_det=sqrt_det, level=1)
    if level >= 2:
        # d_a Gamma^k_ij at (N, a, k, i, j)
        dgamma = dinv @ bracket.reshape(N, 1, n, n * n)
        dgamma += inv[:, None] @ _bracket(ddg).reshape(N, n, n, n * n)
        dgamma *= 0.5
        dgamma = dgamma.reshape(N, n, n, n, n)
        ricci = _ricci(gamma, dgamma)
        app.ddg, app.dgamma = ddg, dgamma
        app.ricci, app.scalar = ricci, app.trace(ricci)
        app.level = 2
    return app


def finite_curvature(spec: MetricSpec, coords, read: str) -> MetricApparatus:
    """The level-2 apparatus at ``coords`` with the curvature field its caller
    reads (``read``: "riemann" or "scalar") built without overflow warnings;
    that field not finite at some point raises ArithmeticError instead."""
    with np.errstate(over="ignore", invalid="ignore"):
        app = metric_apparatus(spec, coords, level=2)
        values = getattr(app, read)
    count = app.coords.shape[0]
    bad = count - int(np.isfinite(values.reshape(count, -1)).all(axis=1).sum())
    if bad:
        raise ArithmeticError(f"curvature is not finite at {bad} of {count} points")
    return app


def riemann_symmetry_defects(riemann: np.ndarray) -> tuple:
    """Max violations of last-pair antisymmetry and first Bianchi; first-pair
    antisymmetry holds by construction (``_lowered_riemann`` forms B - B^T)."""
    anti_last = float(np.abs(riemann + np.einsum("pkjil->pkjli", riemann)).max())
    cyc2 = np.einsum("pjlki->pkjli", riemann)
    cyc3 = np.einsum("plkji->pkjli", riemann)
    bianchi = float(np.abs(riemann + cyc2 + cyc3).max())
    return anti_last, bianchi


# -- covariant calculus of scalar fields --------------------------------------

def covariant_hessian(app: MetricApparatus, jet: J.Jet) -> np.ndarray:
    """Hessian_ij = d_i d_j V - Gamma^k_ij d_k V for a scalar jet of V."""
    return jet.hess - np.einsum("pkij,pk->pij", app.gamma, jet.grad)


# -- covariant calculus of symmetric 2-tensor fields ---------------------------

def _gamma_rows(gamma):
    """Gamma^c_ab as an (N, n*n, n) stack: row (a, b), column c."""
    N, n = gamma.shape[:2]
    return gamma.reshape(N, n, n * n).swapaxes(1, 2)


def nabla_2tensor(gamma, h, dh) -> np.ndarray:
    """First covariant derivative (N, a, i, j) of a symmetric 2-tensor."""
    N, n = h.shape[:2]
    # S_aij = Gamma^c_ai h_cj; the Gamma^c_aj h_ic term is S_aji since h is symmetric
    S = (_gamma_rows(gamma) @ h).reshape(N, n, n, n)
    T = dh - S
    T -= S.swapaxes(-1, -2)
    return T


def nabla2_2tensor(app: MetricApparatus, jet: J.Jet) -> np.ndarray:
    """Second covariant derivative (N, a, b, i, j) of a symmetric 2-tensor jet.

    Needs a level-2 apparatus.
    """
    h, dh, ddh = jet
    N, n = h.shape[:2]
    G = _gamma_rows(app.gamma)
    T = nabla_2tensor(app.gamma, h, dh)
    # nabla_a nabla_b h_ij = d_a d_b h_ij - Gamma^c_ab T_cij - W_abij - W_abji with
    # W_abij = d_a Gamma^c_bi h_cj + Gamma^c_bi d_a h_cj + Gamma^c_ai T_bcj: each
    # term's (i, j)-transpose is the matching term of W_abji, as h, dh and T are
    # symmetric in (i, j)
    dG = app.dgamma.reshape(N, n, n, n * n).swapaxes(2, 3)
    W = dG @ h[:, None]
    W += G[:, None] @ dh
    W = W.reshape(N, n, n, n, n)
    W += G.reshape(N, n, 1, n, n) @ T[:, None]
    out = ddh - (G @ T.reshape(N, n, n * n)).reshape(N, n, n, n, n)
    out -= W
    out -= W.swapaxes(-1, -2)
    return out


def _linearization_coefficients(inv, gamma, dgamma, ricci) -> tuple:
    """Coefficients (A, B, C) of L_g h = -Lap(tr h) + div div h - <h, Ric>.

    With nabla g = 0 the two second-order terms are M^{abij} nabla_a nabla_b h_ij
    for M^{abij} = g^{ai} g^{bj} - g^{ab} g^{ij}.  Expanding nabla nabla h
    (``nabla2_2tensor``) against a symmetric h gives, with
    K^{cij} = Gamma^c_ab M^{abij} = g^{ia} Gamma^c_ab g^{bj} - g^{ab} Gamma^c_ab g^{ij}
    and Kt^{cij} = K^{icj}:

        A = M,   B = 2 Kt - K,
        C^{dj} = Gamma^d_ci (U^{cij} + U^{cji}) + (e^d_b - f^d_b - g^{da} Ric_ab) g^{bj},

    where U = K - Kt, e^c_b = g^{ai} d_a Gamma^c_bi and f^c_a = g^{bi} d_a Gamma^c_bi.
    Each coefficient is exact only for the symmetric h, dh and ddh of a
    tensor jet, which is all it is contracted with.
    """
    N, n = inv.shape[:2]
    A = inv[:, :, None, :, None] * inv[:, None, :, None, :]          # g^{ai} g^{bj}
    A -= (inv.reshape(N, n * n, 1) * inv.reshape(N, 1, n * n)).reshape(A.shape)
    traced = gamma.reshape(N, n, n * n) @ inv.reshape(N, n * n, 1)    # g^{ab} Gamma^c_ab
    K = inv[:, None] @ gamma @ inv[:, None]
    K -= traced[..., None] * inv[:, None]
    Kt = K.swapaxes(1, 2)
    B = 2.0 * Kt - K
    U = K - Kt
    U = U + U.swapaxes(-1, -2)
    C = gamma.reshape(N, n, n * n) @ U.reshape(N, n * n, n)
    lowered = np.einsum("pai,pacbi->pcb", inv, dgamma)               # e - f - g^{-1} Ric
    lowered -= np.einsum("pbi,pacbi->pca", inv, dgamma)
    lowered -= inv @ ricci
    C += lowered @ inv
    return A, B, C


def divergence_of_oneform(app: MetricApparatus, omega, domega) -> np.ndarray:
    """div(omega) = g^{ab} (d_a omega_b - Gamma^c_ab omega_c)."""
    cov = domega - np.einsum("pcab,pc->pab", app.gamma, omega)
    return app.trace(cov)
