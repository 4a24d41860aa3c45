"""Christoffel symbols, curvature tensors, and covariant calculus at chart points.

All functions operate on batches: a MetricApparatus packs the metric, its
inverse, Christoffel symbols, and (at level 2) curvature at N points.  The
covariant derivatives take the field as the ``Jet`` its producer returns
(``V.jet``, ``component_arrays``, ``component_jets``).  The Riemann
convention is

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

from dataclasses import dataclass

import numpy as np

from . import jets as J
from .chart import as_coords
from .metrics import MetricSpec


@dataclass
class MetricApparatus:
    """Pointwise metric data shared by curvature and operator evaluations."""

    coords: np.ndarray
    g: np.ndarray            # (N, n, n)
    dg: np.ndarray           # (N, a, i, j)
    inv: np.ndarray          # (N, n, n)
    dinv: np.ndarray         # (N, a, i, j)
    gamma: np.ndarray        # (N, k, i, j)
    sqrt_det: np.ndarray     # (N,)
    level: int = 1
    ddg: np.ndarray = None
    ddinv: np.ndarray = None
    dgamma: np.ndarray = None  # (N, a, k, i, j)
    riemann: np.ndarray = None  # (N, k, j, l, i) fully covariant
    ricci: np.ndarray = None
    scalar: np.ndarray = None

    @property
    def n(self) -> int:
        return self.g.shape[-1]

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


def _second_inverse_derivative(inv, dinv, dg, ddg):
    """d_a d_b g^-1 = -(X + X^T + g^-1 d_a d_b g g^-1) with X = d_b g^-1 d_a g g^-1.

    The product term g^-1 d_a g d_b g^-1 is X^T because every factor is symmetric.
    """
    X = dinv[:, None] @ dg[:, :, None] @ inv[:, None, None]
    ddinv = inv[:, None, None] @ ddg @ inv[:, None, None]
    ddinv += X
    ddinv += X.swapaxes(-1, -2)
    ddinv *= -1.0
    return ddinv


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


def metric_apparatus(spec: MetricSpec, coords, level: int = 2) -> MetricApparatus:
    """Evaluate metric data at coordinate rows; level 2 adds curvature."""
    coords = as_coords(coords)
    g, dg, ddg = spec.component_jets(coords)
    N, n = g.shape[:2]
    inv = np.linalg.inv(g)
    dinv = inv[:, None] @ dg @ inv[:, None]
    dinv *= -1.0
    bracket = _bracket(dg)
    gamma = _christoffel(inv, bracket)
    sqrt_det = np.sqrt(np.linalg.det(g))
    app = MetricApparatus(coords=coords, g=g, dg=dg, inv=inv,
                          dinv=dinv, gamma=gamma, sqrt_det=sqrt_det, level=1)
    if level >= 2:
        # the helpers drop their (N, n^4) temporaries on return, bounding peak memory
        ddinv = _second_inverse_derivative(inv, dinv, dg, ddg)
        # d_a Gamma^k_ij at (N, a, k, i, j)
        dgamma = dinv @ bracket.reshape(N, 1, n, n * n)
        dgamma += inv[:, None] @ _bracket(ddg).reshape(N, n, n, n * n)
        dgamma *= 0.5
        dgamma = dgamma.reshape(N, n, n, n, n)
        riemann = _lowered_riemann(g, gamma, dgamma)
        ricci = np.einsum("pki,pkjli->pjl", inv, riemann)
        app.ddg, app.ddinv, app.dgamma = ddg, ddinv, dgamma
        app.riemann, app.ricci, app.scalar = riemann, ricci, app.trace(ricci)
        app.level = 2
    return app


def riemann_symmetry_defects(riemann: np.ndarray) -> tuple:
    """Max violations of first-pair/last-pair antisymmetry and first Bianchi."""
    anti_first = float(np.abs(riemann + np.einsum("pjkli->pkjli", riemann)).max())
    anti_last = float(np.abs(riemann + np.einsum("pkjil->pkjli", riemann)).max())
    cyc2 = np.einsum("pjlki->pkjli", riemann)
    cyc3 = np.einsum("plkji->pkjli", riemann)
    bianchi = float(np.abs(riemann + cyc2 + cyc3).max())
    return anti_first, anti_last, bianchi


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


def divergence_of_oneform(app: MetricApparatus, omega, domega) -> np.ndarray:
    """div(omega) = g^{ab} (d_a omega_b - Gamma^c_ab omega_c)."""
    cov = domega - np.einsum("pcab,pc->pab", app.gamma, omega)
    return app.trace(cov)
