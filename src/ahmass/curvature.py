"""Christoffel symbols, curvature tensors, and covariant calculus at chart points.

All functions operate on batches: a MetricApparatus packs the metric, its
inverse, Christoffel symbols, and (at level 2) curvature at N points.  The
covariant derivatives take the field as the ``Jet`` its producer returns
(``V.jet``, ``component_arrays``, ``component_jets``).  The Riemann
convention is

    R_kjli = g( D_k D_j e_l - D_j D_k e_l , e_i )

so that for orthonormal X, Y the sectional curvature is K(X ^ Y) = R(X,Y,Y,X),
equal to -1 on the hyperbolic background.
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
        return np.einsum("pia,pjb,pij,pab->p", self.inv, self.inv, a, b)


def _christoffel(inv, dg):
    # Gamma^k_ij = 1/2 g^{kl} (d_i g_lj + d_j g_li - d_l g_ij)
    bracket = (np.einsum("pilj->plij", dg) + np.einsum("pjli->plij", dg)
               - np.einsum("plij->plij", dg))
    return 0.5 * np.einsum("pkl,plij->pkij", inv, bracket)


def metric_apparatus(spec: MetricSpec, coords, level: int = 2) -> MetricApparatus:
    """Evaluate metric data at coordinate rows; level 2 adds curvature."""
    coords = as_coords(coords)
    g, dg, ddg = spec.component_jets(coords)
    inv = np.linalg.inv(g)
    dinv = -np.einsum("pim,pamn,pnj->paij", inv, dg, inv)
    gamma = _christoffel(inv, dg)
    sqrt_det = np.sqrt(np.linalg.det(g))
    app = MetricApparatus(coords=coords, g=g, dg=dg, inv=inv,
                          dinv=dinv, gamma=gamma, sqrt_det=sqrt_det, level=1)
    if level >= 2:
        ddinv = -(np.einsum("pbim,pamn,pnj->pabij", dinv, dg, inv)
                  + np.einsum("pim,pabmn,pnj->pabij", inv, ddg, inv)
                  + np.einsum("pim,pamn,pbnj->pabij", inv, dg, dinv))
        # d_a Gamma^k_ij
        bracket = (np.einsum("pilj->plij", dg) + np.einsum("pjli->plij", dg)
                   - dg)
        dbracket = (np.einsum("pailj->palij", ddg) + np.einsum("pajli->palij", ddg)
                    - ddg)
        dgamma = 0.5 * (np.einsum("pakl,plij->pakij", dinv, bracket)
                        + np.einsum("pkl,palij->pakij", inv, dbracket))
        # R^m_kjl = d_k Gamma^m_jl - d_j Gamma^m_kl + G^m_kp G^p_jl - G^m_jp G^p_kl
        rm = (np.einsum("pkmjl->pkjlm", dgamma) - np.einsum("pjmkl->pkjlm", dgamma)
              + np.einsum("pmkq,pqjl->pkjlm", gamma, gamma)
              - np.einsum("pmjq,pqkl->pkjlm", gamma, gamma))
        riemann = np.einsum("pkjlm,pmi->pkjli", rm, g)
        ricci = np.einsum("pki,pkjli->pjl", inv, riemann)
        scalar = np.einsum("pjl,pjl->p", inv, ricci)
        app.ddg, app.ddinv, app.dgamma = ddg, ddinv, dgamma
        app.riemann, app.ricci, app.scalar = riemann, ricci, scalar
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


@dataclass
class CurvaturePack:
    """Curvature quantities of one metric at one chart point."""

    point: np.ndarray
    christoffel: np.ndarray
    riemann: np.ndarray
    ricci: np.ndarray
    scalar: float


def curvature_at(spec: MetricSpec, point) -> CurvaturePack:
    coords = as_coords(point)
    if coords.shape[0] != 1:
        raise ValueError("curvature_at takes a single point; use metric_apparatus for batches")
    app = metric_apparatus(spec, coords, level=2)
    return CurvaturePack(point=coords[0], christoffel=app.gamma[0],
                         riemann=app.riemann[0], ricci=app.ricci[0],
                         scalar=float(app.scalar[0]))


# -- covariant calculus of scalar fields --------------------------------------

def covariant_hessian(app: MetricApparatus, jet: J.Jet) -> np.ndarray:
    """Hessian_ij = d_i d_j V - Gamma^k_ij d_k V for a scalar jet of V."""
    return jet.hess - np.einsum("pkij,pk->pij", app.gamma, jet.grad)


def hessian(spec: MetricSpec, V, point) -> np.ndarray:
    """Covariant Hessian of a scalar field at points (field supplies jets)."""
    coords = as_coords(point)
    app = metric_apparatus(spec, coords, level=1)
    return covariant_hessian(app, V.jet(coords))


def laplacian(spec: MetricSpec, V, point) -> np.ndarray:
    coords = as_coords(point)
    app = metric_apparatus(spec, coords, level=1)
    return np.einsum("pij,pij->p", app.inv, covariant_hessian(app, V.jet(coords)))


# -- covariant calculus of symmetric 2-tensor fields ---------------------------

def nabla_2tensor(gamma, h, dh) -> np.ndarray:
    """First covariant derivative (N, a, i, j) of a symmetric 2-tensor."""
    return (dh - np.einsum("pcai,pcj->paij", gamma, h)
            - np.einsum("pcaj,pic->paij", gamma, h))


def nabla2_2tensor(app: MetricApparatus, jet: J.Jet) -> np.ndarray:
    """Second covariant derivative (N, a, b, i, j) of a symmetric 2-tensor jet.

    Needs a level-2 apparatus.
    """
    h, dh, ddh = jet
    T = nabla_2tensor(app.gamma, h, dh)
    # d_a T_bij from chart derivatives of the Christoffel contraction
    dT = (ddh
          - np.einsum("pacbi,pcj->pabij", app.dgamma, h)
          - np.einsum("pcbi,pacj->pabij", app.gamma, dh)
          - np.einsum("pacbj,pic->pabij", app.dgamma, h)
          - np.einsum("pcbj,paic->pabij", app.gamma, dh))
    return (dT - np.einsum("pcab,pcij->pabij", app.gamma, T)
            - np.einsum("pcai,pbcj->pabij", app.gamma, T)
            - np.einsum("pcaj,pbic->pabij", app.gamma, T))


def divergence(spec: MetricSpec, T, point) -> np.ndarray:
    """(div T)_j = g^{ik} (nabla_i T)_kj for a symmetric 2-tensor field."""
    coords = as_coords(point)
    app = metric_apparatus(spec, coords, level=1)
    h, dh, _ = T.component_arrays(coords)
    nT = nabla_2tensor(app.gamma, h, dh)
    return np.einsum("pik,pikj->pj", app.inv, nT)


def trace(spec: MetricSpec, T, point) -> np.ndarray:
    coords = as_coords(point)
    app = metric_apparatus(spec, coords, level=1)
    h, _, _ = T.component_arrays(coords)
    return np.einsum("pij,pij->p", app.inv, h)


def divergence_of_oneform(app: MetricApparatus, omega, domega) -> np.ndarray:
    """div(omega) = g^{ab} (d_a omega_b - Gamma^c_ab omega_c)."""
    cov = domega - np.einsum("pcab,pc->pab", app.gamma, omega)
    return np.einsum("pab,pab->p", app.inv, cov)
