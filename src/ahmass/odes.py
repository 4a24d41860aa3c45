"""Second-order ODE engine: growth/decay pairs, certificates, forced solutions.

Problems have the normal form u'' = P u' + (1 + Q) u + f on [0, T] with
decaying coefficients.  The solution space is spanned by a growing branch
(comparable to e^t) and a decaying branch (comparable to e^(-t)); the grid
certificate C is the smallest constant for which the two-sided exponential
bounds and the Wronskian bound W <= -2/C^2 hold on the sample grid.  The
forward solver integrates the unforced equation only; forced solutions come
from variation of parameters against the fundamental pair.

The decaying branch is constructed by exhaustion over two-point problems
u_j(0) = 1, u_j(j) = 0 for j = ceil(T) + 2, ceil(T) + 4, ..., up to 40.  Each
two-point solution is a backward integration from (u, u') = (0, -1) at t = j,
normalized at t = 0: that is the numerically stable evaluation of the solution
a shooting iteration would converge to, since forward shooting loses all
accuracy once e^(2t) exceeds 1/eps, long before the horizons used here.  The
whole ladder is one batched DOP853 solve: with t = j tau every rung runs tau
from 1 to 0, its right-hand side scaled by j, and P and Q are evaluated once
per stage for all rungs.  DOP853 takes its error norm (a root mean square)
over the whole batched state, so a rung's steps are those its neighbours
need too.  One dense evaluation at the concatenated t / j gives every rung on
the report grid; the convergence test, and the chosen rung's values and
derivatives, read those.  Only the chosen rung becomes an ``ODESolution``,
which reads the same dense output at t / j.

Each branch is evaluated on the report grid once, value and derivative
together: the growing branch by one interpolant call (``ODESolution.at``),
the decaying branch by the ladder's grid evaluation.  The fundamental pair
keeps those values for the certificate, the forced remainder and the CLI
rows.  The variation-of-parameters integrals are a panel quadrature on the
same grid: an 8-node Gauss-Legendre rule on every grid cell, one vectorised
evaluation per branch at all nodes, a forward cumulative sum for alpha_2 and
reverse cumulative sums from the horizon for the tail integrals tau_1 and
tau_2.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.integrate import solve_ivp

from .decay import fit_log_slope
from .fields import SchemaError

DEFAULT_RTOL = 1e-12
DEFAULT_ATOL = 1e-14
GRID_STEP = 0.01            # spacing of the report grid on [0, T]


def _as_callable(c):
    """A coefficient function of t; None is the zero coefficient."""
    if c is None:
        return lambda t: np.zeros_like(np.asarray(t, dtype=float))
    return c


@dataclass
class ODEProblem:
    """Coefficients of u'' = P u' + (1 + Q) u + f with claimed decay bounds."""

    p: object = None
    q: object = None
    f: object = None
    horizon: float = 25.0
    bounds: tuple = None        # (C_0, d) with |P|,|Q|,|f| <= C_0 e^(-d t)

    def __post_init__(self):
        self.p = _as_callable(self.p)
        self.q = _as_callable(self.q)
        self.f = _as_callable(self.f)

    def grid(self):
        return np.arange(0.0, self.horizon + 0.5 * GRID_STEP, GRID_STEP)

    def forced(self, t) -> bool:
        """Whether f is nonzero somewhere on the sample points t."""
        return not np.all(np.abs(np.asarray(self.f(t))) < 1e-290)

    def fit_window(self):
        """Mask of the remainder fit window 2 <= t <= min(T - 2, 18) on the grid."""
        T = self.horizon
        t = self.grid()
        window = (t >= 2.0) & (t <= min(T - 2.0, 18.0))
        if np.count_nonzero(window) < 3:
            raise SchemaError(f"horizon T = {T:g} leaves fewer than 3 samples in the "
                              f"remainder fit window 2 <= t <= T - 2; it must be at "
                              f"least {4.0 + 3 * GRID_STEP:g}")
        return window

    def validate(self):
        """Check 1 + Q > 0, any claimed coefficient bounds and, when forced,
        the remainder fit window on the grid."""
        t = self.grid()
        one_q = 1.0 + np.asarray(self.q(t))
        if np.any(one_q <= 0):
            raise SchemaError("hypothesis 1 + Q > 0 fails on the sample grid")
        if self.bounds is not None:
            c0, d = self.bounds
            env = c0 * np.exp(-d * t) + 1e-12
            for name, fn in (("P", self.p), ("Q", self.q), ("f", self.f)):
                vals = np.abs(np.asarray(fn(t)))
                if np.any(vals > env):
                    raise SchemaError(f"claimed bound |{name}| <= C_0 e^(-d t) "
                                     f"fails on the sample grid")
        if self.forced(t):
            self.fit_window()
        return True


@dataclass
class ODESolution:
    """Dense solution with derivative access."""

    sol: object

    def at(self, t):
        """(u(t), u'(t)) from one dense evaluation."""
        u, du = self.sol(np.asarray(t, dtype=float))
        return u, du


def solve_second_order(prob: ODEProblem, u0: float, du0: float) -> ODESolution:
    """Adaptive high-order solve of the unforced u'' = P u' + (1 + Q) u on [0, T].

    The solution is linear in (u0, du0), so it is solved for the data divided
    by the larger of the two and scaled back: the accuracy asked for does not
    depend on the size of the data, and data near the underflow range (du0 ~
    1e-161, or subnormal, where a scaled absolute tolerance underflows to 0)
    does not drive the solver's error norm to 0 / 0.
    """
    def rhs(t, y):
        return [y[1], prob.p(t) * y[1] + (1.0 + prob.q(t)) * y[0]]

    scale = max(abs(u0), abs(du0)) or 1.0
    out = solve_ivp(rhs, (0.0, prob.horizon), [u0 / scale, du0 / scale],
                    method="DOP853", rtol=DEFAULT_RTOL, atol=DEFAULT_ATOL,
                    dense_output=True)
    if not out.success:
        raise ArithmeticError(f"integration failed: {out.message}")
    return ODESolution(sol=lambda t: scale * out.sol(t))


def _backward_ladder(prob: ODEProblem, js: np.ndarray, rtol: float):
    """Dense output of one backward solve of every two-point problem.

    The state holds (u_k, u_k') of rung k at indices 2k, 2k + 1 as functions
    of tau = t / j_k, integrated from (0, -1) at tau = 1 to tau = 0.
    """
    def rhs(tau, y):
        t = js * tau
        u, du = y[0::2], y[1::2]
        out = np.empty_like(y)
        out[0::2] = js * du
        out[1::2] = js * (prob.p(t) * du + (1.0 + prob.q(t)) * u)
        return out

    out = solve_ivp(rhs, (1.0, 0.0), np.tile([0.0, -1.0], js.size), method="DOP853",
                    rtol=rtol, atol=1e-30, first_step=1e-3 / js.max(),
                    dense_output=True)
    if not out.success:
        raise ArithmeticError(f"backward integration failed: {out.message}")
    return out.sol


@dataclass
class DecayingSolution:
    solution: ODESolution
    j_used: float
    sup_diffs: list
    positive: bool
    decreasing: bool
    on_grid: np.ndarray         # rows u, u' of the solution at the grid points


def build_decaying_solution(prob: ODEProblem,
                            rtol: float = DEFAULT_RTOL) -> DecayingSolution:
    """Exhaustion limit of two-point solutions: positive and decreasing.

    Solves the two-point problems at j = ceil(T) + 2, ceil(T) + 4, ..., 40 in
    one backward DOP853 solve, whose error norm is taken over the whole
    batched state, and evaluates every rung on the reporting grid with one
    dense call.  The limit is the first rung that differs from the one
    before by less than 1e-10 on the grid, measured against the e^(-t)
    envelope (plain sup would declare convergence while the far end of the
    grid is still off by a relative factor); fails if no rung up to j = 40
    does.
    """
    t = prob.grid()
    js = np.arange(np.ceil(prob.horizon) + 2.0, 40.0 + 1e-9, 2.0)
    if js.size < 2:
        raise ArithmeticError("exhaustion did not settle below 1e-10 by j = 40.0")
    dense = _backward_ladder(prob, js, rtol)
    K, N = js.size, t.size
    raw = dense(np.concatenate([t / j for j in js])).reshape(K, 2, K, N)
    grid = raw[np.arange(K), :, np.arange(K)]           # (K, 2, N): u_k, u_k'
    scales = grid[:, 0, 0]                              # u_k(0), as t[0] = 0
    if np.any(scales <= 0):
        raise ArithmeticError("two-point solution fails positivity at t = 0")
    grid = grid / scales[:, None, None]
    envelope = np.exp(-t)
    diffs = []
    for k in range(1, K):
        diffs.append(float(np.max(np.abs(grid[k, 0] - grid[k - 1, 0]) / envelope)))
        if diffs[-1] < 1e-10:
            break
    else:
        raise ArithmeticError("exhaustion did not settle below 1e-10 by j = 40.0")
    vals, dvals = grid[k]
    j, scale = js[k], scales[k]
    solution = ODESolution(sol=lambda s: dense(s / j)[2 * k: 2 * k + 2] / scale)
    return DecayingSolution(solution=solution, j_used=float(j), sup_diffs=diffs,
                            positive=bool(np.all(vals > 0)),
                            decreasing=bool(np.all(dvals < 0)), on_grid=grid[k])


@dataclass
class FundamentalPair:
    """Growing and decaying branches with the grid certificate for the bounds."""

    u1: ODESolution
    u2: ODESolution
    grid: np.ndarray
    on_grid: np.ndarray         # rows u1, u1', u2, u2' at the grid points
    C_certificate: float
    wronskian: np.ndarray
    flags: tuple = ()

    def wronskian_bound_ok(self) -> bool:
        return bool(np.all(self.wronskian <= -2.0 / self.C_certificate ** 2 + 1e-12))


def fundamental_pair(prob: ODEProblem) -> FundamentalPair:
    """Growing branch from an IVP, decaying branch from the exhaustion.

    The certificate is the smallest grid constant C satisfying all four
    two-sided bounds and the Wronskian inequality simultaneously.
    """
    prob.validate()
    u1 = solve_second_order(prob, 1.0, 1.0)
    dec = build_decaying_solution(prob)
    u2 = dec.solution
    t = prob.grid()
    e_plus, e_minus = np.exp(t), np.exp(-t)
    v1, d1 = u1.at(t)
    v2, d2 = dec.on_grid
    wr = v1 * d2 - v2 * d1
    flags = []
    if np.any(v1 <= 0) or np.any(d1 <= 0) or np.any(v2 <= 0) or np.any(-d2 <= 0):
        flags.append("sign-violation")
        C = np.inf
    elif np.any(wr >= 0):
        flags.append("wronskian-sign-violation")
        C = np.inf
    else:
        C = max(np.max(v1 / e_plus), np.max(e_plus / v1),
                np.max(d1 / e_plus), np.max(e_plus / d1),
                np.max(v2 / e_minus), np.max(e_minus / v2),
                np.max(-d2 / e_minus), np.max(e_minus / -d2),
                np.max(np.sqrt(2.0 / -wr)))
    return FundamentalPair(u1=u1, u2=u2, grid=t, on_grid=np.array([v1, d1, v2, d2]),
                           C_certificate=float(C), wronskian=wr, flags=tuple(flags))


@dataclass
class ParticularReport:
    """Variation-of-parameters data and the decay of the forced remainder."""

    c1: float
    c2: float
    grid: np.ndarray
    remainder: np.ndarray
    fitted_decay: float | None
    profile_residual: float | None
    claimed_d: float

    def to_dict(self):
        return {"c1": self.c1, "c2": self.c2, "claimed_d": self.claimed_d,
                "fitted_decay": self.fitted_decay,
                "profile_residual": self.profile_residual}


# Gauss-Legendre nodes and weights on [-1, 1] for the panel quadrature
GAUSS_NODES, GAUSS_WEIGHTS = np.polynomial.legendre.leggauss(8)


def particular_solution(prob: ODEProblem, pair: FundamentalPair) -> ParticularReport:
    """Variation of parameters against the fundamental pair of ``prob``.

    The integrands u_i f / W are integrated by an 8-node Gauss-Legendre rule
    on every cell of the pair's grid, plus the cell from the last grid point
    to the horizon T; each branch is evaluated once at all nodes.  alpha_2 =
    int_0^t u1 f / W is a forward cumulative sum of the cell integrals, and
    the tail integrals tau_1 = int_t^T u2 f / W, tau_2 = int_t^T u1 f / W are
    reverse cumulative sums from the horizon.  The remainder
    u_p - (c_1 u_1 + c_2 u_2) is assembled from the tails, which avoids the
    catastrophic cancellation of subtracting two e^t-sized quantities; its
    decay is fitted and compared with the forcing class: exponent d for
    d != 1, the t e^(-t) profile at the resonant rate d = 1.
    """
    T = prob.horizon
    if prob.bounds is None:
        raise ValueError("particular_solution needs claimed bounds (C_0, d)")
    d_claim = float(prob.bounds[1])
    t = pair.grid

    if not prob.forced(t):
        zeros = np.zeros_like(t)
        return ParticularReport(c1=0.0, c2=0.0, grid=t, remainder=zeros,
                                fitted_decay=np.inf, profile_residual=0.0,
                                claimed_d=d_claim)
    window = prob.fit_window()

    edges = np.append(t, T)
    half = 0.5 * np.diff(edges)[:, None]
    s = (0.5 * (edges[:-1] + edges[1:])[:, None] + half * GAUSS_NODES).ravel()
    v1, d1 = pair.u1.at(s)
    v2, d2 = pair.u2.at(s)
    weighted = (half * GAUSS_WEIGHTS).ravel() * np.asarray(prob.f(s)) / (v1 * d2 - v2 * d1)
    cell1 = (v1 * weighted).reshape(half.size, -1).sum(axis=1)   # cells of u1 f / W
    cell2 = (v2 * weighted).reshape(half.size, -1).sum(axis=1)   # cells of u2 f / W
    alpha2 = np.cumsum(cell1)                   # alpha_2 at the cells' right ends
    tau1 = np.cumsum(cell2[::-1])[::-1]         # tails from the cells' left ends
    tau2 = np.cumsum(cell1[::-1])[::-1]
    c1 = float(-tau1[0])                        # alpha_1(T) = -int_0^T u2 f / W
    u1_t, _, u2_t, _ = pair.on_grid
    if d_claim > 1.0:
        c2 = float(alpha2[-1])
        remainder = tau1 * u1_t - tau2 * u2_t
    else:
        c2 = 0.0
        remainder = tau1 * u1_t + np.append(0.0, alpha2[:-1]) * u2_t

    rem_w = np.abs(remainder[window])
    t_w = t[window]
    if d_claim == 1.0:
        model = t_w * np.exp(-t_w)
        log_gap = np.log(np.maximum(rem_w, 1e-300)) - np.log(model)
        resid = float(np.sqrt(np.mean((log_gap - np.mean(log_gap)) ** 2)))
        return ParticularReport(c1=c1, c2=c2, grid=t, remainder=remainder,
                                fitted_decay=None, profile_residual=resid,
                                claimed_d=d_claim)
    # exponential fit in t: remainder ~ e^(slope * t)
    slope = fit_log_slope(t_w, rem_w)
    return ParticularReport(c1=c1, c2=c2, grid=t, remainder=remainder,
                            fitted_decay=-slope, profile_residual=None,
                            claimed_d=d_claim)
