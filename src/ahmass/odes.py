"""Second-order ODE engine: growth/decay pairs, certificates, forced solutions.

Problems have the normal form u'' = P u' + (1 + Q) u + f on [0, T] with
decaying coefficients.  The solution space is spanned by a growing branch
(comparable to e^t) and a decaying branch (comparable to e^(-t)); the grid
certificate C is the smallest constant for which the two-sided exponential
bounds and the Wronskian bound W <= -2/C^2 hold on the sample grid.

The decaying branch is constructed by exhaustion over two-point problems
u_j(0) = 1, u_j(j) = 0 for increasing j.  Each two-point solution is computed
by a single backward integration from t = j (then normalized), which is the
numerically stable evaluation of the same solution a shooting iteration would
converge to: forward shooting loses all accuracy once e^(2t) exceeds 1/eps,
long before the horizons used here.

Every consumer of a dense branch reads the value and the derivative from one
interpolant evaluation (``ODESolution.at``): the variation-of-parameters
integrands evaluate each branch once per quadrature point, and the
certificate, the exhaustion check and the CLI rows once per grid.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.integrate import solve_ivp

DEFAULT_RTOL = 1e-12
DEFAULT_ATOL = 1e-14


def _as_callable(c):
    if c is None:
        return lambda t: np.zeros_like(np.asarray(t, dtype=float))
    if np.isscalar(c):
        return lambda t: np.full_like(np.asarray(t, dtype=float), float(c))
    return c


@dataclass
class ODEProblem:
    """Coefficients of u'' = P u' + (1 + Q) u + f with claimed decay bounds."""

    p: object = None
    q: object = None
    f: object = None
    horizon: float = 25.0
    bounds: tuple = None        # (C_0, d) with |P|,|Q|,|f| <= C_0 e^(-d t)
    grid_step: float = 0.01

    def __post_init__(self):
        self.p = _as_callable(self.p)
        self.q = _as_callable(self.q)
        self.f = _as_callable(self.f)

    def grid(self, T=None):
        T = self.horizon if T is None else T
        return np.arange(0.0, T + 0.5 * self.grid_step, self.grid_step)

    def validate(self, T=None):
        """Check 1 + Q > 0 and any claimed coefficient bounds on the grid."""
        t = self.grid(T)
        one_q = 1.0 + np.asarray(self.q(t))
        if np.any(one_q <= 0):
            raise ValueError("hypothesis 1 + Q > 0 fails on the sample grid")
        if self.bounds is not None:
            c0, d = self.bounds
            env = c0 * np.exp(-d * t) + 1e-12
            for name, fn in (("P", self.p), ("Q", self.q), ("f", self.f)):
                vals = np.abs(np.asarray(fn(t)))
                if np.any(vals > env):
                    raise ValueError(f"claimed bound |{name}| <= C_0 e^(-d t) "
                                     f"fails on the sample grid")
        return True


@dataclass
class ODESolution:
    """Dense solution with derivative access."""

    sol: object
    t_span: tuple

    def at(self, t):
        """(u(t), u'(t)) from one dense evaluation."""
        u, du = self.sol(np.asarray(t, dtype=float))
        return u, du

    def value(self, t):
        return self.sol(np.asarray(t, dtype=float))[0]

    def d1(self, t):
        return self.sol(np.asarray(t, dtype=float))[1]


def solve_second_order(prob: ODEProblem, u0: float, du0: float, T=None,
                       homogeneous: bool = False) -> ODESolution:
    """Adaptive high-order integration of the problem from t = 0."""
    T = prob.horizon if T is None else T

    def rhs(t, y):
        forcing = 0.0 if homogeneous else prob.f(t)
        return [y[1], prob.p(t) * y[1] + (1.0 + prob.q(t)) * y[0] + forcing]

    out = solve_ivp(rhs, (0.0, T), [u0, du0], method="DOP853", rtol=DEFAULT_RTOL,
                    atol=DEFAULT_ATOL, dense_output=True)
    if not out.success:
        raise ArithmeticError(f"integration failed: {out.message}")
    return ODESolution(sol=out.sol, t_span=(0.0, T))


def two_point_solution(prob: ODEProblem, j: float, rtol: float = DEFAULT_RTOL) -> ODESolution:
    """The homogeneous solution with u(0) = 1, u(j) = 0 on [0, j].

    Computed by backward integration from (u, u') = (0, -1) at t = j followed
    by normalization at t = 0; backward integration keeps the forward-decaying
    branch dominant, so the evaluation is stable for large j.
    """
    def rhs(t, y):
        return [y[1], prob.p(t) * y[1] + (1.0 + prob.q(t)) * y[0]]

    out = solve_ivp(rhs, (float(j), 0.0), [0.0, -1.0], method="DOP853",
                    rtol=rtol, atol=1e-30, first_step=1e-3, dense_output=True)
    if not out.success:
        raise ArithmeticError(f"backward integration failed: {out.message}")
    scale = out.sol(0.0)[0]
    if scale <= 0:
        raise ArithmeticError("two-point solution fails positivity at t = 0")
    dense = out.sol

    class _Scaled:
        def __call__(self, t):
            return dense(t) / scale

    return ODESolution(sol=_Scaled(), t_span=(0.0, float(j)))


@dataclass
class DecayingSolution:
    solution: ODESolution
    j_used: float
    sup_diffs: list
    positive: bool
    decreasing: bool


def build_decaying_solution(prob: ODEProblem, T=None,
                            rtol: float = DEFAULT_RTOL) -> DecayingSolution:
    """Exhaustion limit of two-point solutions: positive and decreasing.

    Takes two-point solutions at j = ceil(T) + 2, ceil(T) + 4, ... and stops
    when successive ones differ by less than 1e-10 on the reporting grid,
    measured against the e^(-t) envelope (plain sup would declare convergence
    while the far end of the grid is still off by a relative factor); fails
    if that does not happen by j = 40.
    """
    T = prob.horizon if T is None else T
    t = prob.grid(T)
    envelope = np.exp(-t)
    j = float(np.ceil(T) + 2.0)
    prev = None
    diffs = []
    current = None
    while j <= 40.0 + 1e-9:
        current = two_point_solution(prob, j, rtol=rtol)
        vals = current.value(np.minimum(t, current.t_span[1] - 1e-12))
        if prev is not None:
            diffs.append(float(np.max(np.abs(vals - prev) / envelope)))
            if diffs[-1] < 1e-10:
                break
        prev = vals
        j += 2.0
    else:
        raise ArithmeticError("exhaustion did not settle below 1e-10 by j = 40.0")
    vals, dvals = current.at(t)
    return DecayingSolution(solution=current, j_used=j, sup_diffs=diffs,
                            positive=bool(np.all(vals > 0)),
                            decreasing=bool(np.all(dvals < 0)))


@dataclass
class FundamentalPair:
    """Growing and decaying branches with the grid certificate for the bounds."""

    u1: ODESolution
    u2: ODESolution
    grid: np.ndarray
    C_certificate: float
    wronskian: np.ndarray
    flags: tuple = ()

    def wronskian_bound_ok(self) -> bool:
        return bool(np.all(self.wronskian <= -2.0 / self.C_certificate ** 2 + 1e-12))


def fundamental_pair(prob: ODEProblem, T=None) -> FundamentalPair:
    """Growing branch from an IVP, decaying branch from the exhaustion.

    The certificate is the smallest grid constant C satisfying all four
    two-sided bounds and the Wronskian inequality simultaneously.
    """
    T = prob.horizon if T is None else T
    prob.validate(T)
    u1 = solve_second_order(prob, 1.0, 1.0, T=T, homogeneous=True)
    dec = build_decaying_solution(prob, T=T)
    u2 = dec.solution
    t = prob.grid(T)
    e_plus, e_minus = np.exp(t), np.exp(-t)
    v1, d1 = u1.at(t)
    v2, d2 = u2.at(t)
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
    return FundamentalPair(u1=u1, u2=u2, grid=t, C_certificate=float(C),
                           wronskian=wr, flags=tuple(flags))


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


def particular_solution(prob: ODEProblem, pair: FundamentalPair = None) -> ParticularReport:
    """Variation of parameters against the fundamental pair.

    The remainder u_p - (c_1 u_1 + c_2 u_2) is assembled from tail integrals
    integrated backward from the horizon, which avoids the catastrophic
    cancellation of subtracting two e^t-sized quantities; its decay is fitted
    and compared with the forcing class: exponent d for d != 1, the t e^(-t)
    profile at the resonant rate d = 1.
    """
    T = prob.horizon
    if pair is None:
        pair = fundamental_pair(prob)
    if prob.bounds is None:
        raise ValueError("particular_solution needs claimed bounds (C_0, d)")
    d_claim = float(prob.bounds[1])
    t = pair.grid

    f_vals = np.asarray(prob.f(t))
    if np.all(np.abs(f_vals) < 1e-290):
        zeros = np.zeros_like(t)
        return ParticularReport(c1=0.0, c2=0.0, grid=t, remainder=zeros,
                                fitted_decay=np.inf, profile_residual=0.0,
                                claimed_d=d_claim)

    window = (t >= 2.0) & (t <= min(T - 2.0, 18.0))
    if np.count_nonzero(window) < 3:
        raise ValueError(f"horizon T = {T:g} leaves fewer than 3 samples in the remainder "
                         f"fit window 2 <= t <= T - 2; it must be at least "
                         f"{4.0 + 3 * prob.grid_step:g}")

    def terms(s):
        """u1(s), u2(s), f(s) and the Wronskian W(s): one dense call per branch."""
        v1, d1 = pair.u1.at(s)
        v2, d2 = pair.u2.at(s)
        return v1, v2, prob.f(s), v1 * d2 - v2 * d1

    def forward(s, y):
        v1, _, f, W = terms(s)
        return [v1 * f / W]

    def backward(s, y):
        v1, v2, f, W = terms(s)
        return [-v2 * f / W, -v1 * f / W]

    # alpha_2(t) = int_0^t u1 f / W, forward
    fwd = solve_ivp(forward, (0.0, T), [0.0],
                    method="DOP853", rtol=DEFAULT_RTOL, atol=1e-30,
                    first_step=1e-3, dense_output=True)
    # tail integrals from the horizon: tau1 = int_t^T u2 f / W, tau2 = int_t^T u1 f / W
    back = solve_ivp(backward, (T, 0.0), [0.0, 0.0], method="DOP853",
                     rtol=DEFAULT_RTOL, atol=1e-30, first_step=1e-3,
                     dense_output=True)
    if not (fwd.success and back.success):
        raise ArithmeticError("variation-of-parameters quadrature failed")
    alpha2 = fwd.sol(t)[0]
    tau1 = back.sol(t)[0]
    tau2 = back.sol(t)[1]
    A1 = float(-(tau1[0]))          # alpha_1(T) = -int_0^T u2 f / W
    c1 = A1
    if d_claim > 1.0:
        A2 = float(alpha2[-1])
        c2 = A2
        remainder = tau1 * pair.u1.value(t) - tau2 * pair.u2.value(t)
    else:
        c2 = 0.0
        remainder = tau1 * pair.u1.value(t) + alpha2 * pair.u2.value(t)

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
    slope = float(np.polyfit(t_w, np.log(np.maximum(rem_w, 1e-300)), 1)[0])
    return ParticularReport(c1=c1, c2=c2, grid=t, remainder=remainder,
                            fitted_decay=-slope, profile_residual=None,
                            claimed_d=d_claim)
