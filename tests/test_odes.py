"""Growth/decay structure of the second-order ODE class."""

import numpy as np
import pytest
from scipy.integrate import solve_ivp
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ahmass.fields import SchemaError
from ahmass.odes import (DEFAULT_RTOL, ODEProblem, ODESolution, _backward_ladder,
                         build_decaying_solution, fundamental_pair,
                         particular_solution, solve_second_order)


def random_problem(rng, horizon=15.0, with_forcing=False):
    """A problem inside the hypothesis class: decaying bounded coefficients."""
    a_p = rng.uniform(-0.5, 0.5)
    a_q = rng.uniform(-0.8, 0.8)
    a_f = rng.uniform(-1.0, 1.0) if with_forcing else 0.0
    d = rng.uniform(0.4, 2.5)
    w_p, w_q = rng.uniform(0.5, 3.0, size=2)
    c0 = max(abs(a_p), abs(a_q), abs(a_f)) + 1e-9
    return ODEProblem(
        p=lambda t: a_p * np.exp(-d * t) * np.cos(w_p * t),
        q=lambda t: a_q * np.exp(-d * t) * np.sin(w_q * t + 0.3),
        f=(lambda t: a_f * np.exp(-d * t)) if with_forcing else None,
        horizon=horizon, bounds=(c0, d))


def ladder_rungs(prob, js):
    """The two-point solutions u(0) = 1, u(j) = 0, one per j: each rung of one
    batched backward solve, read from its dense output at t / j and
    normalized at t = 0."""
    js = np.asarray(js, dtype=float)
    dense = _backward_ladder(prob, js, DEFAULT_RTOL)
    scales = dense(0.0)[0::2]
    return [ODESolution(sol=lambda t, k=k: dense(t / js[k])[2 * k: 2 * k + 2] / scales[k])
            for k in range(js.size)]


def test_exponential_solutions():
    prob = ODEProblem(horizon=20.0)
    t = np.linspace(0.0, 20.0, 80)
    grow = solve_second_order(prob, 1.0, 1.0)
    assert np.abs(grow.at(t)[0] - np.exp(t)).max() / np.exp(20.0) < 1e-9
    assert np.abs((grow.at(t)[0] - np.exp(t)) / np.exp(t)).max() < 1e-9
    decay = solve_second_order(prob, 1.0, -1.0)
    assert np.abs(decay.at(t)[0] - np.exp(-t)).max() < 1e-9


def test_validation_rejects_bad_hypotheses():
    bad = ODEProblem(q=lambda t: -1.5 * np.exp(-0.0 * t), horizon=5.0)
    with pytest.raises(ValueError):
        bad.validate()
    lied = ODEProblem(p=lambda t: np.exp(-0.1 * t), horizon=5.0,
                      bounds=(0.5, 1.0))
    with pytest.raises(ValueError):
        lied.validate()


@settings(max_examples=15, deadline=None)
@given(st.floats(-0.5, 0.5), st.floats(-0.7, 0.7), st.floats(0.5, 2.0),
       st.floats(0.0, 1.5), st.floats(-0.8, 0.8))
# subnormal data: a tolerance scaled to it underflowed to 0, and the solver's
# first error norm was 0 / 0
@example(0.0, 0.0, 1.0, 0.0, 2.225073858507e-311)
def test_comparison_property_hypothesis(a_p, a_q, d, u0, du0):
    prob = ODEProblem(p=lambda t: a_p * np.exp(-d * t),
                      q=lambda t: a_q * np.exp(-d * t),
                      horizon=8.0, bounds=(max(abs(a_p), abs(a_q)) + 1e-9, d))
    hi = solve_second_order(prob, u0 + 0.1, du0 + 0.1)
    lo = solve_second_order(prob, u0, du0)
    t = np.linspace(0.05, 8.0, 60)
    assert np.all(hi.at(t)[0] > lo.at(t)[0])
    assert np.all(hi.at(t)[1] > lo.at(t)[1])


def test_homogeneous_solution_of_data_near_underflow():
    # found by the property test above: at du0 ~ 1e-161 an absolute
    # tolerance of 1e-14 drove DOP853's error norm to 0 / 0
    prob = ODEProblem(p=lambda t: 0.0 * t, q=lambda t: 0.0 * t, horizon=8.0,
                      bounds=(1e-9, 1.0))
    du0 = 2.2025024910398255e-161
    tiny = solve_second_order(prob, 0.0, du0)
    unit = solve_second_order(prob, 0.0, 1.0)
    t = np.linspace(0.05, 8.0, 60)
    assert np.allclose(tiny.at(t)[0] / du0, unit.at(t)[0], rtol=1e-10, atol=0.0)


def test_comparison_property(rng):
    # u(0) >= v(0), u'(0) >= v'(0), not identical  =>  u > v and u' > v'
    for _ in range(20):
        prob = random_problem(rng, horizon=10.0)
        u0, du0 = rng.uniform(0.2, 2.0), rng.uniform(-0.5, 1.0)
        u = solve_second_order(prob, u0, du0)
        v = solve_second_order(prob, u0 - rng.uniform(0.01, 0.2),
                               du0 - rng.uniform(0.01, 0.2))
        t = np.linspace(0.05, 10.0, 120)
        assert np.all(u.at(t)[0] > v.at(t)[0])
        assert np.all(u.at(t)[1] > v.at(t)[1])


def test_at_most_one_zero(rng):
    for _ in range(30):
        prob = random_problem(rng, horizon=12.0)
        u = solve_second_order(prob, rng.uniform(-1, 1), rng.uniform(-1, 1))
        vals = u.at(np.linspace(0.0, 12.0, 2000))[0]
        if np.abs(vals).max() == 0.0:
            continue
        signs = np.sign(vals[np.abs(vals) > 1e-13])
        flips = np.count_nonzero(np.diff(signs) != 0)
        assert flips <= 1


def test_decaying_solution_trivial():
    dec = build_decaying_solution(ODEProblem(horizon=25.0))
    t = np.linspace(0, 25, 200)
    assert np.abs(dec.solution.at(t)[0] - np.exp(-t)).max() < 1e-8
    assert dec.positive and dec.decreasing


def test_decaying_solution_perturbed(rng):
    prob = ODEProblem(q=lambda t: np.exp(-2.0 * t), horizon=20.0,
                      bounds=(1.0, 2.0))
    dec = build_decaying_solution(prob)
    t = np.linspace(0, 20, 400)
    vals = dec.solution.at(t)[0]
    assert dec.positive and dec.decreasing
    # bounded by C e^{-t} with a finite certificate
    C = np.max(np.maximum(vals * np.exp(t), np.exp(-t) / vals))
    assert np.isfinite(C) and C < 10.0
    # cross-check against an integration at tighter tolerance
    dec2 = build_decaying_solution(prob, rtol=1e-13)
    assert np.abs(dec2.solution.at(t)[0] - vals).max() < 1e-8


def test_exhaustion_monotone():
    # two-point solutions increase with the endpoint on shared domains
    prob = ODEProblem(q=lambda t: 0.5 * np.exp(-t), horizon=10.0,
                      bounds=(0.5, 1.0))
    sols = ladder_rungs(prob, [1, 2, 3, 4, 5, 6])
    for j, (a, b) in enumerate(zip(sols[:-1], sols[1:]), start=1):
        t = np.linspace(0.05, j - 1e-6, 50)
        assert np.all(a.at(t)[0] < b.at(t)[0])


def test_fundamental_pair_trivial():
    pair = fundamental_pair(ODEProblem(horizon=25.0))
    assert abs(pair.C_certificate - 1.0) < 1e-5
    assert pair.wronskian_bound_ok()
    assert np.abs(pair.wronskian + 2.0).max() < 1e-6


def test_fundamental_pair_perturbed_horizon_stable():
    def make(T):
        return ODEProblem(p=lambda t: 0.3 * np.exp(-t),
                          q=lambda t: 0.5 * np.exp(-2 * t),
                          horizon=T, bounds=(0.5, 1.0))

    certs = {T: fundamental_pair(make(T)).C_certificate for T in (10, 15, 20, 25)}
    assert all(np.isfinite(c) for c in certs.values())
    base = certs[10]
    for T in (15, 20, 25):
        assert 0.5 <= certs[T] / base <= 2.0


def test_wronskian_bound_randomized(rng):
    for _ in range(5):
        pair = fundamental_pair(random_problem(rng, horizon=15.0))
        assert pair.wronskian_bound_ok()
        assert np.all(pair.wronskian < 0)


def test_particular_zero_forcing():
    prob = ODEProblem(horizon=20.0, bounds=(1e-9, 1.0))
    rep = particular_solution(prob, fundamental_pair(prob))
    assert rep.c1 == 0.0 and rep.c2 == 0.0
    assert np.abs(rep.remainder).max() == 0.0


def test_particular_oracle_d2():
    # closed form: remainder e^(-2t)/3 with c1 = 1/6, c2 = -1/2
    prob = ODEProblem(f=lambda t: np.exp(-2.0 * t), horizon=25.0,
                      bounds=(1.0, 2.0))
    rep = particular_solution(prob, fundamental_pair(prob))
    assert abs(rep.c1 - 1.0 / 6.0) < 1e-9
    assert abs(rep.c2 + 0.5) < 1e-9
    assert abs(rep.fitted_decay - 2.0) < 0.2
    m = rep.grid < 18.0
    gap = np.abs(rep.remainder - np.exp(-2 * rep.grid) / 3.0)[m]
    assert (gap * np.exp(2 * rep.grid[m])).max() < 1e-2


def test_particular_resonant_profile():
    prob = ODEProblem(f=lambda t: np.exp(-t), horizon=25.0, bounds=(1.0, 1.0))
    rep = particular_solution(prob, fundamental_pair(prob))
    assert rep.profile_residual < 0.05
    assert abs(rep.c1 - 0.25) < 1e-9


def test_particular_slow_decay():
    prob = ODEProblem(f=lambda t: np.exp(-0.5 * t), horizon=25.0,
                      bounds=(1.0, 0.5))
    rep = particular_solution(prob, fundamental_pair(prob))
    assert abs(rep.fitted_decay - 0.5) / 0.5 < 0.1


def test_particular_solution_one_dense_call_per_branch(monkeypatch):
    # the panel quadrature integrates no ODE and evaluates each branch once
    import ahmass.odes as odes
    prob = ODEProblem(p=lambda t: 0.3 * np.exp(-2 * t), q=lambda t: 0.5 * np.exp(-2 * t),
                      f=lambda t: np.exp(-2 * t), horizon=25.0, bounds=(1.0, 2.0))
    pair = fundamental_pair(prob)
    calls = {"u1": 0, "u2": 0}

    def counted(name, sol):
        def call(t):
            calls[name] += 1
            return sol(t)
        return call

    pair.u1.sol, pair.u2.sol = counted("u1", pair.u1.sol), counted("u2", pair.u2.sol)

    def forbidden(*args, **kwargs):
        raise AssertionError("particular_solution called solve_ivp")

    monkeypatch.setattr(odes, "solve_ivp", forbidden)
    particular_solution(prob, pair)
    assert calls["u1"] <= 1 and calls["u2"] <= 1


@pytest.mark.parametrize("d", [0.5, 1.5, 2.0])
def test_particular_finite_horizon_closed_form(d):
    # P = Q = 0, f = e^(-d t): u1 = e^t, u2 = e^(-t), W = -2, and the
    # finite-horizon tails (docs/oracles.md, scripts/derive_oracles.py) are exact
    T = 25.0
    prob = ODEProblem(f=lambda t: np.exp(-d * t), horizon=T, bounds=(1.0, d))
    rep = particular_solution(prob, fundamental_pair(prob))
    t = rep.grid
    tau1 = -(np.exp(-(1 + d) * t) - np.exp(-(1 + d) * T)) / (2 * (1 + d))
    tau2 = -(np.exp((1 - d) * T) - np.exp((1 - d) * t)) / (2 * (1 - d))
    alpha2 = -(np.exp((1 - d) * t) - 1) / (2 * (1 - d))
    if d > 1.0:
        exact = tau1 * np.exp(t) - tau2 * np.exp(-t)
    else:
        exact = tau1 * np.exp(t) + alpha2 * np.exp(-t)
    m = (t >= 2.0) & (t <= 18.0)
    assert np.abs(rep.remainder[m] / exact[m] - 1.0).max() < 1e-10
    c1 = (1.0 - np.exp(-(1 + d) * T)) / (2 * (1 + d))
    assert abs(rep.c1 / c1 - 1.0) < 1e-12


@pytest.mark.parametrize("T", [3.0, 4.0, 4.02])
def test_short_forced_horizon_rejected_before_integration(monkeypatch, T):
    import ahmass.odes as odes

    def forbidden(*args, **kwargs):
        raise AssertionError("solve_ivp called before the fit-window rule")

    monkeypatch.setattr(odes, "solve_ivp", forbidden)
    prob = ODEProblem(f=lambda t: np.exp(-2 * t), horizon=T, bounds=(1.0, 2.0))
    with pytest.raises(SchemaError, match="at least 4.03"):
        fundamental_pair(prob)
    ODEProblem(horizon=T, bounds=(1.0, 2.0)).validate()    # unforced: no window


def _battery_problem(d=2.0, T=25.0):
    return ODEProblem(p=lambda t: 0.3 * np.exp(-d * t), q=lambda t: 0.5 * np.exp(-d * t),
                      f=lambda t: np.exp(-d * t), horizon=T, bounds=(1.0, d))


def _count_solve_ivp(monkeypatch):
    import ahmass.odes as odes
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[1])
        return solve_ivp(*args, **kwargs)

    monkeypatch.setattr(odes, "solve_ivp", counted)
    return calls


def test_exhaustion_ladder_is_one_solve(monkeypatch):
    calls = _count_solve_ivp(monkeypatch)
    dec = build_decaying_solution(_battery_problem())
    assert len(calls) == 1
    assert dec.j_used <= 40.0 and len(dec.sup_diffs) >= 1


def test_fundamental_pair_two_solves_and_no_second_grid_call(monkeypatch):
    # the growing IVP and the ladder; the decaying branch's grid values come
    # from the ladder's one batched evaluation, not from another dense call
    import ahmass.odes as odes
    calls = _count_solve_ivp(monkeypatch)
    dense_calls = []
    ladder = odes._backward_ladder

    def counted_ladder(*args):
        dense = ladder(*args)

        def counted(t):
            dense_calls.append(np.shape(t))
            return dense(t)
        return counted

    monkeypatch.setattr(odes, "_backward_ladder", counted_ladder)
    pair = fundamental_pair(_battery_problem())
    assert len(calls) == 2
    assert len(dense_calls) == 1
    assert np.all(pair.wronskian < 0)


@pytest.mark.parametrize("d", [2.0, 1.0])
def test_ladder_matches_standalone_backward_solves(d):
    # every rung of the batched solve against its own backward DOP853 solve
    # from (0, -1) at t = j, normalized at t = 0
    prob = _battery_problem(d)
    t = prob.grid()
    js = np.arange(27.0, 40.5, 2.0)
    for j, member in zip(js, ladder_rungs(prob, js)):
        def rhs(s, y):
            return [y[1], prob.p(s) * y[1] + (1.0 + prob.q(s)) * y[0]]

        out = solve_ivp(rhs, (j, 0.0), [0.0, -1.0], method="DOP853", rtol=1e-12,
                        atol=1e-30, first_step=1e-3, dense_output=True)
        ref = out.sol(t) / out.sol(0.0)[0]
        u, du = member.at(t)
        assert np.abs(u / ref[0] - 1.0).max() < 1e-10
        assert np.abs(du / ref[1] - 1.0).max() < 1e-10
    dec = build_decaying_solution(prob)
    assert np.allclose(dec.on_grid, dec.solution.at(t), rtol=1e-14, atol=0.0)
