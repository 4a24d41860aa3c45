"""One-time symbolic derivations of the reference values frozen in the tests.

Run with:  python scripts/derive_oracles.py     (needs sympy)

Everything here is independent of the package: plain sympy computations of
closed forms for the static spherically symmetric test family, the flux
integrand, the warped-product fixture, and the forced ODE solutions and their
finite-horizon remainders.  The printed values are recorded in docs/oracles.md
and asserted in tests; the package itself never imports sympy.
"""

import sympy as sp


def static_family_scalar_curvature(n):
    """Scalar curvature of g = dr^2/f + r^2 h_round with f = 1 + r^2 - 2m r^(2-n)."""
    r, m = sp.symbols("r m", positive=True)
    f = 1 + r**2 - 2*m*r**(2 - n)
    # orthonormal-frame sectional curvatures of a warped spherical metric:
    # radial-tangential: -f'/(2r); tangential-tangential: (1 - f)/r^2
    k_rad = -sp.diff(f, r) / (2*r)
    k_tan = (1 - f) / r**2
    # scalar = 2 * sum of sectional curvatures over coordinate planes
    scal = 2 * ((n - 1) * k_rad + sp.Rational((n - 1) * (n - 2), 2) * k_tan)
    return sp.simplify(scal)


def frame_deviation_series(n):
    """(1+r^2) (g_rr - b_rr) expanded at infinity; leading power of 1/r."""
    r, m = sp.symbols("r m", positive=True)
    f = 1 + r**2 - 2*m*r**(2 - n)
    kappa = (1 + r**2) * (1/f - 1/(1 + r**2))
    kappa_simplified = sp.simplify(kappa)
    series = sp.series(kappa.subs(r, 1/sp.Symbol("u", positive=True)),
                       sp.Symbol("u", positive=True), 0, n + 3).removeO()
    return kappa_simplified, sp.expand(series)


def flux_integrand_closed_form(n):
    """Sphere-flux integrand of the static family against V = sqrt(1+r^2).

    With h = g - b purely radial (h_rr only), the potential-gradient and trace
    terms cancel and the integrand reduces to (n-1) * (1+r^2) * kappa / r with
    kappa = (1+r^2) h_rr; multiplying by the sphere area r^(n-1) omega_{n-1}
    gives the exact per-radius value of the flux integral.
    """
    r, m = sp.symbols("r m", positive=True)
    f = 1 + r**2 - 2*m*r**(2 - n)
    kappa = sp.simplify((1 + r**2) * (1/f - 1/(1 + r**2)))
    omega = 2 * sp.pi**sp.Rational(n, 2) / sp.gamma(sp.Rational(n, 2))
    integral = sp.simplify(omega * r**(n - 1) * (n - 1) * (1 + r**2) * kappa / r)
    limit = sp.limit(integral, r, sp.oo)
    return integral, sp.simplify(limit)


def flux_term_cancellation(n):
    """Check (tr h) dV(nu) - h(grad V, nu) = 0 for a purely radial deviation."""
    r = sp.Symbol("r", positive=True)
    h_rr = sp.Function("h")(r)
    s = sp.sqrt(1 + r**2)
    tr_h = (1 + r**2) * h_rr            # b-trace of h
    dV_nu = s * (r / s)                 # dV(nu_0), nu_0 = s d/dr
    grad_V_r = (1 + r**2) * (r / s)     # b-gradient of V, radial component
    h_term = h_rr * grad_V_r * s
    return sp.simplify(tr_h * dV_nu - h_term)


def ricci_flux_closed_form():
    """Curvature-side flux for the n = 3 static family, exact at every radius."""
    r, m = sp.symbols("r m", positive=True)
    n = 3
    f = 1 + r**2 - 2*m/r
    k_rad = -sp.diff(f, r) / (2*r)
    # Ric(e_r, e_r) = 2 k_rad in the metric's orthonormal frame
    S_rr_frame = 2*k_rad + 2          # (Ric + (n-1) g)(e_r, e_r)
    S_rr_coord = S_rr_frame / f       # coordinate component: e_r = sqrt(f) d/dr
    # integrand = S(grad_b V, nu_b) = S_rr * (r sqrt(1+r^2)) * sqrt(1+r^2),
    # integrated against dsigma_b = r^(n-1) d(omega)
    integrand = S_rr_coord * r * (1 + r**2)
    total = sp.simplify(4 * sp.pi * r**(n - 1) * integrand)
    limit = sp.limit(total, r, sp.oo)
    return sp.simplify(total), limit


def eigen_equation_defect():
    """(Lap - 3) sqrt(1+r^2) for the n = 3 static family: decay exponent 2."""
    r, m = sp.symbols("r m", positive=True)
    f = 1 + r**2 - 2*m/r
    s = sp.sqrt(1 + r**2)
    lap = f * sp.diff(s, r, 2) + (sp.diff(f, r)/2 + 2*f/r) * sp.diff(s, r)
    defect = sp.simplify(lap - 3*s)
    u = sp.Symbol("u", positive=True)
    series = sp.series(defect.subs(r, 1/u), u, 0, 4).removeO()
    return defect, sp.expand(series)


def warped_product_curvatures():
    """Sectional curvatures and Hessian identity for dt^2 + cosh(t)^2 h."""
    t, th, ph = sp.symbols("t theta phi")
    g = sp.diag(1, sp.cosh(t)**2, sp.cosh(t)**2 * sp.sin(th)**2)
    x = [t, th, ph]
    ginv = g.inv()
    n = 3
    gamma = [[[sum(ginv[k, l] * (sp.diff(g[l, i], x[j]) + sp.diff(g[l, j], x[i])
                                 - sp.diff(g[i, j], x[l])) for l in range(n)) / 2
               for j in range(n)] for i in range(n)] for k in range(n)]

    def riem(k, j, l, i):
        expr = sp.diff(gamma[i][j][l], x[k]) - sp.diff(gamma[i][k][l], x[j])
        for p in range(n):
            expr += gamma[i][k][p] * gamma[p][j][l] - gamma[i][j][p] * gamma[p][k][l]
        return sum(sp.simplify(expr) * 1 for _ in [0])

    # K(X ^ Y) for the two factor directions (orthonormalized)
    R_1212 = sum(g[2 - 2, 0] * 0 for _ in [0])
    # lower the first index: R_{kjli} = g_mm' R^m...; use component R^i_{kjl}
    Rm = riem(1, 2, 2, 1)  # R^1_{122} component pattern not needed; do direct
    # direct fully covariant component R_{theta phi phi theta}:
    def riem_cov(k, j, l, i):
        expr = 0
        for mth in range(n):
            term = sp.diff(gamma[mth][j][l], x[k]) - sp.diff(gamma[mth][k][l], x[j])
            for p in range(n):
                term += gamma[mth][k][p] * gamma[p][j][l] \
                    - gamma[mth][j][p] * gamma[p][k][l]
            expr += g[mth, i] * term
        return sp.simplify(expr)

    K_mixed = sp.simplify(riem_cov(1, 2, 2, 1) / (g[1, 1] * g[2, 2]))
    K_radial = sp.simplify(riem_cov(0, 1, 1, 0) / (g[0, 0] * g[1, 1]))

    # Hessian of f = sinh t
    fpot = sp.sinh(t)
    hess = sp.zeros(n, n)
    for i in range(n):
        for j in range(n):
            expr = sp.diff(fpot, x[i], x[j])
            for k in range(n):
                expr -= gamma[k][i][j] * sp.diff(fpot, x[k])
            hess[i, j] = sp.simplify(expr)
    defect = sp.simplify(hess - fpot * g)
    return K_mixed, K_radial, defect


def forced_ode_constants():
    """Forced solution of u'' = u + e^(-2t) with zero initial data."""
    t = sp.Symbol("t")
    u = sp.Function("u")
    sol = sp.dsolve(sp.Eq(u(t).diff(t, 2), u(t) + sp.exp(-2*t)), u(t),
                    ics={u(0): 0, u(t).diff(t).subs(t, 0): 0})
    expr = sp.expand(sol.rhs)
    c1 = expr.coeff(sp.exp(t))
    c2 = expr.coeff(sp.exp(-t))
    particular = sp.simplify(expr - c1*sp.exp(t) - c2*sp.exp(-t))
    resonant = sp.dsolve(sp.Eq(u(t).diff(t, 2), u(t) + sp.exp(-t)), u(t),
                         ics={u(0): 0, u(t).diff(t).subs(t, 0): 0})
    return c1, c2, particular, sp.expand(resonant.rhs)


def finite_horizon_remainder(d):
    """Variation-of-parameters tails of u'' = u + e^(-d t) on [0, T], d != 1.

    u1 = e^t, u2 = e^(-t), W = -2.  Integrates tau_1, tau_2, alpha_2 and
    asserts they equal the closed forms tests/test_odes.py uses, and that the
    remainder solves the forced equation.
    """
    t, s, T = sp.symbols("t s T", positive=True)
    u1, u2, W, f = sp.exp(s), sp.exp(-s), -2, sp.exp(-d*s)
    tau1 = sp.integrate(u2 * f / W, (s, t, T))
    tau2 = sp.integrate(u1 * f / W, (s, t, T))
    alpha2 = sp.integrate(u1 * f / W, (s, 0, t))
    closed = (-(sp.exp(-(1 + d)*t) - sp.exp(-(1 + d)*T)) / (2*(1 + d)),
              -(sp.exp((1 - d)*T) - sp.exp((1 - d)*t)) / (2*(1 - d)),
              -(sp.exp((1 - d)*t) - 1) / (2*(1 - d)))
    for derived, frozen in zip((tau1, tau2, alpha2), closed):
        assert sp.simplify(derived - frozen) == 0, (d, derived, frozen)
    if d > 1:
        remainder = tau1 * sp.exp(t) - tau2 * sp.exp(-t)
    else:
        remainder = tau1 * sp.exp(t) + alpha2 * sp.exp(-t)
    assert sp.simplify(remainder.diff(t, 2) - remainder - sp.exp(-d*t)) == 0
    return sp.simplify(remainder), sp.simplify(-tau1.subs(t, 0))


def main():
    print("== static family: scalar curvature ==")
    for n in (3, 4, 5):
        print(f"  n={n}: R =", static_family_scalar_curvature(n))

    print("\n== frame deviation (1+r^2)(g_rr - b_rr) ==")
    for n in (3, 4):
        kappa, series = frame_deviation_series(n)
        print(f"  n={n}: kappa =", kappa, "  series in u=1/r:", series)

    print("\n== flux integral of the static family against sqrt(1+r^2) ==")
    for n in (3, 4):
        integral, limit = flux_integrand_closed_form(n)
        print(f"  n={n}: I(r) =", integral)
        print(f"        limit =", limit)
    print("  cancellation of potential-gradient terms:", flux_term_cancellation(3))

    print("\n== curvature-side flux, n=3 ==")
    total, limit = ricci_flux_closed_form()
    print("  integral(r) =", total, "  limit =", limit)

    print("\n== (Lap - 3) sqrt(1+r^2), n=3 static family ==")
    defect, series = eigen_equation_defect()
    print("  defect =", defect)
    print("  series in u=1/r:", series)

    print("\n== warped product dt^2 + cosh^2 t (round S^2) ==")
    K_mixed, K_radial, hess_defect = warped_product_curvatures()
    print("  K(factor plane) =", K_mixed)
    print("  K(dt ^ factor)  =", K_radial)
    print("  Hess(sinh t) - sinh t * g =", hess_defect)

    print("\n== forced ODE u'' = u + e^(-2t), zero initial data ==")
    c1, c2, particular, resonant = forced_ode_constants()
    print("  growing coefficient c1 =", c1)
    print("  decaying coefficient c2 =", c2)
    print("  remainder =", particular)
    print("  resonant-case solution (f = e^-t):", resonant)

    print("\n== finite-horizon remainder of u'' = u + e^(-d t) on [0, T] ==")
    for d in (sp.Rational(1, 2), sp.Rational(3, 2), sp.Integer(2)):
        remainder, c1 = finite_horizon_remainder(d)
        print(f"  d={d}: remainder =", remainder, "  c1 =", c1)


if __name__ == "__main__":
    main()
