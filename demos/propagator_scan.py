"""Scan the short-propagator triple against the quadrature oracle.

Shows how (rho_par, rho_perp, rho_gamma) depart from the isotropic value
k^3/(3 pi) as the medium becomes polarized (a1 > 0).  The closed form is
exact to a few ulps on all of 0 <= a1 < a0, so the last column is the
error of the 128-point Gauss-Legendre oracle, one rule in log u: about
1e-14 here, and within 2e-13 of the largest entry for every a1 < a0.
"""

import numpy as np

from atomlight.propagator import (short_propagator_closed,
                                  short_propagator_quadrature)


def main():
    a0 = 1.5
    print(f"a0 = {a0}; isotropic reference rho = {1.0 / (3.0 * np.pi) * a0**-2.5:.12f}")
    print(f"{'a1':>6} {'rho_par':>14} {'rho_perp':>14} {'rho_gamma':>14} "
          f"{'max rel dev':>12}")
    for a1 in np.linspace(0.0, 1.2, 13):
        closed = short_propagator_closed(a0, a1, 1.0)
        quad = short_propagator_quadrature(a0, a1, 1.0)
        scale = max(abs(closed.rho_par), abs(closed.rho_perp),
                    abs(closed.rho_gamma))
        dev = max(abs(getattr(closed, n) - getattr(quad, n)) / scale
                  for n in ("rho_par", "rho_perp", "rho_gamma"))
        print(f"{a1:6.2f} {closed.rho_par:14.9f} {closed.rho_perp:14.9f} "
              f"{closed.rho_gamma:14.9f} {dev:12.2e}")


if __name__ == "__main__":
    main()
