"""Polarization rotation of light crossing a spin-polarized sample.

A linearly polarized beam picks up a rotation of its Stokes vector about
s3 proportional to the column-integrated Jz; spontaneous emission damps
the rotated components.  The coupling constant beta is derived from
cesium-like laser parameters, so the angles and losses come out in the
experimentally relevant perturbative range.
"""

import numpy as np

from atomlight.dynamics import (faraday_angle, paraxial_stokes_map,
                                spontaneous_stokes_correction)
from atomlight.medium import PhysicalParams


def main():
    params = PhysicalParams(gamma=3.0e7, delta=1.0e9, k_L=2.0 * np.pi / 852e-9)
    beta, k_L = params.beta, params.k_L
    moments = {"Jx2": 0.25, "Jy2": 0.25, "Jz2": 0.25, "J4": 0.5625}
    s_in = (1.0, 0.0, 0.0)
    print(f"beta = {beta:.3e} m^3")
    print(f"{'column':>10} {'phi':>10} {'s1':>10} {'s2':>10} {'|s| kept':>10}")
    for column in np.linspace(0.0, 6.0e13, 6):
        phi = faraday_angle(k_L, beta, 1.0, column)
        s1, s2, s3 = paraxial_stokes_map(s_in, phi)
        _, d1, d2, d3 = spontaneous_stokes_correction(
            (1.0, s1, s2, s3), moments, c0=0.0, c1=1.0, beta=beta, k_L=k_L,
            column_density=column / 0.25)
        kept = np.hypot(d1, d2) / max(np.hypot(s1, s2), 1e-300)
        print(f"{column:10.2e} {phi:10.5f} {s1:10.6f} {s2:10.6f} "
              f"{kept:10.6f}")


if __name__ == "__main__":
    main()
