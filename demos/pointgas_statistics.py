"""Scattering statistics of sampled point clouds versus the smooth gas.

For each momentum transfer the batched estimator splits into the
coherent part N^2 |f|^2 (form factor of the density) and the incoherent
self-term N that the continuous description misses.  The corrected
estimator recovers |f|^2 within its error bars.
"""

from atomlight.pointgas import (box_form_factor, density_correlation,
                                stream_keys)


def main():
    n_atoms, n_clouds, size, seed = 200, 64, 1.0, 20260823
    print(f"N = {n_atoms}, clouds = {n_clouds}, box size = {size}, "
          f"seed = {seed}")
    print(f"{'dk':>6} {'raw mean':>12} {'corrected':>12} {'+-':>9} "
          f"{'|f|^2 exact':>12}")
    for dk in (0.0, 2.0, 4.0, 8.0, 20.0, 60.0):
        keys = stream_keys(seed + int(10 * dk), n_clouds)
        est = density_correlation(n_atoms, "box", size, keys, [dk, 0.0, 0.0])
        exact = box_form_factor([dk, 0.0, 0.0], size)
        print(f"{dk:6.1f} {est.raw_mean:12.2f} {est.corrected_mean:12.6f} "
              f"{est.corrected_sem:9.6f} {exact:12.6f}")
    print("\nraw mean at dk=0 is exactly N^2; at large dk it settles on the "
          "self-term N.")


if __name__ == "__main__":
    main()
