"""Print library results as exact float bits, one per line.

Usage: PYTHONPATH=SRC python .github/library_bits.py

Prints ``float.hex`` of ``concentration.bubbling_energy`` over the tiny
balls of the energy-oracle benchmark (seed 1: every n = 3..6, delta,
offset and radius, the bubble's offset direction drawn as that workload
draws it), then the ratios and the inventory scales of one n = 5
criterion-7 ``quantization_report`` (two bubbles of bases 4 and 16,
k_max 8), with its ``n_hat`` and flags, then every value and component
column of the four centered profile sweeps whose closed-form errors the
profile-sweeps benchmark reports (n = 3..6, 40 log-spaced radii in
[0.05, 5]) and of one sweep about a probe off every axis.  Two source
trees that print the same lines compute these numbers bit for bit alike.
"""

import numpy as np

from bubblelab import concentration, monotonicity
from bubblelab.concentration import QuantizationConfig, make_sequence
from bubblelab.fields import aubin_talenti
from bubblelab.grid import RadialGrid

SEED = 1
TINY_DELTAS = (1.0, 1e-3, 1e-10, 1e-18, 1e-19, 1e-22)
TINY_OFFSETS = (0.0, 0.01, 0.3)
TINY_RADII = (0.5, 1.0)
PROFILE_RADII = RadialGrid.log_spaced(0.05, 5.0, 40)
# n, probe: the centered sweeps and a zonal one about a generic axis
PROFILES = [(n, np.zeros(n)) for n in (3, 4, 5, 6)] + [(5, np.array([0.3, -0.2, 0.1, 0.05, 0.4]))]


def main() -> None:
    rng = np.random.default_rng(SEED)
    for n in (3, 4, 5, 6):
        for delta in TINY_DELTAS:
            for offset in TINY_OFFSETS:
                for radius in TINY_RADII:
                    v = rng.standard_normal(n)
                    u = aubin_talenti(n, delta, offset * (v / np.linalg.norm(v)))
                    energy = concentration.bubbling_energy(u, np.zeros(n), radius)
                    print(f"ball n={n} delta={delta:g} offset={offset:g} r={radius:g} "
                          f"{energy.hex()}")
    n = 5
    seq = make_sequence([(np.zeros(n), b, 1.0) for b in (4.0, 16.0)], budget=1e4, n=n)
    report = concentration.quantization_report(seq, QuantizationConfig(k_max=8))
    for i, p in enumerate(report.points):
        print(f"point {i} n_hat={p.n_hat} flags={p.flags} ratio {float(p.ratio).hex()}")
        for j, (scale, _, _) in enumerate(p.inventory):
            print(f"point {i} bubble {j} delta {float(scale).hex()}")
    columns = ("E", "term_volume", "term_boundary_derivative", "term_boundary_over_r")
    for n, x in PROFILES:
        prof = monotonicity.profile(aubin_talenti(n), x, PROFILE_RADII)
        for name, values in zip(columns, (prof.values, *prof.components.T)):
            print(f"profile n={n} x={x.tolist()} {name} "
                  + " ".join(float(v).hex() for v in values))


if __name__ == "__main__":
    main()
