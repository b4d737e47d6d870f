"""Maximum work extraction from a mode-diagonal state with random
populations, using the cyclic four-phase construction: align the modes with
the state, rotate slowly back, reorder, rotate back again.

Slower is better here: the extracted work climbs towards the majorization
ceiling while the entropy produced by the effective description fades.
"""

import numpy as np

import gge_thermo as gt

n, g, seed = 24, 0.8, 7

ham0 = gt.build_chain(n, [1.0] * n, g)
rng = np.random.Generator(np.random.PCG64(seed))
populations = rng.uniform(0.0, 1.0, n)
gamma0 = gt.from_mode_basis(np.diag(populations.astype(complex)), ham0)

bound = gt.optimal_work_bound(gamma0, ham0)
print(f"{n} modes, random populations, work ceiling W* = {bound:.6f}")
print()
print("   N    W(N)       W/W*     entropy produced")
for n_quenches in (2, 4, 8, 16, 32, 64, 128, 256):
    rec = gt.optimal_gge_protocol(gamma0, ham0, n_quenches, keep_states=False)
    print(f"{n_quenches:4d}  {rec.work:9.6f}  {rec.work / bound:8.4f}  {rec.entropy_production:10.6f}")

print()
print("exact unitary dynamics on the same schedule (seeded random hold times):")
rec = gt.optimal_gge_protocol(gamma0, ham0, 64, keep_states=False)
exact = gt.run_schedule(gamma0, rec.hamiltonians, gt.Exact(20.0 / g, 100.0 / g, seed),
                        keep_states=False)
print(f"  N = 64:  effective W = {rec.work:.6f},  exact W = {exact.work:.6f}")
