"""Work extraction with control over a single site coupled to a finite
thermal bath: raise the site energy, then step it back down slowly.

The dephasing description tracks the exact dynamics closely; the thermal
description is qualitatively right (slower extracts more) but
quantitatively off.
"""

import gge_thermo as gt

n, g, beta, eps1, peak, seed = 40, 0.5, 0.5, 0.1, 4.3, 3

ham0 = gt.build_chain(n, [eps1] + [1.0] * (n - 1), g)
gamma0 = gt.thermal_bath_initial_state(n, beta, g=g, system_occupation=0.1)

print(f"cold site (occupation 0.1) on a {n}-site bath at beta = {beta}")
print(f"protocol: quench site energy {eps1} -> {peak}, then N-1 equal steps back")
print()
print("   N    W_exact    W_dephasing  W_thermal")
for n_quenches in (2, 4, 8, 16, 32, 64):
    schedule = gt.local_quench_schedule(ham0, peak, n_quenches)
    w_gge = gt.run_schedule(gamma0, schedule, gt.GGE, keep_states=False).work
    w_gibbs = gt.run_schedule(gamma0, schedule, gt.GIBBS, keep_states=False).work
    exact = gt.ExactDynamics(20.0 / g, 100.0 / g, seed + n_quenches)
    w_exact = gt.run_schedule(gamma0, schedule, exact, keep_states=False).work
    print(f"{n_quenches:4d}  {w_exact:9.6f}  {w_gge:11.6f}  {w_gibbs:9.6f}")

print()
print("slower is better for every description: the minimum work principle holds")
