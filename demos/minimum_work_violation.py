"""Breaking the minimum work principle: a population-inverted bath (only the
most energetic modes occupied) rewards FAST driving.

The more quenches the protocol uses, the more the dephasing equilibrations
spread the inverted populations and the less work comes out, even though a
thermal reading of the same numbers (positive effective temperature
throughout) would promise the opposite.
"""

import gge_thermo as gt
from gge_thermo import fermions as fg

n, K, g, eps1, peak, seed = 40, 8, 0.5, 0.1, 1.6, 5

ham0 = gt.build_chain(n, [eps1] + [1.0] * (n - 1), g)
gamma0 = gt.build_population_inverted_bath(n, K, g=g, system_occupation=0.1)

print(f"{n}-site chain; bath with only its {K} most energetic modes occupied")
print(f"protocol: quench site energy {eps1} -> {peak}, then N-1 equal steps back")
print()
print("   N    W_exact    W_dephasing")
for n_quenches in (2, 4, 8, 16, 32, 64):
    schedule = list(gt.local_quench_schedule(ham0, peak, n_quenches))   # listed: it runs more than once
    w_gge = gt.run_schedule(gamma0, schedule, gt.GGE, keep_states=False).work
    exact = gt.Exact(20.0 / g, 100.0 / g, seed + n_quenches)
    w_exact = gt.run_schedule(gamma0, schedule, exact, keep_states=False).work
    print(f"{n_quenches:4d}  {w_exact:9.6f}  {w_gge:11.6f}")

rec = gt.run_schedule(gamma0, gt.local_quench_schedule(ham0, peak, 64), fg.GIBBS,
                      keep_states=False)
betas = [s.duals[0] for s in rec.steps if s.duals is not None]
print()
print(f"thermal diagnostics: beta stays in [{min(betas):.4f}, {max(betas):.4f}] (all positive),")
print("so a thermal description would wrongly recommend driving slowly")
