"""The joint grid search against brute force, and against the baseline.

Sweeps the detection floor on a five-user instance family and prints,
per floor: the joint optimum, the exhaustive-search optimum (they must
agree), the detection-first baseline, and how many of the baseline's
users finish with negative utility.

Run:  python demos/demo_joint_vs_oracle.py
"""

import numpy as np

from cogalloc import (
    DesignGrid,
    SecondaryUser,
    count_negative_utility,
    default_system_params,
    exhaustive_oracle,
    joint_optimize,
    nonjoint_baseline,
)


def draw_users(seed, m=5, buffer_bits=1000):
    rng = np.random.default_rng(seed)
    return [
        SecondaryUser(
            id=i,
            gain_to_fc=float(rng.exponential(1.0)),
            buffer_bits=buffer_bits,
            pay_rate=0.1,
            earn_rate=10.0,
        )
        for i in range(m)
    ]


grid = DesignGrid.uniform(5)
print("zeta   joint      oracle     gap        baseline   neg-users  design")
for zeta in (0.6, 0.7, 0.8, 0.9, 0.95):
    params = default_system_params(zeta=zeta, gamma_db=-7.0)
    joint_u, oracle_u, nj_u, neg = [], [], [], []
    design = None
    for seed in range(25):
        sus = draw_users(seed)
        joint = joint_optimize(sus, params, grid)
        oracle = exhaustive_oracle(sus, params, grid)
        nj = nonjoint_baseline(sus, params, grid)
        joint_u.append(joint.fc_utility)
        oracle_u.append(oracle.fc_utility)
        nj_u.append(nj.fc_utility)
        neg.append(count_negative_utility(nj))
        design = joint.best_design
    gap = max(abs(a - b) for a, b in zip(joint_u, oracle_u))
    print(
        f"{zeta:4.2f}  {np.mean(joint_u):9.4f}  {np.mean(oracle_u):9.4f}  "
        f"{gap:.2e}  {np.mean(nj_u):9.4f}  {np.mean(neg):9.2f}  "
        f"(pfa={design.pfa_local}, k={design.k_threshold})"
    )

print("\nwall-clock growth (single instance, seconds):")
params = default_system_params(zeta=0.6)
for m in (4, 6, 8, 10):
    sus = draw_users(m, m=m)
    g = DesignGrid.uniform(m)
    jt = joint_optimize(sus, params, g).wall_time
    ot = exhaustive_oracle(sus, params, g).wall_time
    print(f"  M={m:2d}: joint {jt:.4f} s   exhaustive {ot:.4f} s")
