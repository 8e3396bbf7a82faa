"""User selection and time allocation at one sensing design.

Builds a five-user instance, shows the per-user break-even and
buffer-clearing bounds, classifies the budget regime, and runs the full
selection + water-filling pipeline, then shrinks the frame to force the
contested and infeasible regimes.

Run:  python demos/demo_selection_and_allocation.py
"""

import numpy as np

from cogalloc import (
    SecondaryUser,
    SensingDesign,
    default_system_params,
    effective_time,
    select_and_allocate,
)
from cogalloc.allocator import UserTable, design_table

rng = np.random.default_rng(7)
params = default_system_params()
design = SensingDesign(pfa_local=0.1, k_threshold=2)
# The design as row 0 of its own design table, which prices it.
designs = design_table(params, (design.pfa_local,), (design.k_threshold,))

users = [
    SecondaryUser(
        id=i,
        gain_to_fc=float(rng.exponential(1.0)),
        buffer_bits=1000,
        pay_rate=0.1,
        earn_rate=10.0,
    )
    for i in range(5)
]

print("per-user bounds at the full set size (L=5):")
table = UserTable.stack([users], params).instance(0)
_, lowers, uppers, _ = table.level(designs, 0, 5)
for su, lower, upper in zip(users, lowers, uppers):
    print(
        f"  SU{su.id}: gain={su.gain_to_fc:.3f}  "
        f"T_LB={lower * 1e6:8.3f} us  T_UB={upper * 1e3:7.3f} ms"
    )
print(f"usable frame time T'(5) = {effective_time(params, 5) * 1e3:.4f} ms")
print(f"budget regime: {table.evaluate(designs, 0, tuple(range(5))).case.name}\n")

alloc = select_and_allocate(users, design, params)
print("allocation at the default 1 ms frame:")
print(f"  selected: {alloc.selected_ids}  case: {alloc.case.name}")
print(f"  times (us): {[round(t * 1e6, 3) for t in alloc.times]}")
print(f"  FC revenue: {alloc.fc_utility:.4f}")
print(f"  user net utilities: {[round(u, 4) for u in alloc.su_utilities]}\n")

# A much shorter frame forces selection: not everyone fits any more.
tight = default_system_params(frame_duration=2e-4)
alloc = select_and_allocate(users, design, tight)
print("allocation at a 0.2 ms frame (contested):")
print(f"  selected: {alloc.selected_ids}  case: {alloc.case.name}")
print(f"  FC revenue: {alloc.fc_utility:.4f}")

# And with a detection floor nobody can reach, the point is infeasible.
strict = default_system_params(zeta=0.999999, gamma_db=-15.0)
alloc = select_and_allocate(users, design, strict)
print(f"\nwith an unreachable detection floor: feasible={alloc.feasible}")
