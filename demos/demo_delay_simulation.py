"""Multi-frame traffic/delay simulation with the full decision loop.

Every frame redraws channels and the primary-user state, re-optimizes
the design and allocation at the fusion center, draws hard decisions,
and drains buffers at the true-hypothesis rate. Prints a short trace
excerpt, then the delay trends over P(H0) and the fairness score.

Run:  python demos/demo_delay_simulation.py
"""

import numpy as np

from cogalloc import (
    TrafficModel,
    UserProfile,
    default_system_params,
    jain_index,
    run_episode,
)

traffic = TrafficModel(shape=1.0, scale=7.0, batch_bits=10)
profiles = [UserProfile(initial_bits=10)] * 5

params = default_system_params(p_h0=0.8, zeta=0.7, gamma_db=-7.0)
stats, traces = run_episode(40, params, traffic, rng_seed=11, profiles=profiles)

print("first frames of one episode:")
for t in traces[:8]:
    state = "busy " if t.fc_decision_busy else "idle "
    print(
        f"  frame {t.frame_index:2d}: PU={'on ' if t.pu_active else 'off'} "
        f"declared {state} selected {t.selected_set} bits_out {t.bits_out}"
    )
print(f"per-user mean delay (ms): {[round(d * 1e3, 3) for d in stats.per_su_mean_delay]}")
print(f"Jain fairness: {stats.jain:.4f}\n")

print("mean clearance delay vs P(H0)  (zeta=0.7, gamma=-7 dB, 200 seeds):")
for p_h0 in (0.5, 0.6, 0.7, 0.8, 0.9):
    params = default_system_params(p_h0=p_h0, zeta=0.7, gamma_db=-7.0)
    per_su = []
    for trial in range(200):
        s, _ = run_episode(
            80,
            params,
            traffic,
            rng_seed=42,
            profiles=profiles,
            trial=trial,
            keep_traces=False,
        )
        per_su.append(s.per_su_mean_delay)
    su_means = np.nanmean(np.array(per_su), axis=0)
    print(
        f"  P(H0)={p_h0}: {float(np.mean(su_means)) * 1e3:.3f} ms   "
        f"Jain {jain_index(list(su_means)):.4f}"
    )
