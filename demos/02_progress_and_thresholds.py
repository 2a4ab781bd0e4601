"""How a unit halts: progress, the dynamic threshold, and voids.

Each layer's "progress" is the change it makes to the unit's L2 norm.
The running range of observed progress sets the threshold
lambda = alpha * (max - min); a layer whose progress falls below
lambda is a void for that unit. Larger alpha means a more decisive
threshold and more voids.
"""

import numpy as np

from lacvoid import detect_voids_offline, offline_void_mask

# a hand-picked progress sequence: one big jump, a dip, two small steps
deltas = [5.0, -1.0, 4.0, 0.1]
# max - min of the progress observed up to and including each layer
seen = np.float32(deltas)
spread = np.maximum.accumulate(seen) - np.minimum.accumulate(seen)

for alpha in (0.2, 0.5, 1.0):
    print(f"alpha = {alpha}")
    voids = offline_void_mask(deltas, alpha)
    for t, (d, lam, void) in enumerate(zip(deltas, np.float32(alpha) * spread, voids), start=1):
        status = "VOID" if void else "kept"
        print(f"  layer {t}: delta {d:+5.2f}  lambda {float(lam):5.2f}  -> {status}")
    print()

# the same decisions can be replayed from a recorded sequence at any alpha
print("void sets by alpha (offline replay of the same deltas):")
for alpha in (0.1, 0.3, 0.5, 0.8, 1.0):
    print(f"  alpha {alpha:.1f}: voids {sorted(detect_voids_offline(deltas, alpha)) or 'none'}")
# note the nesting: raising alpha only ever adds voids
