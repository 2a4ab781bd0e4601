"""What each skip mode does with a void layer.

A scripted stack, a plain list of step functions, makes the mechanics
visible: each layer adds a fixed constant, so with depth-1 states the
norm gain of layer t is exactly its constant. Layers 2 and 3 contribute
almost nothing and get flagged void; the five modes differ in what they
do about it.
"""

import numpy as np

from lacvoid import HaltPolicy, SkipMode, run_stack

increments = [5.0, 0.01, 0.01, 5.0]
stack = [lambda h, c=np.float32(c): h + c for c in increments]
h0 = np.ones((1, 1, 1), dtype=np.float32)

print(f"increments per layer: {increments}, start state 1.0\n")
for mode in SkipMode:
    out = run_stack(stack, h0, HaltPolicy(alpha=0.9, skip_mode=mode))
    flags = "".join("V" if v else "." for v in out.void_flags[:, 0, 0])
    print(f"{mode.value:>14}: voids [{flags}]  final state {float(out.final_hidden[0,0,0]):6.2f}")

print("""
off            executes everything, records norms only
detect         records the voids but never touches the stream
mask-zero      zeroes a void unit's activations (downstream layers see zeros)
skip-identity  a void layer acts as identity; 1 + 5 + 5 = 11, as if
               layers 2 and 3 were removed from the stack
halt-frozen    the first void freezes the unit for good (terminal halt)
""")

# skip-identity with a fixed void set really is layer removal: force
# layers 2 and 3 void and compare against the two-layer stack directly
forced = run_stack(stack, h0, HaltPolicy(skip_mode=SkipMode.SKIP_IDENTITY),
                   forced_voids=[False, True, True, False])
reduced = [stack[0], stack[3]]
direct = run_stack(reduced, h0, HaltPolicy(skip_mode=SkipMode.OFF))
print("forced-void final:", float(forced.final_hidden[0, 0, 0]),
      "| reduced-stack final:", float(direct.final_hidden[0, 0, 0]))
