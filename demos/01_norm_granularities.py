"""The two L2-norm granularities and how they relate.

A hidden state is a (batch, length, depth) tensor. The norm can be
reduced per example (one value per batch row) or per token (one value
per position). Squared norms telescope: an example's norm squared
equals the sum of its token norms squared, so the example norms
squared and the token norms squared have one sum.
"""

import numpy as np

from lacvoid import NormGranularity, l2_norm

rng = np.random.default_rng(0)
h = rng.normal(size=(2, 3, 4)).astype(np.float32)  # 2 examples, 3 tokens, depth 4

example = l2_norm(h, NormGranularity.EXAMPLE)  # shape (2, 1)
token = l2_norm(h, NormGranularity.TOKEN)      # shape (2, 3, 1)

print("example norms:", example.ravel())
print("token norms:\n", token[..., 0])

# the telescoping identity, accumulated in float64 by the library
print("\nsum example^2 =", float((example.astype(np.float64) ** 2).sum()))
print("sum token^2   =", float((token.astype(np.float64) ** 2).sum()))

# scaling the tensor scales every norm by |c|
c = -2.5
scaled = l2_norm(np.float32(c) * h, NormGranularity.TOKEN)
print("\nscale by", c, "-> token norm ratio:", float(scaled[0, 0, 0] / token[0, 0, 0]))
