"""Fixed reference work that the benchmark times like a CLI call.

Interpreter start, the numpy and scipy.special imports that crowdvol also
pays, then pure-Python and numpy work that never changes. Its wall time
follows the machine's CPU speed the way the CLI processes do, so the
benchmark divides by it; it uses nothing from crowdvol.
"""
import numpy as np
import scipy.special

acc = 0
for i in range(400_000):
    acc += i * i
values = np.random.default_rng(0).random(400_000)
for _ in range(5):
    values = np.sort(np.sqrt(values + scipy.special.ndtr(values)))
print(acc % 7, float(values[0]))
