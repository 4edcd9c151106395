"""Time the network tapes' broadcast shapes at numpy's default ufunc buffer
and at the buffer the entry points pin (smlpde.harness._UFUNC_BUFSIZE).

Each row is one operation at hidden width w and batch B, in microseconds
per call, the best of 7 rounds of 100 calls; the rounds alternate the two
buffers, so a slow phase of the machine hits both alike:

  * mul   (w, 1) * (w, B): d = c * sigma' of the output layer's sweep,
  * bias  (w, B) += (w, 1): the forward pass's bias add, in place,
  * outer (w, 1) * (1, B): W^T * bar_P of the output layer's VJP,
  * cast  (w, B) > 0 into a float array: the relu and leaky-relu slope,
          a buffered bool -> float cast.

With numpy 2.4, a broadcast whose batch fits twice into the buffer costs
about three times more at the default buffer than at the pinned one; a
numpy release that stops doing so shows here as a ratio near 1.

Usage: python3 tools/ufunc_buffer.py
"""

import sys
import timeit
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
from smlpde.harness import _UFUNC_BUFSIZE  # noqa: E402

WIDTHS = (8, 24)
BATCHES = (129, 1536, 4096, 4225)
ROUNDS, CALLS = 7, 100


def operations(w: int, B: int):
    """name -> a call of that operation on fresh (w, B) operands."""
    col, row = np.full((w, 1), 0.5), np.full((1, B), 0.25)
    full = np.linspace(-1.0, 1.0, w * B).reshape(w, B)
    out = np.zeros((w, B))
    return {
        "mul": lambda: np.multiply(col, full, out=out),
        "bias": lambda: np.add(out, col, out=out),
        "outer": lambda: np.multiply(col, row, out=out),
        "cast": lambda: np.greater(full, 0.0, out=out),
    }


def best_us(call, sizes):
    """Best microseconds per call of `call` at each ufunc buffer size."""
    best = {size: float("inf") for size in sizes}
    for _ in range(ROUNDS):
        for size in sizes:
            np.setbufsize(size)
            best[size] = min(best[size],
                             timeit.timeit(call, number=CALLS) / CALLS * 1e6)
    return best


def main():
    default = np.getbufsize()
    print(f"numpy {np.__version__}; ufunc buffer: default {default}, "
          f"pinned {_UFUNC_BUFSIZE} elements")
    print(f"{'op':<6}{'w':>4}{'B':>6}{'default µs':>12}{'pinned µs':>11}"
          f"{'ratio':>7}")
    try:
        for w in WIDTHS:
            for B in BATCHES:
                for name, call in operations(w, B).items():
                    t = best_us(call, (default, _UFUNC_BUFSIZE))
                    print(f"{name:<6}{w:>4}{B:>6}{t[default]:>12.1f}"
                          f"{t[_UFUNC_BUFSIZE]:>11.1f}"
                          f"{t[default] / t[_UFUNC_BUFSIZE]:>7.2f}")
    finally:
        np.setbufsize(default)


if __name__ == "__main__":
    main()
