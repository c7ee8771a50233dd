"""Room-temperature plant as an external process speaking safesynth's line protocol.

Each input line is one query ``x u``; the answer is one line holding the next
state written with 17 significant digits, so the round trip through text is
exact.  The dynamics are the same float64 expression as the built-in
``room-temp`` plant, evaluated in the same order, so a dataset collected
through this process equals the in-process one bit for bit.  Standard library
only; the process exits when its input closes.

    python3 benchmarks/child_plant.py
"""

import sys

T_ENV = 15.0
T_HEATER = 45.0
ALPHA_ENV = 8e-3
ALPHA_HEATER = 3.6e-3
TAU = 5.0


def step(x: float, u: float) -> float:
    return x + TAU * (ALPHA_ENV * (T_ENV - x) + ALPHA_HEATER * (T_HEATER - x) * u)


def main() -> int:
    out = sys.stdout
    for line in sys.stdin:
        x, u = (float(v) for v in line.split())
        out.write(f"{step(x, u):.17g}\n")
        out.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
