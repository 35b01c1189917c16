"""A fixed piece of work in a fresh interpreter, to gauge the host's speed.

    python3 perfbench/calibrate.py

Prints the CPU seconds the process used, interpreter start-up included:
the Bernoulli numbers B_0..B_119 by the Akiyama-Tanigawa algorithm, the
same kind of work as a request's (bytecode, Fraction and big-integer
arithmetic in a cold process), but none of polycauchy's code, so no change
to the program moves it.
"""

import time
from fractions import Fraction


def main() -> None:
    a = []
    for m in range(120):
        a.append(Fraction(1, m + 1))
        for j in range(m, 0, -1):
            a[j - 1] = j * (a[j - 1] - a[j])
    print(time.process_time())


if __name__ == "__main__":
    main()
