"""A fixed reference process that measures how fast the machine runs now.

Run as ``python3 cuspbench/reference.py``.  It does what an op of the
program does, with none of the program's code: a fresh interpreter imports
numpy, then does exact polynomial arithmetic over the rationals with dicts
of Fractions (the benchmark's own ``planted`` module).  Its work never
changes, so its CPU time changes only with the machine: ``run.py`` runs it
between the ops and scales each op's CPU time by it (see README.md).
"""

import random
import sys

import numpy  # noqa: F401  (the ops import numpy at package import)

import planted


def main():
    family = planted.type_one(random.Random(0), 30, 30)
    return 0 if planted.mul(family.quartic, family.quartic) else 1


if __name__ == "__main__":
    sys.exit(main())
