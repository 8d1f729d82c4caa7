"""``python -m benchmarks.e2e`` — see :mod:`benchmarks.e2e.run`."""

import sys

from benchmarks.e2e.run import main

if __name__ == "__main__":
    sys.exit(main())
