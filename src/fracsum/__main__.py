"""``python -m fracsum``: the same command line as the ``fracsum`` script."""

import sys

from .bench_cli import main

if __name__ == "__main__":
    sys.exit(main())
