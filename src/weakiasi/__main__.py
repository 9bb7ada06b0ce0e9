"""python -m weakiasi: the same command-line interface as weakiasi.cli."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
