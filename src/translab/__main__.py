"""``python -m translab``: the command-line interface of ``translab.cli``."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
