"""`python -m minkval ...`: the minkval command line."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
