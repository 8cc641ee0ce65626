"""`python -m weyldim`: the command line interface of `weyldim.cli`."""
import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
