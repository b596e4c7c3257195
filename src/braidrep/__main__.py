"""Entry point of ``python -m braidrep``: the same command as ``braidrep``."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
