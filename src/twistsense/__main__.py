"""``python -m twistsense``: the same command line as ``twistsense``."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
