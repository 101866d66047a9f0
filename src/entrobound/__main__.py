"""``python -m entrobound``: the same command line as ``entrobound``."""

import sys

from .cli import main

sys.exit(main())
