"""``python -m qwalk``: the command-line interface of qwalk.cli."""

import sys

from .cli import main

sys.exit(main())
