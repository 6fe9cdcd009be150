"""``python -m symgraph``: the command-line interface, for a checkout that is not installed."""

import sys

from .cli import main

sys.exit(main())
