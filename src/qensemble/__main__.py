"""Entry point for ``python -m qensemble``; see qensemble.cli."""

import sys

from .cli import main

sys.exit(main())
