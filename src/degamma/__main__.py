"""``python -m degamma``: the command-line interface of :mod:`degamma.cli`."""

import sys

from .cli import main

sys.exit(main())
