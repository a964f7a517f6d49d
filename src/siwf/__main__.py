"""``python -m siwf``: the siwf command line."""

import sys

from .cli import main

sys.exit(main())
