"""`python -m surfgroup`: the same command line as the `surfgroup` script."""

import sys

from .cli import main

sys.exit(main())
