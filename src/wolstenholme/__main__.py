"""`python -m wolstenholme`: the `wolstenholme` command without installing."""

import sys

from .cli import main

sys.exit(main())
