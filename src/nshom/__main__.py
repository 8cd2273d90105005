"""``python -m nshom``: the ``nshom`` command line."""
from .cli import main

raise SystemExit(main())
