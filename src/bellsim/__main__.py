"""`python -m bellsim`: the command-line front end."""

from .cli import main

raise SystemExit(main())
