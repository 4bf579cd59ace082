"""`python -m hypcert`: the command line of `hypcert.cli`."""
from .cli import main

if __name__ == "__main__":
    raise SystemExit(main())
