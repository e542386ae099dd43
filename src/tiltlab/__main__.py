"""Entry point for ``python -m tiltlab``; the same as the ``tiltlab`` script."""

from .cli import main

if __name__ == "__main__":
    main()
