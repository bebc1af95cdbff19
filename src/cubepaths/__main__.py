"""``python -m cubepaths``: the same entry point as the ``cubepaths`` script."""

from .cli import main

main()
