"""``python -m toricmu``: the command-line interface."""

from .cli import main

main()
