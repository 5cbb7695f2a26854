"""``python -m chancap``: the ``capacity`` command line front end."""

from .cli import main

if __name__ == "__main__":
    main()
