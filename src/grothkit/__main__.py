"""`python -m grothkit`: the `grothkit` command line."""

from .cli import main

if __name__ == "__main__":
    main()
