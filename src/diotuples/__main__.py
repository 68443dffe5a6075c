"""`python -m diotuples`: the command-line front end, as the `diotuples` script runs it."""

from .cli import entry

if __name__ == "__main__":
    entry()
