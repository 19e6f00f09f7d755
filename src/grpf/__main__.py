"""``python3 -m grpf``: the same command line as the ``grpf`` script."""

from .cli import main

if __name__ == "__main__":
    main()
