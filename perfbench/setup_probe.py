"""Set-up probe: import the CLI and parse one config, then report the time.

Usage::

    python perfbench/setup_probe.py CONFIG

Prints the ``time.perf_counter()`` reading taken right after
``config.parse_config`` returns.  On Linux that clock is the system-wide
monotonic clock, so the parent subtracts its own reading taken before
the spawn and gets interpreter start, import and parse together.
"""

import sys
import time


def main(path):
    import fracsteer.cli  # noqa: F401
    from fracsteer import config

    with open(path) as f:
        config.parse_config(f.read())
    print(repr(time.perf_counter()))


if __name__ == "__main__":
    main(sys.argv[1])
