"""RP005 fixture: serve-parser drift — a dead flag and an unknown
ServiceConfig kwarg."""

import argparse

from .config import ServiceConfig


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--queue-depth", type=int, default=64)
    parser.add_argument("--stale-flag", type=int, default=0)     # line 12
    args = parser.parse_args(argv)
    return ServiceConfig(
        queue_depth=args.queue_depth,
        queue_dept=1,                                             # line 16
    )
