"""RP005 fixture: CLI drift — dead flags and unknown config kwargs."""

import argparse

from .core.config import CuTSConfig


def build_parser():
    parser = argparse.ArgumentParser()
    parser.add_argument("--chunk-size", type=int, default=512)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--dead-flag", type=int, default=0)      # line 12
    parser.add_argument("--renamed", dest="also_dead", type=int)  # line 13
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    config = CuTSConfig(
        chunk_size=args.chunk_size,
        seed=args.seed,
        typo_knob=3,                                              # line 22
    )
    return config
