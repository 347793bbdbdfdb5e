"""RP005 fixture: a config schema with a dead field."""

from dataclasses import dataclass


@dataclass(frozen=True)
class CuTSConfig:
    chunk_size: int = 512
    seed: int = 0
    phantom_knob: float = 0.5  # line 10: seeded violation, read nowhere
