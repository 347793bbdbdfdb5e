"""RP005 fixture: a serving config schema with a dead field."""

from dataclasses import dataclass


@dataclass(frozen=True)
class ServiceConfig:
    queue_depth: int = 64
    orphan_limit: int = 0  # line 9: seeded violation, read nowhere
