"""Kernel-trace analysis: the Nsight per-kernel timeline view.

Enable tracing on a cost model (``cost.enable_trace()``, or
``CuTSMatcher(data, trace_kernels=True)`` on the engine) and every
simulated launch is retained as a
:class:`~repro.gpusim.kernel.KernelLaunch`.
This module aggregates a trace into the reports a profiler would show:
per-kernel-name totals, the hottest launches, and the
compute-vs-memory-bound split.
"""

from __future__ import annotations

from dataclasses import dataclass

from .kernel import KernelLaunch

__all__ = ["KernelGroupStats", "group_by_kernel", "hottest_launches", "bound_split", "format_trace_report"]


@dataclass(frozen=True)
class KernelGroupStats:
    """Aggregated statistics for one kernel name."""

    name: str
    launches: int
    total_cycles: float
    total_items: int
    mean_imbalance: float
    memory_bound_launches: int

    @property
    def cycles_per_launch(self) -> float:
        return self.total_cycles / self.launches if self.launches else 0.0


def group_by_kernel(trace: list[KernelLaunch]) -> list[KernelGroupStats]:
    """Aggregate a trace by kernel name, sorted by total cycles desc."""
    groups: dict[str, list[KernelLaunch]] = {}
    for launch in trace:
        groups.setdefault(launch.name, []).append(launch)
    out = []
    for name, launches in groups.items():
        out.append(
            KernelGroupStats(
                name=name,
                launches=len(launches),
                total_cycles=sum(rec.cycles for rec in launches),
                total_items=sum(rec.num_items for rec in launches),
                mean_imbalance=(
                    sum(rec.imbalance for rec in launches) / len(launches)
                ),
                memory_bound_launches=sum(
                    1 for rec in launches if rec.memory_cycles > rec.compute_cycles
                ),
            )
        )
    out.sort(key=lambda g: -g.total_cycles)
    return out


def hottest_launches(
    trace: list[KernelLaunch], top_k: int = 10
) -> list[KernelLaunch]:
    """The ``top_k`` launches by cycle cost."""
    return sorted(trace, key=lambda rec: -rec.cycles)[:top_k]


def bound_split(trace: list[KernelLaunch]) -> tuple[float, float]:
    """Fraction of total cycles spent in (memory-bound, compute-bound)
    launches.  The paper calls subgraph isomorphism memory-bound; this is
    how the model exhibits it."""
    total = sum(rec.cycles for rec in trace)
    if total == 0:
        return (0.0, 0.0)
    mem = sum(rec.cycles for rec in trace if rec.memory_cycles > rec.compute_cycles)
    return (mem / total, (total - mem) / total)


def format_trace_report(trace: list[KernelLaunch]) -> str:
    """Fixed-width per-kernel summary (profiler style)."""
    groups = group_by_kernel(trace)
    header = (
        f"{'kernel':<24}{'launches':>9}{'cycles':>14}{'items':>12}"
        f"{'imbal':>8}{'mem-bound':>10}"
    )
    lines = [header, "-" * len(header)]
    for g in groups:
        lines.append(
            f"{g.name:<24}{g.launches:>9}{g.total_cycles:>14.0f}"
            f"{g.total_items:>12}{g.mean_imbalance:>8.2f}"
            f"{g.memory_bound_launches:>10}"
        )
    mem_frac, comp_frac = bound_split(trace)
    lines.append(
        f"cycles split: {mem_frac:.0%} memory-bound / {comp_frac:.0%} compute-bound"
    )
    return "\n".join(lines)
