"""Topology graphs of dataflow networks (paper Figures 1-3).

The paper communicates its architectures with three diagrams: the sequential
flowchart of the Xilinx engine (Fig. 1), the dataflow reorganisation with
per-option and per-time-point streams (Fig. 2), and the round-robin
replication of the defaulting-probability calculation (Fig. 3).  This module
reconstructs those diagrams from live simulator objects: a
:class:`DataflowGraph` captures processes as nodes and streams as edges and
renders to Graphviz DOT or plain ASCII (both used by the figure benchmarks).
The analyses (DAG check, topological order, stage depth) use the standard
library's :mod:`graphlib`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from graphlib import CycleError, TopologicalSorter

from repro.dataflow.engine import Simulator
from repro.errors import SimulationError

__all__ = ["DataflowGraph", "GraphNode", "GraphEdge"]


@dataclass(frozen=True)
class GraphNode:
    """A process node: name plus optional replica group label."""

    name: str
    group: str | None = None


@dataclass(frozen=True)
class GraphEdge:
    """A stream edge between two processes.

    ``per_option`` distinguishes the paper's red (once per option) from blue
    (once per time point) arrows in Fig. 2.
    """

    src: str
    dst: str
    stream: str
    depth: int
    per_option: bool = False


@dataclass
class DataflowGraph:
    """Process/stream topology with rendering helpers."""

    name: str
    nodes: list[GraphNode] = field(default_factory=list)
    edges: list[GraphEdge] = field(default_factory=list)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_simulator(cls, sim: Simulator) -> "DataflowGraph":
        """Extract the topology of a built (or run) simulator.

        Streams without both endpoints bound (e.g. external I/O) appear as
        edges from/to the pseudo-nodes ``"<input>"`` / ``"<output>"``.
        """
        g = cls(name=sim.name)
        for p in sim.processes.values():
            g.nodes.append(GraphNode(name=p.name, group=p.group))
        for s in sim.streams.values():
            src = s.writer.name if s.writer is not None else "<input>"
            dst = s.reader.name if s.reader is not None else "<output>"
            g.edges.append(
                GraphEdge(
                    src=src,
                    dst=dst,
                    stream=s.name,
                    depth=s.depth,
                    per_option=s.per_option,
                )
            )
        return g

    # ------------------------------------------------------------------
    # Analysis
    # ------------------------------------------------------------------
    def _sorter(self) -> TopologicalSorter:
        """The graph as a :class:`graphlib.TopologicalSorter`.

        Nodes enter in declaration order, then any edge endpoint not
        declared (e.g. ``"<input>"``) in edge order; each connected pair
        is one dependency however many streams join it.  Sorted
        generation by generation, that gives the same order as Kahn's
        algorithm over the streams in declaration order.
        """
        sorter: TopologicalSorter = TopologicalSorter()
        for node in self.nodes:
            sorter.add(node.name)
        for e in self.edges:
            sorter.add(e.src)
            sorter.add(e.dst)
        for src, dst in dict.fromkeys((e.src, e.dst) for e in self.edges):
            sorter.add(dst, src)
        return sorter

    def is_acyclic(self) -> bool:
        """Whether the network is a DAG (HLS DATAFLOW requires it)."""
        try:
            self._sorter().prepare()
        except CycleError:
            return False
        return True

    def topological_order(self) -> list[str]:
        """Stage names in a topological order (raises if cyclic)."""
        try:
            return list(self._sorter().static_order())
        except CycleError as exc:
            raise SimulationError(f"graph {self.name!r} contains a cycle") from exc

    def stage_depth(self) -> int:
        """Longest process chain (pipeline depth in stages)."""
        depth = dict.fromkeys(self.topological_order(), 1)
        successors: dict[str, list[str]] = {}
        for e in self.edges:
            successors.setdefault(e.src, []).append(e.dst)
        for node in depth:
            for succ in successors.get(node, ()):
                depth[succ] = max(depth[succ], depth[node] + 1)
        return max(depth.values(), default=0)

    def groups(self) -> dict[str, list[str]]:
        """Replica groups: group label -> member process names."""
        out: dict[str, list[str]] = {}
        for node in self.nodes:
            if node.group is not None:
                out.setdefault(node.group, []).append(node.name)
        return out

    def fan_out(self, node: str) -> int:
        """Number of outgoing streams from ``node``."""
        return sum(1 for e in self.edges if e.src == node)

    def fan_in(self, node: str) -> int:
        """Number of incoming streams into ``node``."""
        return sum(1 for e in self.edges if e.dst == node)

    # ------------------------------------------------------------------
    # Rendering
    # ------------------------------------------------------------------
    def to_dot(self) -> str:
        """Graphviz DOT text, colouring per-option edges red and
        per-time-point edges blue (matching paper Fig. 2's legend)."""
        lines = [f'digraph "{self.name}" {{', "  rankdir=LR;", "  node [shape=box];"]
        groups = self.groups()
        grouped = {m for members in groups.values() for m in members}
        for node in self.nodes:
            if node.name not in grouped:
                lines.append(f'  "{node.name}";')
        for gi, (label, members) in enumerate(sorted(groups.items())):
            lines.append(f"  subgraph cluster_{gi} {{")
            lines.append(f'    label="{label}";')
            for m in sorted(members):
                lines.append(f'    "{m}";')
            lines.append("  }")
        for e in self.edges:
            colour = "red" if e.per_option else "blue"
            lines.append(
                f'  "{e.src}" -> "{e.dst}" '
                f'[label="{e.stream} (d={e.depth})", color={colour}];'
            )
        lines.append("}")
        return "\n".join(lines)

    def to_ascii(self) -> str:
        """Compact ASCII rendering: one line per edge, topologically sorted."""
        try:
            order = {n: i for i, n in enumerate(self.topological_order())}
        except SimulationError:
            order = {n.name: i for i, n in enumerate(self.nodes)}
        rows = sorted(
            self.edges, key=lambda e: (order.get(e.src, 0), order.get(e.dst, 0))
        )
        width = max((len(e.src) for e in rows), default=0)
        lines = [f"[{self.name}]"]
        for e in rows:
            marker = "==" if e.per_option else "--"
            lines.append(
                f"  {e.src:>{width}} {marker}{e.stream}{marker}> {e.dst}"
            )
        legend = "  (== per-option stream, -- per-time-point stream)"
        lines.append(legend)
        return "\n".join(lines)
