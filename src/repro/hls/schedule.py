"""Initiation-interval derivation by modulo-scheduling analysis.

Everywhere else in this package the accumulation loop's II=7 is taken from
the paper; this module *derives* it the way the HLS scheduler does.  For a
pipelined loop, the achieved initiation interval is

``II = max(RecMII, ResMII)``

* **RecMII** (recurrence-constrained minimum II): for every dependence
  cycle ``C`` in the loop body's data-flow graph,
  ``ceil(total_latency(C) / total_distance(C))`` — a dependency carried
  ``distance`` iterations away allows that many iterations to overlap.
* **ResMII** (resource-constrained minimum II): for every operator class,
  ``ceil(uses / available_units)``.

The paper's two accumulators fall straight out:

* naive ``sum += x[i]``: a self-cycle through the 7-cycle double adder with
  distance 1 → ``RecMII = ceil(7/1) = 7``;
* Listing 1 ``values[i%7] += x[i]``: the same adder cycle but the
  dependence distance is 7 (each partial sum is touched every 7th
  iteration) → ``RecMII = ceil(7/7) = 1``.

The dependence graph is a :class:`networkx.DiGraph` whose nodes are
operations (with an ``op`` attribute naming an entry of
:data:`repro.hls.ops.OP_TABLE`) and whose edges carry a ``distance``
attribute (0 = same iteration, k = carried k iterations).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import networkx as nx

from repro.core.validation import check_count, check_index
from repro.errors import ValidationError
from repro.hls.ops import op

__all__ = ["LoopDependenceGraph", "ScheduleAnalysis", "analyse_loop"]


class LoopDependenceGraph:
    """Builder for a loop body's data-dependence graph.

    Example — the naive accumulation::

        g = LoopDependenceGraph()
        g.operation("load", "dmux")
        g.operation("acc", "dadd")
        g.depends("load", "acc")                    # same iteration
        g.depends("acc", "acc", distance=1)         # loop-carried
    """

    def __init__(self) -> None:
        self._g = nx.DiGraph()

    def operation(self, name: str, op_name: str) -> "LoopDependenceGraph":
        """Add an operation node using operator ``op_name``'s latency."""
        if name in self._g:
            raise ValidationError(f"duplicate operation {name!r}")
        spec = op(op_name)  # validates the mnemonic
        self._g.add_node(name, op=op_name, latency=spec.latency)
        return self

    def depends(
        self, src: str, dst: str, *, distance: int = 0
    ) -> "LoopDependenceGraph":
        """Add a dependence edge: ``dst`` consumes ``src``'s result
        ``distance`` iterations later (0 = same iteration)."""
        for n in (src, dst):
            if n not in self._g:
                raise ValidationError(f"unknown operation {n!r}")
        check_index(distance, "distance")
        if distance == 0 and src == dst:
            raise ValidationError(
                "a zero-distance self-dependence is unschedulable"
            )
        self._g.add_edge(src, dst, distance=distance)
        return self

    @property
    def graph(self) -> nx.DiGraph:
        """The underlying dependence graph."""
        return self._g

    def validate(self) -> None:
        """Reject graphs with zero-distance cycles (combinational loops)."""
        zero = nx.DiGraph(
            (u, v) for u, v, d in self._g.edges(data="distance") if d == 0
        )
        if zero.number_of_edges() and not nx.is_directed_acyclic_graph(zero):
            raise ValidationError(
                "zero-distance dependence cycle: the loop body is not "
                "schedulable in any II"
            )


@dataclass(frozen=True)
class ScheduleAnalysis:
    """Result of the II analysis.

    Attributes
    ----------
    rec_mii:
        Recurrence-constrained minimum II.
    res_mii:
        Resource-constrained minimum II.
    achieved_ii:
        ``max(rec_mii, res_mii)`` — what HLS reports for the loop.
    critical_cycle:
        The dependence cycle realising ``rec_mii`` (operation names), or
        ``()`` when the body is acyclic.
    body_latency:
        Longest zero-distance path latency (iteration latency lower bound).
    """

    rec_mii: int
    res_mii: int
    achieved_ii: int
    critical_cycle: tuple[str, ...]
    body_latency: float

    def describe(self) -> str:
        """One-line HLS-report-style summary."""
        culprit = (
            f" (cycle: {' -> '.join(self.critical_cycle)})"
            if self.critical_cycle
            else ""
        )
        return (
            f"achieved II={self.achieved_ii} "
            f"[RecMII={self.rec_mii}{culprit}, ResMII={self.res_mii}]"
        )


def analyse_loop(
    g: LoopDependenceGraph,
    *,
    unit_budget: dict[str, int] | None = None,
) -> ScheduleAnalysis:
    """Derive the achieved II of a pipelined loop.

    Parameters
    ----------
    g:
        The loop body's dependence graph.
    unit_budget:
        Operator-class instance counts (``{"dadd": 1, ...}``); operations
        whose class is absent are assumed fully parallel (HLS instantiates
        one core per operation unless told to share).
    """
    g.validate()
    graph = g.graph
    if graph.number_of_nodes() == 0:
        raise ValidationError("empty loop body")

    # RecMII: max over simple cycles of ceil(latency sum / distance sum).
    rec_mii = 1
    critical: tuple[str, ...] = ()
    for cycle in nx.simple_cycles(graph):
        nodes = list(cycle)
        lat = sum(graph.nodes[n]["latency"] for n in nodes)
        dist = 0
        for i, n in enumerate(nodes):
            nxt = nodes[(i + 1) % len(nodes)]
            dist += graph.edges[n, nxt]["distance"]
        if dist == 0:  # pragma: no cover - validate() rejects these
            raise ValidationError(f"zero-distance cycle {nodes}")
        mii = math.ceil(lat / dist)
        if mii > rec_mii:
            rec_mii = mii
            critical = tuple(nodes)

    # ResMII: ceil(uses / units) per shared operator class.
    res_mii = 1
    if unit_budget:
        uses: dict[str, int] = {}
        for _, data in graph.nodes(data=True):
            uses[data["op"]] = uses.get(data["op"], 0) + 1
        for op_name, units in unit_budget.items():
            check_count(units, f"unit budget for {op_name!r}")
            n_uses = uses.get(op_name, 0)
            if n_uses:
                res_mii = max(res_mii, math.ceil(n_uses / units))

    # Body latency: longest zero-distance path (weights on nodes).
    zero = nx.DiGraph()
    zero.add_nodes_from(graph.nodes(data=True))
    zero.add_edges_from(
        (u, v) for u, v, d in graph.edges(data="distance") if d == 0
    )
    body_latency = 0.0
    for n in nx.topological_sort(zero):
        preds = [zero.nodes[p]["_finish"] for p in zero.predecessors(n)]
        finish = (max(preds) if preds else 0.0) + zero.nodes[n]["latency"]
        zero.nodes[n]["_finish"] = finish
        body_latency = max(body_latency, finish)

    return ScheduleAnalysis(
        rec_mii=rec_mii,
        res_mii=res_mii,
        achieved_ii=max(rec_mii, res_mii),
        critical_cycle=critical,
        body_latency=body_latency,
    )


# ----------------------------------------------------------------------
# The paper's two loops, prebuilt
# ----------------------------------------------------------------------
def naive_accumulation_loop() -> LoopDependenceGraph:
    """``sum += hazard[i] * width[i]`` — the Xilinx library's loop."""
    g = LoopDependenceGraph()
    g.operation("load", "dmux")
    g.operation("mul", "dmul")
    g.operation("acc", "dadd")
    g.depends("load", "mul")
    g.depends("mul", "acc")
    g.depends("acc", "acc", distance=1)  # the II=7 culprit
    return g


def listing1_accumulation_loop(lanes: int = 7) -> LoopDependenceGraph:
    """``values[i % lanes] += ...`` — paper Listing 1.

    The partial-sum array turns the self-dependence distance into
    ``lanes``: each element is next touched ``lanes`` iterations later.
    """
    check_count(lanes, "lanes")
    g = LoopDependenceGraph()
    g.operation("load", "dmux")
    g.operation("mul", "dmul")
    g.operation("acc", "dadd")
    g.depends("load", "mul")
    g.depends("mul", "acc")
    g.depends("acc", "acc", distance=lanes)
    return g
