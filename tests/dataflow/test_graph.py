"""Unit tests for topology graphs."""

import json
import os
import subprocess
import sys
import textwrap

import pytest

import repro
from repro.analysis.figures import (
    figure1_baseline,
    figure2_dataflow,
    figure3_vectorised,
)
from repro.dataflow.engine import Simulator, collector, feeder, transformer
from repro.dataflow.graph import DataflowGraph, GraphEdge, GraphNode
from repro.errors import SimulationError
from repro.workloads.scenarios import PaperScenario


@pytest.fixture
def chain_sim():
    sim = Simulator("chain")
    a = sim.stream("a", per_option=True)
    b = sim.stream("b")
    sim.process("src", feeder(a, [1]), writes=(a,))
    sim.process("mid", transformer(a, b, 1, lambda v: v), reads=(a,), writes=(b,))
    sim.process("dst", collector(b, 1, []), reads=(b,), group="drains")
    return sim


class TestFromSimulator:
    def test_nodes_and_edges(self, chain_sim):
        g = DataflowGraph.from_simulator(chain_sim)
        assert {n.name for n in g.nodes} == {"src", "mid", "dst"}
        assert {(e.src, e.dst) for e in g.edges} == {("src", "mid"), ("mid", "dst")}

    def test_per_option_flag_preserved(self, chain_sim):
        g = DataflowGraph.from_simulator(chain_sim)
        flags = {e.stream: e.per_option for e in g.edges}
        assert flags == {"a": True, "b": False}

    def test_unbound_stream_pseudo_nodes(self):
        sim = Simulator()
        sim.stream("dangling")
        g = DataflowGraph.from_simulator(sim)
        assert g.edges[0].src == "<input>"
        assert g.edges[0].dst == "<output>"


class TestAnalysis:
    def test_acyclic_chain(self, chain_sim):
        g = DataflowGraph.from_simulator(chain_sim)
        assert g.is_acyclic()
        assert g.topological_order() == ["src", "mid", "dst"]
        assert g.stage_depth() == 3

    def test_cycle_detection(self):
        g = DataflowGraph(name="cyc")
        g.nodes = [GraphNode("a"), GraphNode("b")]
        g.edges = [
            GraphEdge("a", "b", "s1", 2),
            GraphEdge("b", "a", "s2", 2),
        ]
        assert not g.is_acyclic()
        with pytest.raises(SimulationError):
            g.topological_order()

    def test_fan_in_out(self):
        g = DataflowGraph(name="fan")
        g.nodes = [GraphNode(n) for n in "abc"]
        g.edges = [
            GraphEdge("a", "b", "s1", 2),
            GraphEdge("a", "c", "s2", 2),
        ]
        assert g.fan_out("a") == 2
        assert g.fan_in("b") == 1
        assert g.fan_in("a") == 0

    def test_groups(self, chain_sim):
        g = DataflowGraph.from_simulator(chain_sim)
        assert g.groups() == {"drains": ["dst"]}


class TestRendering:
    def test_dot_contains_edges_and_colours(self, chain_sim):
        dot = DataflowGraph.from_simulator(chain_sim).to_dot()
        assert '"src" -> "mid"' in dot
        assert "color=red" in dot  # per-option stream
        assert "color=blue" in dot  # per-time-point stream
        assert dot.startswith("digraph")

    def test_dot_renders_groups_as_clusters(self, chain_sim):
        dot = DataflowGraph.from_simulator(chain_sim).to_dot()
        assert "subgraph cluster_0" in dot
        assert 'label="drains"' in dot

    def test_ascii_render(self, chain_sim):
        text = DataflowGraph.from_simulator(chain_sim).to_ascii()
        assert "src" in text and "dst" in text
        assert "==a==>" in text  # per-option marker
        assert "--b-->" in text  # per-time-point marker


def _analyses(g: DataflowGraph) -> list:
    return [g.is_acyclic(), g.topological_order(), g.stage_depth()]


class TestWithoutNetworkx:
    def test_import_and_analyses_without_networkx(self):
        """``import repro`` needs only the declared dependencies: with
        networkx blocked, the engine network's graph still analyses."""
        child = textwrap.dedent(
            """
            import json, sys
            sys.modules["networkx"] = None
            import repro
            from repro.analysis.figures import figure3_vectorised
            from repro.workloads.scenarios import PaperScenario
            g = figure3_vectorised(PaperScenario(n_rates=64, n_options=2))
            print(json.dumps([g.is_acyclic(), g.topological_order(), g.stage_depth()]))
            """
        )
        env = dict(os.environ)
        src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.run(
            [sys.executable, "-c", child],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        acyclic, order, depth = json.loads(proc.stdout)
        g = figure3_vectorised(PaperScenario(n_rates=64, n_options=2))
        assert [acyclic, order, depth] == _analyses(g)
        assert acyclic and depth == 10
        assert order[0] == "timegrid" and order[-1] == "drain"


class TestAgreesWithNetworkx:
    """The graphlib analyses give networkx's answers, order included."""

    @staticmethod
    def _networkx(g: DataflowGraph) -> list:
        nx = pytest.importorskip("networkx")
        m = nx.MultiDiGraph()
        for node in g.nodes:
            m.add_node(node.name)
        for e in g.edges:
            m.add_edge(e.src, e.dst, key=e.stream)
        if not nx.is_directed_acyclic_graph(m):
            return [False]
        depth = nx.dag_longest_path_length(m) + 1 if m.nodes else 0
        return [True, list(nx.topological_sort(m)), depth]

    @pytest.mark.parametrize("replication", [1, 2, 6])
    def test_engine_networks(self, replication):
        sc = PaperScenario(n_rates=64, n_options=2, replication_factor=replication)
        g = figure3_vectorised(sc) if replication > 1 else figure2_dataflow(sc)
        assert _analyses(g) == self._networkx(g)

    def test_flowchart(self):
        g = figure1_baseline()
        assert _analyses(g) == self._networkx(g)

    def test_parallel_edges_and_pseudo_nodes(self):
        g = DataflowGraph(name="multi")
        g.nodes = [GraphNode(n) for n in "dcba"]
        g.edges = [
            GraphEdge("a", "c", "s1", 2),
            GraphEdge("a", "b", "s2", 2),
            GraphEdge("a", "c", "s3", 2),
            GraphEdge("b", "c", "s4", 2),
            GraphEdge("<input>", "d", "s5", 2),
            GraphEdge("c", "<output>", "s6", 2),
        ]
        assert _analyses(g) == self._networkx(g)
