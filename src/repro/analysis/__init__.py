"""Analysis layer: metrics, paper tables and figures, sweeps, comparison.

``metrics``
    Throughput/speedup/efficiency arithmetic shared by tables and benches.
``tables``
    Regenerate paper Table I (engine versions) and Table II (scaling and
    power) from the simulated engines and calibrated CPU models.
``figures``
    Regenerate paper Figures 1-3 as DOT/ASCII topology diagrams extracted
    from the live engine networks.
``sweep``
    Generic parameter-sweep harness used by the ablation benchmarks.
``compare``
    Paper-vs-measured comparison records with tolerance checking — the
    machinery behind EXPERIMENTS.md.
``cluster``
    "Table II extended": aggregate throughput/power rows for multi-card
    cluster configurations (:mod:`repro.cluster`).
``risk``
    The portfolio risk report: scenario VaR/ES, CS01/IR01 ladders and
    cluster roll-up for the ``repro-cds risk`` subcommand
    (:mod:`repro.risk`).
``serving``
    The live serving report: tail latency, goodput and shed rates of a
    micro-batched request replay for the ``repro-cds serve`` subcommand
    (:mod:`repro.serving`).
``simulate``
    The mixed-workload simulation report: bursty quotes plus a periodic
    risk-refresh heartbeat sharing one cluster on one :mod:`repro.sim`
    clock, for the ``repro-cds simulate`` subcommand.
``chaos``
    The resilience matrix: the serving workload replayed under a family
    of :mod:`repro.faults` plans, rolled up into one recovery table for
    the ``repro-cds chaos`` subcommand.
``gateway``
    The multi-tenant gateway report: consistent-hash routing, per-tenant
    admission and quote-cache economics over N servers for the
    ``repro-cds gateway`` subcommand (:mod:`repro.gateway`).
"""

from repro.analysis.metrics import (
    options_per_watt,
    relative_error,
    speedup,
)
from repro.analysis.tables import (
    Table1Row,
    Table2Row,
    generate_table1,
    generate_table2,
    render_table1,
    render_table2,
)
from repro.analysis.figures import (
    figure1_baseline,
    figure2_dataflow,
    figure3_vectorised,
)
from repro.analysis.sweep import SweepResult, sweep
from repro.analysis.compare import Comparison, compare_ratio, shape_report
from repro.analysis.latency import LatencyProfile, measure_streaming_latency
from repro.analysis.capacity import (
    DeploymentPlan,
    compare_platforms,
    plan_cpu_deployment,
    plan_fpga_deployment,
)
from repro.analysis.cluster import (
    ClusterTableRow,
    generate_cluster_table,
    render_cluster_table,
)
from repro.analysis.risk import (
    RiskReport,
    generate_risk_report,
    render_risk_report,
    risk_report_dict,
)
from repro.analysis.serving import (
    ServingReport,
    generate_serving_report,
    render_serving_report,
    serving_report_dict,
)
from repro.analysis.simulate import (
    SimulationReport,
    generate_simulation_report,
    render_simulation_report,
    simulation_report_dict,
)
from repro.analysis.chaos import (
    DEFAULT_CHAOS_MATRIX,
    ChaosReport,
    ChaosRow,
    ChaosScenario,
    chaos_report_dict,
    generate_chaos_report,
    render_chaos_report,
)
from repro.analysis.gateway import (
    GatewayReport,
    gateway_report_dict,
    generate_gateway_report,
    render_gateway_report,
)

__all__ = [
    "speedup",
    "options_per_watt",
    "relative_error",
    "Table1Row",
    "Table2Row",
    "generate_table1",
    "generate_table2",
    "render_table1",
    "render_table2",
    "figure1_baseline",
    "figure2_dataflow",
    "figure3_vectorised",
    "SweepResult",
    "sweep",
    "Comparison",
    "compare_ratio",
    "shape_report",
    "LatencyProfile",
    "measure_streaming_latency",
    "DeploymentPlan",
    "plan_fpga_deployment",
    "plan_cpu_deployment",
    "compare_platforms",
    "ClusterTableRow",
    "generate_cluster_table",
    "render_cluster_table",
    "RiskReport",
    "generate_risk_report",
    "render_risk_report",
    "risk_report_dict",
    "ServingReport",
    "generate_serving_report",
    "render_serving_report",
    "serving_report_dict",
    "SimulationReport",
    "generate_simulation_report",
    "render_simulation_report",
    "simulation_report_dict",
    "DEFAULT_CHAOS_MATRIX",
    "ChaosReport",
    "ChaosRow",
    "ChaosScenario",
    "chaos_report_dict",
    "generate_chaos_report",
    "render_chaos_report",
    "GatewayReport",
    "generate_gateway_report",
    "render_gateway_report",
    "gateway_report_dict",
]
