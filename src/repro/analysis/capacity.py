"""Capacity planning: sizing a deployment against a batch deadline.

The paper's motivation is operational: overnight batch pricing "must still
occur within specific time constraints" (Section I).  This module turns the
calibrated performance and power models into the planning calculation an
operator would run: given a book size and a deadline, how many engines (or
CPU cores, or cards) does the job need, and at what energy cost?
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.validation import check_count, check_positive_finite
from repro.cpu.scaling import CPUWorkEstimate
from repro.engines.builder import engine_resources
from repro.errors import ValidationError
from repro.fpga.floorplan import max_engines
from repro.workloads.scenarios import PaperScenario

__all__ = ["DeploymentPlan", "plan_fpga_deployment", "plan_cpu_deployment", "compare_platforms"]


@dataclass(frozen=True)
class DeploymentPlan:
    """One sized deployment option.

    Attributes
    ----------
    platform:
        Human-readable platform description.
    units:
        Engines (FPGA) or cores (CPU) engaged.
    cards:
        Accelerator cards (0 for CPU plans).
    options_per_second:
        Modelled sustained throughput.
    batch_seconds:
        Time to price the batch.
    meets_deadline:
        Whether ``batch_seconds`` fits the requested deadline.
    watts / energy_joules:
        Power draw and total energy of the batch.
    """

    platform: str
    units: int
    cards: int
    options_per_second: float
    batch_seconds: float
    meets_deadline: bool
    watts: float
    energy_joules: float

    def render(self) -> str:
        """One-line summary."""
        verdict = "OK" if self.meets_deadline else "MISSES DEADLINE"
        return (
            f"{self.platform:<34} {self.units:>3} unit(s) "
            f"{self.options_per_second:>12,.0f} opt/s  "
            f"{self.batch_seconds * 1e3:>9.1f} ms  {self.watts:>7.1f} W  "
            f"{self.energy_joules:>8.2f} J  [{verdict}]"
        )


def _fpga_rate_per_engine(scenario: PaperScenario) -> float:
    """Steady-state per-engine rate from the analytic bottleneck model.

    bottleneck cycles/option = time_points * table_scan / min(replication,
    effective ports); used instead of a discrete-event run so planning
    sweeps are instant.
    """
    n_points = scenario.options(1)[0].n_payments
    speedup = min(scenario.replication_factor, scenario.effective_uram_ports)
    cycles_per_option = n_points * scenario.n_rates / speedup
    return scenario.clock.frequency_hz / cycles_per_option


def plan_fpga_deployment(
    scenario: PaperScenario,
    n_options: int,
    deadline_seconds: float,
) -> DeploymentPlan:
    """Smallest FPGA deployment meeting the deadline.

    Fills cards engine-by-engine (each card holds what the floorplan
    allows) until the modelled batch time fits; raises if even an absurd
    number of cards cannot (deadline below PCIe floor).
    """
    check_count(n_options, "n_options")
    check_positive_finite(deadline_seconds, "deadline_seconds")
    per_engine = _fpga_rate_per_engine(scenario)
    engines_per_card = max_engines(
        scenario.device,
        engine_resources(scenario, replication=scenario.replication_factor),
    )
    pcie = scenario.pcie_seconds(n_options)

    for total_engines in range(1, engines_per_card * 64 + 1):
        cards = -(-total_engines // engines_per_card)
        on_card = min(total_engines, engines_per_card)
        contention = 1.0 + scenario.multi_engine_contention * (on_card - 1)
        rate = per_engine * total_engines / contention
        batch = n_options / rate + pcie * cards
        if batch <= deadline_seconds:
            watts = cards * scenario.fpga_power.watts(on_card)
            return DeploymentPlan(
                platform=f"Alveo U280 x{cards} ({scenario.precision} precision)",
                units=total_engines,
                cards=cards,
                options_per_second=rate,
                batch_seconds=batch,
                meets_deadline=True,
                watts=watts,
                energy_joules=watts * batch,
            )
    raise ValidationError(
        f"deadline {deadline_seconds}s unreachable even with 64 cards "
        "(below the PCIe floor?)"
    )


def plan_cpu_deployment(
    scenario: PaperScenario,
    n_options: int,
    deadline_seconds: float,
) -> DeploymentPlan:
    """Smallest CPU core count meeting the deadline (single socket).

    Returns the full-socket plan flagged ``meets_deadline=False`` when even
    all cores are too slow.
    """
    check_count(n_options, "n_options")
    check_positive_finite(deadline_seconds, "deadline_seconds")
    work = CPUWorkEstimate.for_option(
        scenario.options(1)[0], scenario.yield_curve(), scenario.hazard_curve()
    )
    cpu = scenario.cpu_perf.cpu
    for cores in range(1, cpu.cores + 1):
        rate = scenario.cpu_perf.rate(work, cores)
        batch = n_options / rate
        if batch <= deadline_seconds:
            watts = scenario.cpu_power.watts(cores)
            return DeploymentPlan(
                platform=cpu.name,
                units=cores,
                cards=0,
                options_per_second=rate,
                batch_seconds=batch,
                meets_deadline=True,
                watts=watts,
                energy_joules=watts * batch,
            )
    rate = scenario.cpu_perf.rate(work, cpu.cores)
    batch = n_options / rate
    watts = scenario.cpu_power.watts(cpu.cores)
    return DeploymentPlan(
        platform=cpu.name,
        units=cpu.cores,
        cards=0,
        options_per_second=rate,
        batch_seconds=batch,
        meets_deadline=False,
        watts=watts,
        energy_joules=watts * batch,
    )


def compare_platforms(
    scenario: PaperScenario,
    n_options: int,
    deadline_seconds: float,
) -> str:
    """Render FPGA vs CPU plans for one batch/deadline."""
    fpga = plan_fpga_deployment(scenario, n_options, deadline_seconds)
    cpu = plan_cpu_deployment(scenario, n_options, deadline_seconds)
    lines = [
        f"batch of {n_options:,} options, deadline {deadline_seconds * 1e3:.0f} ms:",
        "  " + fpga.render(),
        "  " + cpu.render(),
    ]
    if cpu.meets_deadline and fpga.energy_joules > 0:
        lines.append(
            f"  energy ratio CPU/FPGA: {cpu.energy_joules / fpga.energy_joules:.1f}x"
        )
    return "\n".join(lines)
