"""Unit tests for the serving workload builders."""

import pytest

from repro.errors import ValidationError
from repro.serving import make_market_tape


class TestMarketTape:
    @pytest.mark.parametrize("n_states", [0, -3, 2.5, float("nan"), True])
    def test_empty_tape_rejected_naming_n_states(self, serving_scenario, n_states):
        """The error names the tape length the caller set, not the
        scenario count of the Monte Carlo draw underneath."""
        with pytest.raises(
            ValidationError, match=f"n_states must be an integer >= 1, got {n_states}"
        ):
            make_market_tape(
                serving_scenario.yield_curve(),
                serving_scenario.hazard_curve(),
                n_states,
            )
