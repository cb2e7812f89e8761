"""Unit tests for the serving workload builders."""

import pytest

from repro.errors import ValidationError
from repro.gateway import make_tenant_stream
from repro.serving import make_market_tape, make_request_stream

INF, NAN = float("inf"), float("nan")


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


@pytest.mark.parametrize("make", [make_request_stream, make_tenant_stream])
@pytest.mark.parametrize(
    "keywords, match",
    [
        pytest.param(
            {"quote_deadline_s": (1e-3, INF)},
            r"quote_deadline_s must satisfy 0 < lo <= hi < inf, got \(0\.001, inf\)",
            id="inf",
        ),
        pytest.param(
            {"reval_deadline_s": (NAN, 5e-2)}, "reval_deadline_s must satisfy", id="nan"
        ),
        pytest.param(
            {"var_deadline_s": (2e-1, 5e-2)}, "var_deadline_s must satisfy", id="lo>hi"
        ),
        pytest.param(
            {"quote_deadline_s": (0.0, 2e-2)}, "quote_deadline_s must satisfy", id="lo=0"
        ),
        pytest.param(
            {"mix": (0.5, 0.5, 0.5)}, "mix must be three non-negative", id="mix"
        ),
        # Within np.isclose of 1 but beyond Generator.choice's tolerance.
        pytest.param(
            {"mix": (0.9, 0.1, 5e-6)},
            r"mix must be three non-negative .* got \(0\.9, 0\.1, 5e-06\)",
            id="mix-sum",
        ),
    ],
)
def test_bad_stream_payloads_rejected_naming_them(make, keywords, match):
    """Both stream generators refuse a bad mix or deadline range with a
    ValidationError naming it, before NumPy sees it."""
    with pytest.raises(ValidationError, match=match):
        make(20, rate_hz=1000.0, n_states=4, n_positions=4, **keywords)
