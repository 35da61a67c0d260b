"""FabricPolicy defaults, validation and the FlowConfig bridge."""

import pytest

from repro.resilience import FabricPolicy


def test_defaults_are_valid_and_deadline_free():
    policy = FabricPolicy()
    assert policy.task_timeout == 0.0
    assert policy.task_retries == 1
    assert policy.pool_rebuilds == 2


@pytest.mark.parametrize("kwargs", [
    {"task_timeout": -1.0},
    {"task_retries": -1},
    {"pool_rebuilds": -1},
])
def test_invalid_budgets_rejected(kwargs):
    with pytest.raises(ValueError):
        FabricPolicy(**kwargs)


def test_from_flow_config_reads_the_fabric_fields():
    from repro.cts.framework import FlowConfig

    config = FlowConfig(task_timeout=3.5, task_retries=2, pool_rebuilds=0)
    policy = FabricPolicy.from_flow_config(config)
    assert policy.task_timeout == 3.5
    assert policy.task_retries == 2
    assert policy.pool_rebuilds == 0


def test_from_flow_config_validates():
    class Bad:
        task_timeout = -2.0
        task_retries = 1
        pool_rebuilds = 1

    with pytest.raises(ValueError):
        FabricPolicy.from_flow_config(Bad())
