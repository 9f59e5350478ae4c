"""The benchmark tracer's layer list names functions the package still has."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def traced_layers():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.LAYERS


@pytest.mark.parametrize("layer", traced_layers())
def test_each_traced_layer_resolves_to_a_package_callable(layer):
    # a refactor that deletes or renames a traced function would otherwise only lower the
    # traced run's layer counts
    module_name, attr = layer.split(".")
    assert callable(getattr(importlib.import_module(f"fringelab.{module_name}"), attr, None))
