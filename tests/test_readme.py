"""The README's Python examples run as printed."""

import re
from pathlib import Path

import pytest

from eprbus.protocols import predict_epr_variance

README = Path(__file__).resolve().parents[1] / "README.md"


def test_python_examples_run_in_order():
    # the oracle example reuses the quick start's parameters, so the blocks
    # share one namespace
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), flags=re.M | re.S)
    assert len(blocks) == 2
    namespace = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)
    assert namespace["report"].delta_epr == pytest.approx(predict_epr_variance(1.0, 30.0), rel=1e-4)
    assert namespace["fidelity"] == pytest.approx(0.670, abs=5e-4)
