"""Tests of the benchmark's own helpers: tail rule, self time, verdicts."""

from __future__ import annotations

import sys
import textwrap
from pathlib import Path

import pytest
import yaml

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from speed import REFERENCE_S, scale_each  # noqa: E402
from stats import percentile, relative_iqr, tail_percentile, verdict  # noqa: E402
from tracing import Tracer, self_times, summarize  # noqa: E402
from workloads import _num  # noqa: E402


@pytest.mark.parametrize(
    ("n", "expected"),
    [(9, None), (19, None), (20, 50.0), (39, 50.0), (40, 75.0), (99, 75.0), (100, 90.0),
     (199, 90.0), (200, 95.0), (999, 95.0), (1000, 99.0), (9999, 99.0), (10000, 99.9)],
)
def test_tail_percentile_leaves_ten_samples_beyond(n, expected):
    assert tail_percentile(n) == expected


def test_percentile_interpolates_linearly():
    values = [4.0, 1.0, 3.0, 2.0]
    assert percentile(values, 0) == 1.0
    assert percentile(values, 50) == 2.5
    assert percentile(values, 100) == 4.0
    assert percentile(values, 75) == pytest.approx(3.25)


def test_self_time_subtracts_children_at_every_depth():
    spans = [
        (0, 0.0, 10.0, -1, 0),  # root
        (1, 1.0, 3.0, 0, 0),  # child
        (1, 4.0, 8.0, 0, 0),  # child with a grandchild
        (2, 5.0, 6.0, 2, 0),  # grandchild
        (0, 20.0, 21.0, -1, 1),  # another operation's root
    ]
    assert self_times(spans) == pytest.approx([4.0, 2.0, 3.0, 1.0, 1.0])
    groups = summarize(spans, [("cli", "main"), ("gaussian", "f"), ("oracle", "g")], group_of=lambda op: op)
    assert groups[0]["layers"]["cli"] == {"calls": 1, "self_s": pytest.approx(4.0)}
    assert groups[0]["layers"]["gaussian"] == {"calls": 2, "self_s": pytest.approx(5.0)}
    assert groups[0]["root_s"] == pytest.approx(10.0)
    # self times of a group add up to the time inside its root spans
    total = sum(entry["self_s"] for entry in groups[0]["layers"].values())
    assert total == pytest.approx(groups[0]["root_s"])
    assert groups[1]["root_s"] == pytest.approx(1.0)


def test_tracer_rebinds_imported_names_and_restores_them(tmp_path, monkeypatch):
    package = tmp_path / "tracedpkg"
    package.mkdir()
    (package / "__init__.py").write_text("from .low import leaf\n")
    (package / "low.py").write_text("def leaf(x):\n    return x + 1\n\nclass Thing:\n    pass\n")
    (package / "high.py").write_text(
        textwrap.dedent(
            """
            from .low import leaf

            def top(x):
                return leaf(x) * 2

            def _private(x):
                return leaf(x)
            """
        )
    )
    monkeypatch.syspath_prepend(str(tmp_path))
    import tracedpkg.high as high
    import tracedpkg.low as low

    original = low.leaf
    tracer = Tracer(package="tracedpkg", layers=("low", "high"))
    assert tracer.install() == 4  # leaf in low, high and the package; top in high
    tracer.op_id = 7
    assert high.top(1) == 4
    assert high._private(1) == 2
    tracer.uninstall()
    assert low.leaf is original and high.leaf is original
    assert high.top(1) == 4  # untraced call records nothing
    names = [tracer.functions[fid] for fid, *_ in tracer.spans]
    assert names == [("high", "top"), ("low", "leaf"), ("low", "leaf")]
    top, inner, direct = tracer.spans
    assert top[3] == -1 and inner[3] == 0 and direct[3] == -1
    assert all(span[4] == 7 for span in tracer.spans)
    for mod in ("tracedpkg", "tracedpkg.low", "tracedpkg.high"):
        sys.modules.pop(mod, None)


def _runs(values):
    return {seed: value for seed, value in enumerate(values)}


BASE = [1.00, 1.02, 0.98, 1.01, 0.99, 1.03, 0.97, 1.00, 1.01, 0.99]


def test_verdict_better_needs_nine_tenths_wins_and_a_gap_beyond_the_iqr():
    faster = [v * 0.8 for v in BASE]
    assert verdict(_runs(BASE), _runs(faster), "lower", 0.1)[0] == "better"
    # the same gain on nine pairs is not enough to claim it
    assert verdict(_runs(BASE[:9]), _runs(faster[:9]), "lower", 0.1)[0] == "unchanged"
    # higher-is-better metrics read the other way
    assert verdict(_runs(BASE), _runs(faster), "higher", 0.1)[0] == "worse"


def test_verdict_gap_inside_the_parent_iqr_is_not_a_gain():
    slightly = [v - 0.005 for v in BASE]
    assert relative_iqr(BASE) > 0.005
    assert verdict(_runs(BASE), _runs(slightly), "lower", 0.1)[0] == "unchanged"


def test_verdict_worse_and_unresolved():
    assert verdict(_runs(BASE), _runs([v * 1.3 for v in BASE]), "lower", 0.1)[0] == "worse"
    assert verdict(_runs(BASE), _runs([v * 1.05 for v in BASE]), "lower", 0.1)[0] == "unchanged"
    noisy = [1.0, 1.5, 0.7, 1.2, 0.8, 1.4, 0.6, 1.1, 0.9, 1.3]
    assert verdict(_runs(noisy), _runs(noisy), "lower", 0.1)[0] == "unresolved"
    # a wide parent spread still resolves when every new run beats every old one:
    # a gain when the medians differ by more than the parent's IQR, else no change
    assert verdict(_runs(noisy), _runs([0.55] * 10), "lower", 0.1)[0] == "unchanged"
    assert verdict(_runs(noisy), _runs([0.3] * 10), "lower", 0.1)[0] == "better"
    assert verdict({}, _runs(BASE), "lower", 0.1)[0] == "unresolved"


@pytest.mark.parametrize("value", [1e-05, 1e-12, 49.123456, 0.654321, 5e6, 1.78e5, 2.0])
def test_yaml_numbers_round_trip(value):
    assert yaml.safe_load(f"x: {_num(value)}")["x"] == value


def test_scale_each_uses_the_kernel_times_around_each_operation():
    latencies = [1.0, 1.0, 1.0]
    assert scale_each(latencies, [REFERENCE_S] * 4) == pytest.approx(latencies)
    # the machine ran at half speed around the last operation only
    slow = 2.0 * REFERENCE_S
    kernel = [REFERENCE_S, REFERENCE_S, slow, slow]
    assert scale_each(latencies, kernel) == pytest.approx([1.0, 1.0, 0.5])
    with pytest.raises(ValueError):
        scale_each(latencies, kernel[:3])
