"""Summary statistics and the regression verdicts of the benchmark.

Pure functions over lists of floats, so the rules can be tested without
running a workload.
"""

from __future__ import annotations

import math
import statistics

#: Candidate tail percentiles, in tenths of a percent.
_TAIL_LADDER_PERMILLE = (500, 750, 900, 950, 990, 999)

#: A tail percentile must leave at least this many samples beyond it.
TAIL_MIN_BEYOND = 10

#: Fewest seed-matched pairs on which a gain may be claimed.
MIN_PAIRS = 10

#: Share of the pairs the change must win to claim a gain.
WIN_SHARE = 0.9


def tail_percentile(n_samples: int) -> float | None:
    """Highest ladder percentile with at least 10 of ``n_samples`` beyond it.

    Returns ``None`` when even the median leaves fewer than 10 samples beyond.
    """
    best = None
    for permille in _TAIL_LADDER_PERMILLE:
        if n_samples * (1000 - permille) >= TAIL_MIN_BEYOND * 1000:
            best = permille / 10.0
    return best


def percentile(values: list[float], pct: float) -> float:
    """Linearly interpolated percentile (numpy's default ``linear`` method)."""
    if not values:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(values)
    rank = pct / 100.0 * (len(ordered) - 1)
    low = math.floor(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def relative_iqr(values: list[float]) -> float:
    """Distance between the first and third quartile over the median.

    Quartiles as ``statistics.quantiles(values, n=4)`` gives them.
    """
    if len(values) < 2:
        return math.inf
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    if med == 0.0:
        return 0.0 if q3 == q1 else math.inf
    return (q3 - q1) / abs(med)


def verdict(
    base: dict[int, float], new: dict[int, float], better: str, bound: float
) -> tuple[str, str]:
    """Classify one metric on one workload as better, worse, unchanged or unresolved.

    ``base`` and ``new`` map a seed to the metric's value on the parent and on
    the change; seeds present on both sides form the pairs.  ``better`` is
    ``"lower"`` or ``"higher"`` and ``bound`` the share of the parent's median
    by which the change may be worse.

    * better: at least :data:`MIN_PAIRS` pairs, the change wins at least
      :data:`WIN_SHARE` of them (ties count for neither), and the medians
      differ by more than the parent's interquartile range;
    * unresolved: the parent's own spread is wider than ``bound`` and not
      every run of the change beats every run of the parent, or no data;
    * worse: the change's median is worse than the parent's by more than
      ``bound``;
    * unchanged: otherwise.

    Returns the verdict and a one-line reason.
    """
    if better not in ("lower", "higher"):
        raise ValueError(f"better must be 'lower' or 'higher', got {better!r}")
    if not base or not new:
        return "unresolved", "no runs on one side"
    sign = 1.0 if better == "lower" else -1.0  # sign * (b - x) > 0: x improves on b
    seeds = sorted(set(base) & set(new))
    wins = sum(1 for s in seeds if sign * (base[s] - new[s]) > 0.0)
    base_vals, new_vals = list(base.values()), list(new.values())
    med_base, med_new = statistics.median(base_vals), statistics.median(new_vals)
    if len(base_vals) >= 2:
        q1, _, q3 = statistics.quantiles(base_vals, n=4)
        iqr = q3 - q1
    else:
        iqr = math.inf
    gain = sign * (med_base - med_new)
    stats = f"pairs={len(seeds)} wins={wins} median {med_base:.6g} -> {med_new:.6g}"
    if len(seeds) >= MIN_PAIRS and wins >= WIN_SHARE * len(seeds) and gain > iqr:
        return "better", stats
    all_better = all(sign * (b - x) > 0.0 for b in base_vals for x in new_vals)
    if relative_iqr(base_vals) > bound and not all_better:
        return "unresolved", stats + f"; parent spread {relative_iqr(base_vals):.3f} > bound {bound}"
    scale = abs(med_base) if med_base != 0.0 else 1.0
    if -gain / scale > bound:
        return "worse", stats + f"; worse by {-gain / scale:.3f} > bound {bound}"
    return "unchanged", stats
