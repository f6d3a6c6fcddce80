"""Per-layer metrics of one traced pass, derived from its spans.

A layer's self time is its spans' durations minus the parts their
child spans cover, so the self times of all layers plus the pass's
unattributed glue add up to the traced pass's wall time exactly.
``claims.sampler_self_s`` is reported on its own: it is the time
``collect_measurements`` spends outside every child layer, and the
``claims.self_s`` figure excludes it.
"""

from __future__ import annotations

from typing import Dict, Iterable, List

from probe import ATTR, CHILD_S, END, LAYER, NAME, PARENT, PASS, START, Probe

LAYERS = ("graphs", "radio.engine", "radio.batch", "analysis", "exec.cache",
          "claims")

COLLECT = "claims.collect_measurements"
FIT = ("claims.fit_polylog", "claims.bootstrap_exponent_ci")

#: Claim groups of the quick tier, by first claim id, in sampling order.
CLAIM_GROUPS = (
    "thm2-cd-energy",
    "thm2-beeping-equivalence",
    "thm1-energy-lower-bound",
    "lemma8-backoff-energy",
    "thm10-nocd-energy",
    "thm2-thm10-failure-rate",
    "lemma5-residual-shrinkage",
    "sec5-energy-classes",
    "lemma14-15-competition",
    "churn-repair-cost",
    "channel_sweep",
)

#: Reasons ``run_trials`` gives for running a battery on the scalar
#: engine (``engine.batch.fallback.<reason>`` registry counters).
FALLBACK_REASONS = ("too-few-trials", "multichannel", "no-table", "shape",
                    "model", "faults", "churn")


def _outermost(spans: List[list], index: int, names) -> bool:
    """True when no ancestor of span ``index`` has a name in ``names``."""
    parent = spans[index][PARENT]
    while parent >= 0:
        if spans[parent][NAME] in names:
            return False
        parent = spans[parent][PARENT]
    return True


def _inclusive(spans: List[list], indices: Iterable[int], names) -> float:
    return sum(
        spans[i][END] - spans[i][START]
        for i in indices
        if _outermost(spans, i, names)
    )


def pass_metrics(probe: Probe, pass_id: int, wall_s: float,
                 counters: Dict[str, int], rss_growth_kb: int) -> Dict[str, float]:
    """Every per-layer figure of traced pass ``pass_id``.

    ``rss_growth_kb`` is how far the pass raised the process's peak
    RSS; per batch-kernel slot it is the cell's incremental memory,
    meaningful on the first pass of a process only.
    """
    spans = probe.spans
    ids = [i for i, s in enumerate(spans) if s[PASS] == pass_id]
    by_name: Dict[str, List[int]] = {}
    self_s = dict.fromkeys(LAYERS, 0.0)
    sampler_self = 0.0
    for i in ids:
        span = spans[i]
        by_name.setdefault(span[NAME], []).append(i)
        own = span[END] - span[START] - span[CHILD_S]
        if span[NAME] == COLLECT:
            sampler_self += own
        else:
            self_s[span[LAYER]] += own

    def named(*names: str) -> List[int]:
        return [i for name in names for i in by_name.get(name, ())]

    graph_names = {spans[i][NAME] for i in ids if spans[i][LAYER] == "graphs"}
    graph_ids = [i for i in named(*graph_names)
                 if _outermost(spans, i, graph_names)]
    engine_ids = named("radio.engine.run_protocol")
    uncached = [i for i in engine_ids if spans[i][ATTR] == "uncached"]
    record = probe.record
    trials = max(1, record.trials)
    engine_s = _inclusive(spans, engine_ids, ())
    rounds = counters.get("engine.rounds.processed", 0)
    fast = (counters.get("engine.rounds.zero_tx", 0)
            + counters.get("engine.rounds.one_tx", 0))

    metrics = {
        "graphs.build_s": _inclusive(spans, graph_ids, ()),
        "graphs.build_calls": len(graph_ids),
        "graphs.builds_per_trial": len(graph_ids) / trials,
        "radio.engine.run_s": engine_s,
        "radio.engine.runs": len(engine_ids),
        "radio.engine.rounds": probe.engine_rounds,
        "radio.engine.us_per_round": (
            1e6 * engine_s / probe.engine_rounds if probe.engine_rounds else 0.0
        ),
        "radio.engine.fastpath_frac": fast / rounds if rounds else 0.0,
        "radio.engine.scatter_bincount": counters.get(
            "engine.rounds.scatter_bincount", 0
        ),
        "radio.batch.run_s": _inclusive(spans, named("radio.batch.run_batch"), ()),
        "radio.batch.vector_rounds": counters.get("engine.batch.vector_rounds", 0),
        "radio.batch.bytes_per_slot": (
            1024.0 * rss_growth_kb / probe.batch_slots if probe.batch_slots else 0.0
        ),
        "analysis.validate_s": _inclusive(
            spans, named("analysis.validate_run"), ("analysis.validate_run",)
        ),
        "exec.cache.get_s": _inclusive(spans, named("exec.cache.get"), ()),
        "exec.cache.put_s": _inclusive(spans, named("exec.cache.put"), ()),
        "exec.cache.hit_rate": (
            probe.cache_hits / probe.cache_gets if probe.cache_gets else 0.0
        ),
        "claims.uncached_runs": len(uncached),
        "claims.uncached_s": _inclusive(spans, uncached, ()),
        "claims.fit_s": _inclusive(spans, named(*FIT), FIT),
        "claims.sampler_self_s": sampler_self,
        "sim.trials": record.trials,
        "sim.rounds": record.rounds,
        "sim.expected_invalid": record.expected_invalid,
        "sim.unexpected_invalid": record.unexpected_invalid,
        "trace.spans": len(ids),
        "trace.wall_s": wall_s,
        "trace.unattributed_s": wall_s - sum(self_s.values()) - sampler_self,
    }
    for layer, seconds in self_s.items():
        metrics[f"{layer}.self_s"] = seconds
    collect = {group: 0.0 for group in CLAIM_GROUPS}
    for i in named(COLLECT):
        group = spans[i][ATTR]
        collect[group] = collect.get(group, 0.0) + spans[i][END] - spans[i][START]
    for group, seconds in collect.items():
        metrics[f"claims.collect_s.{group}"] = seconds
    for reason in FALLBACK_REASONS:
        metrics[f"exec.batch_fallbacks.{reason}"] = counters.get(
            f"engine.batch.fallback.{reason}", 0
        )
    return metrics
