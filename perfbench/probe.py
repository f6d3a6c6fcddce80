"""Outside-in instrumentation of the program's public layer functions.

The benchmark never edits the program.  Instead a :class:`Probe` swaps
each layer's public functions for thin wrappers, found by identity in
every loaded ``repro`` module (so ``from x import f`` bindings are
covered too), and puts the originals back on exit.

Two kinds of wrapper exist:

* *check hooks* run in every pass, traced or not.  They see each
  ``run_trials`` summary, each cache-backed ``TrialExecutor.execute``
  result and each engine run made outside those two callers, and fold
  every trial into the pass's fingerprint and failure counts.  They do
  no timing, so an untraced pass pays microseconds per battery.
* *spans* exist only in traced passes.  Each records its name, layer,
  start, end, parent span and pass id in memory; self times and the
  per-layer counters are derived from them after the pass.
"""

from __future__ import annotations

import functools
import hashlib
import json
import sys
import time
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

#: Layer name -> (module, attribute) pairs whose calls become spans.
#: Class methods are given as ``Class.method``.
LAYER_FUNCTIONS: Dict[str, List[Tuple[str, str]]] = {
    "graphs": [("repro.analysis.workloads", "build_workload")],
    "radio.engine": [("repro.radio.engine", "run_protocol")],
    "radio.batch": [("repro.radio.batch.engine", "run_batch")],
    "analysis": [
        ("repro.analysis.runner", "run_trials"),
        ("repro.analysis.validation", "validate_run"),
    ],
    "exec.cache": [
        ("repro.exec.cache", "ResultCache.get"),
        ("repro.exec.cache", "ResultCache.put"),
    ],
    "claims": [
        ("repro.claims.verify", "verify_claims"),
        ("repro.claims.sampler", "collect_measurements"),
        ("repro.claims.fitting", "fit_polylog"),
        ("repro.claims.fitting", "bootstrap_exponent_ci"),
        ("repro.claims.verdict", "evaluate_claim"),
    ],
}

#: Graph generator modules: every public ``*_graph`` function is a span.
GENERATOR_MODULES = ("repro.graphs.generators", "repro.graphs.streaming")

#: Claim groups whose invalid trials are the point of the experiment:
#: Theorem 1's budget harness runs ``sync-coin`` below the budget it
#: needs, so it fails on purpose.
EXPECTED_INVALID_GROUPS = {
    "thm1-energy-lower-bound": "Thm 1 budget harness fails by design",
}

# Span record slots (lists, not objects: a traced pass makes ~10^4).
NAME, LAYER, START, END, PARENT, PASS, CHILD_S, ATTR = range(8)

Hook = Callable[[tuple, dict, Optional[list]], Iterator[None]]


def _resolve(module_name: str, attribute: str) -> Tuple[Any, str, Any]:
    """(owner object, attribute name, current value) for a dotted target."""
    owner: Any = sys.modules[module_name]
    *path, name = attribute.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, name, getattr(owner, name)


def _arg(args: tuple, kwargs: dict, position: int, name: str) -> Any:
    return args[position] if len(args) > position else kwargs[name]


class PassRecord:
    """What the check hooks saw during one pass: the simulated results."""

    def __init__(self) -> None:
        self._digest = hashlib.sha256()
        self.trials = 0
        self.rounds = 0
        self.expected_invalid = 0
        self.unexpected_invalid = 0
        self.quarantined = 0

    def add_trial(self, seed, valid, mis_size, rounds, max_energy) -> None:
        self._digest.update(
            f"{seed},{int(bool(valid))},{mis_size},{rounds},{max_energy};".encode()
        )
        self.trials += 1
        self.rounds += int(rounds)

    def add_record(self, seed, record) -> None:
        """A cache-backed trial whose record is not a ``TrialOutcome``."""
        body = json.dumps(record, sort_keys=True, default=repr)
        self._digest.update(f"{seed},{body};".encode())
        self.trials += 1
        if isinstance(record, dict):
            self.rounds += int(record.get("rounds", 0))

    @property
    def fingerprint(self) -> str:
        return self._digest.hexdigest()


class Probe:
    """Install check hooks (always) and spans (while ``traced`` is set)."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.stack: List[int] = []
        self._patches: List[Tuple[Any, str, Any]] = []
        # Context the check hooks need: the claim group being sampled,
        # and how deep the call is inside callers that fold trials.
        self._group: Optional[str] = None
        self._run_trials_depth = 0
        self._folded_depth = 0
        self.start_pass(-1, False)

    def start_pass(self, pass_id: int, traced: bool) -> PassRecord:
        """Reset the per-pass state; spans of earlier passes are kept."""
        self.pass_id = pass_id
        self.traced = traced
        self.record = PassRecord()
        # Layer counters only a traced pass collects.
        self.cache_gets = 0
        self.cache_hits = 0
        self.engine_rounds = 0
        #: Node-trial slots the batch kernel ran (n x trials per call).
        self.batch_slots = 0
        return self.record

    # ------------------------------------------------------------------
    # Installation
    # ------------------------------------------------------------------

    def __enter__(self) -> "Probe":
        hooks: Dict[Tuple[str, str], Hook] = {
            ("repro.claims.sampler", "collect_measurements"): self._hook_group,
            ("repro.analysis.runner", "run_trials"): self._hook_run_trials,
            ("repro.exec.executor", "TrialExecutor.execute"): self._hook_execute,
            ("repro.radio.engine", "run_protocol"): self._hook_engine,
            ("repro.radio.batch.engine", "run_batch"): self._hook_batch,
            ("repro.exec.cache", "ResultCache.get"): self._hook_cache_get,
        }
        layers = {
            target: layer
            for layer, targets in LAYER_FUNCTIONS.items()
            for target in targets
        }
        for module_name in GENERATOR_MODULES:
            module = sys.modules[module_name]
            for name in module.__all__:
                if name.endswith("_graph"):
                    layers[(module_name, name)] = "graphs"
        try:
            for target in sorted(set(hooks) | set(layers)):
                self._patch(target, layers.get(target), hooks.get(target))
        except BaseException:
            self.__exit__()
            raise
        return self

    def __exit__(self, *exc) -> None:
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()

    def _patch(self, target, layer: Optional[str], hook: Optional[Hook]) -> None:
        module_name, attribute = target
        owner, name, original = _resolve(module_name, attribute)
        span_name = f"{layer}.{name}" if layer else name
        wrapper = self._wrap(original, span_name, layer, hook)
        self._patches.append((owner, name, original))
        setattr(owner, name, wrapper)
        if owner is not sys.modules[module_name]:
            return  # a method: patching the class covers every caller
        for module_key, module in list(sys.modules.items()):
            if module is owner or not module_key.startswith("repro"):
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    self._patches.append((module, key, original))
                    setattr(module, key, wrapper)

    def _wrap(self, fn: Callable, name: str, layer: Optional[str],
              hook: Optional[Hook]) -> Callable:
        probe = self
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = None
            if layer is not None and probe.traced:
                parent = probe.stack[-1] if probe.stack else -1
                rec = [name, layer, 0.0, 0.0, parent, probe.pass_id, 0.0, None]
            gen = hook(args, kwargs, rec) if hook is not None else None
            if gen is not None:
                next(gen)
            if rec is not None:
                spans = probe.spans
                probe.stack.append(len(spans))
                spans.append(rec)
                rec[START] = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                if gen is not None:
                    gen.close()  # restores the hook's context
                raise
            finally:
                if rec is not None:
                    rec[END] = end = clock()
                    probe.stack.pop()
                    if parent >= 0:
                        spans[parent][CHILD_S] += end - rec[START]
            if gen is not None:
                try:
                    gen.send(result)
                except StopIteration:
                    pass
            return result

        return wrapper

    # ------------------------------------------------------------------
    # Check hooks: generators that run up to ``yield`` before the call,
    # receive the call's result, and restore their context in
    # ``finally`` even when the call raised.
    # ------------------------------------------------------------------

    def _hook_group(self, args, kwargs, rec):
        claims = _arg(args, kwargs, 1, "claims")
        previous, self._group = self._group, claims[0].claim_id
        if rec is not None:
            rec[ATTR] = self._group
        try:
            yield
        finally:
            self._group = previous

    def _hook_run_trials(self, args, kwargs, rec):
        self._folded_depth += 1
        self._run_trials_depth += 1
        try:
            summary = yield
        finally:
            self._folded_depth -= 1
            self._run_trials_depth -= 1
        expected = self._group in EXPECTED_INVALID_GROUPS
        for outcome in summary.outcomes:
            self.record.add_trial(
                outcome.seed,
                outcome.valid,
                outcome.mis_size,
                outcome.rounds,
                outcome.max_energy,
            )
            if outcome.valid:
                continue
            if expected:
                self.record.expected_invalid += 1
            else:
                self.record.unexpected_invalid += 1
        self.record.quarantined += len(summary.quarantined)

    def _hook_execute(self, args, kwargs, rec):
        # A cache-backed battery outside run_trials (the backoff and
        # churn collectors) folds its records; anything else leaves its
        # trials to run_trials or to the engine hook.
        folds = kwargs.get("cache") is not None and not self._run_trials_depth
        self._folded_depth += folds
        try:
            results = yield
        finally:
            self._folded_depth -= folds
        if folds:
            for seed, record in zip(_arg(args, kwargs, 2, "seeds"), results):
                self.record.add_record(seed, record)

    def _hook_engine(self, args, kwargs, rec):
        result = yield
        if rec is not None:
            self.engine_rounds += result.rounds
        if self._folded_depth:
            return
        # An engine run no cache can serve (the claims harnesses).
        self.record.add_trial(
            result.seed,
            result.is_valid_mis(),
            len(result.mis),
            result.rounds,
            result.max_energy,
        )
        if rec is not None:
            rec[ATTR] = "uncached"

    def _hook_batch(self, args, kwargs, rec):
        result = yield
        if rec is not None:
            self.batch_slots += result.num_nodes * result.trials

    def _hook_cache_get(self, args, kwargs, rec):
        record = yield
        if rec is not None:
            self.cache_gets += 1
            self.cache_hits += record is not None
