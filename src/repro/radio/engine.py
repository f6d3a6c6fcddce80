"""Synchronous radio-network round engine with sleep fast-forwarding.

The engine advances a per-node generator coroutine through discrete
rounds.  Its key property: **simulation cost is proportional to total
awake rounds, not elapsed rounds.**  Sleeping nodes are parked in a
round calendar keyed by their wake round, and the global clock jumps
straight to the next round in which *any* node is awake.  Since the
paper's algorithms are awake for only polylogarithmically many rounds
per node, even their ``O(log^3 n log Delta)``-round executions simulate
quickly.

Collision semantics per round (Section 1.1 of the paper):

* a transmitting node hears nothing (no sender-side detection),
* a listening node's observation is determined by how many of *its
  neighbors* transmit this round, mapped through the chosen
  :class:`~repro.radio.models.CollisionModel`.

Energy accounting is exact: one unit per transmit or listen round,
attributed to the node's current ledger component.

Hot-path structure (see "Engine internals" in ``docs/API.md``):

* **One round loop** — each populated round first picks one resolution
  shape: silence (no transmitter), a lone transmitter (membership in its
  neighborhood decides), a dict scatter (the round's transmitters are
  iterated once and a per-node transmitter count is tallied over their
  adjacency tuples at C speed, O(sum of deg(transmitter)) per round), or
  per channel (any nonzero-channel action; a small resolver fills a
  node -> observation map).  Then exactly one per-node loop charges
  energy, reads the node's observation, applies the fault channel,
  records the trace, and resumes the node.
* **Round calendar** — pending actions live in a dict of
  ``round -> [(runner, payload-or-LISTEN)]`` buckets; a small heap
  orders only the *distinct* populated round numbers, so the per-action
  cost is an O(1) list append instead of an O(log awake) heap push.
  Emptied slots are pooled and reused.
* **Inline scheduling** — the round loop resumes each node and, when
  its next action is an immediate transmit/listen needing no crash or
  RADIO-CONGEST check, parks it straight into a cached next-round slot;
  everything else takes the general ``advance_action`` path.
* **Interned observations** — each collision model exposes its
  count-bucketed outcomes (:attr:`~repro.radio.models.CollisionModel.
  observation_zero` / ``_one`` / ``_many``) as shared singletons, so
  ``model.resolve`` virtual calls never run inside the round loop.

``repro.radio._engine_reference`` states the same semantics in plain
form, and the golden tests in ``tests/radio/test_engine_golden.py``
assert both produce bit-identical
:class:`~repro.radio.metrics.RunResult`s and traces.

Telemetry (PR 3): ``run_protocol(..., telemetry=True)`` attaches an
:class:`~repro.obs.telemetry.EngineTelemetry` — which fast path resolved
each round, calendar heap/slot-pool behaviour, rounds the clock jumped,
per-component energy, wall time — to ``RunResult.telemetry``.  The
counters tick at per-round granularity, never per node per round, and
never branch on observations or RNG, so results are bit-identical with
telemetry on or off (the golden and property tests enforce both).
"""

from __future__ import annotations

import heapq
import random
from itertools import chain
from typing import Any, Dict, List, Optional, Tuple

try:  # CPython's C tally helper behind Counter.update.
    from _collections import _count_elements
except ImportError:  # pragma: no cover - non-CPython fallback
    def _count_elements(mapping, iterable):
        get = mapping.get
        for element in iterable:
            mapping[element] = get(element, 0) + 1

from time import perf_counter

from ..errors import MessageSizeError, ProtocolError, SimulationError
from ..faults.injector import (
    compile_fault_plan,
    restart_rng,
    validate_crash_schedule,
)
from ..faults.plan import FaultPlan
from ..graphs.graph import Graph
from ..obs.telemetry import EngineTelemetry
from .actions import TAG_LISTEN, TAG_SLEEP, TAG_SLEEP_UNTIL, TAG_TRANSMIT
from .metrics import NodeStats, RunResult
from .models import CollisionModel
from .node import NodeContext, Protocol
from .observations import message, observation_label
from .trace import TraceEvent, TraceSink

__all__ = ["run_protocol", "DEFAULT_MAX_ROUNDS", "payload_bits"]

#: Fallback watchdog when the protocol provides no round bound hint.
DEFAULT_MAX_ROUNDS = 50_000_000

#: Safety slack multiplied onto a protocol's own round-budget hint.
_HINT_SLACK = 4

#: Calendar-bucket sentinel marking a listen (any transmit payload,
#: including ``None``, is distinguishable from this private object).
_LISTEN = object()

#: How a round's observations are resolved, chosen once per round:
#: nobody transmits, one transmitter, a dict scatter over several, or
#: per channel (any nonzero-channel action in the round).
_SILENT, _LONE, _SCATTER, _PER_CHANNEL = range(4)


def payload_bits(payload: Any) -> int:
    """Approximate size of a payload in bits, for RADIO-CONGEST checks.

    Integers count their binary length (at least 1 bit); bytes/str count
    8 bits per character; ``None`` is free.  Other payloads are charged
    via their ``repr`` as a conservative stand-in.
    """
    if payload is None:
        return 0
    if isinstance(payload, bool):
        return 1
    if isinstance(payload, int):
        return max(1, payload.bit_length())
    if isinstance(payload, (bytes, str)):
        return 8 * len(payload)
    return 8 * len(repr(payload))


class _NodeRunner:
    """Bookkeeping for one node's coroutine between engine events."""

    __slots__ = ("node", "generator", "send", "ctx", "transmit_rounds",
                 "listen_rounds", "finish_round", "done", "crashed",
                 "restarts", "last_restart_round")

    def __init__(self, node: int, generator, ctx: NodeContext):
        self.node = node
        self.generator = generator
        #: Bound ``generator.send``, cached so resuming skips two
        #: attribute loads per awake round.
        self.send = generator.send
        self.ctx = ctx
        self.transmit_rounds = 0
        self.listen_rounds = 0
        self.finish_round = -1
        self.done = False
        self.crashed = False
        self.restarts = 0
        self.last_restart_round = -1


def run_protocol(
    graph: Graph,
    protocol: Protocol,
    model: CollisionModel,
    seed: int = 0,
    max_rounds: Optional[int] = None,
    trace: Optional[TraceSink] = None,
    message_bits: Optional[int] = None,
    check_model_compatibility: bool = True,
    crash_schedule: Optional[Dict[int, int]] = None,
    wake_schedule: Optional[Dict[int, int]] = None,
    telemetry: bool = False,
    faults: Optional[FaultPlan] = None,
) -> RunResult:
    """Simulate ``protocol`` on every node of ``graph`` under ``model``.

    Parameters
    ----------
    graph:
        The (unknown-to-the-nodes) communication topology.
    protocol:
        Shared protocol configuration; each node runs ``protocol.run``.
    model:
        Collision-handling semantics (CD / no-CD / beeping).
    seed:
        Master seed; node ``v`` draws from ``random.Random`` seeded by a
        deterministic mix of the seed and ``v``, so runs are exactly
        reproducible and per-node streams are independent.
    max_rounds:
        Watchdog; defaults to the protocol's own hint (times a slack
        factor) or :data:`DEFAULT_MAX_ROUNDS`.  Exceeding it raises
        :class:`~repro.errors.SimulationError` — the paper's algorithms
        have hard round budgets, so a runaway run is always a bug.
    trace:
        Optional :class:`~repro.radio.trace.TraceSink` to record awake
        events.
    message_bits:
        When set, transmissions larger than this many bits raise
        :class:`~repro.errors.MessageSizeError` (RADIO-CONGEST
        enforcement).  The paper's algorithms are unary, so the default
        is no enforcement.
    crash_schedule:
        Optional fault injection: ``{node: round}`` — the node
        crash-stops at the start of that round (it executes no action at
        or after it, transmits nothing, and its decision freezes at
        whatever it had committed).  Crashed nodes are flagged in their
        :class:`~repro.radio.metrics.NodeStats`.  The paper's model has
        no faults; this exists for robustness experiments and
        failure-injection tests.
    wake_schedule:
        Optional asynchronous wake-up: ``{node: round}`` — the node
        sleeps until that round before its protocol starts (its local
        clock, ``ctx.now``, starts there too).  The paper assumes
        synchronous wake-up (all zeros); this knob quantifies how much
        that assumption carries (experiment A3).
    telemetry:
        When true, attach an :class:`~repro.obs.telemetry.
        EngineTelemetry` (hot-path counters, calendar behaviour,
        per-component energy, wall time) to the result's ``telemetry``
        field.  The run itself is bit-identical either way: the counters
        maintained for it are a handful of per-round integer increments
        that never touch RNG state, scheduling order, or observations,
        and the field is excluded from ``RunResult`` equality.
    faults:
        Optional :class:`~repro.faults.FaultPlan` — composable,
        deterministically seeded message loss, jamming, crash–recovery,
        and wake-skew injection (see :mod:`repro.faults`).  Composes
        with ``crash_schedule``/``wake_schedule``: legacy crash entries
        become crash-stop events, explicit wake entries override the
        plan's generated skew.  ``None`` (or a no-op plan) takes the
        fault-free fast path bit-identical to a run without the
        parameter.
    """
    # A MultichannelModel lifts its base model without changing the
    # per-channel collision semantics, so compatibility is decided by
    # the base model's name.
    compat_name = getattr(model, "base", model).name
    if check_model_compatibility and compat_name not in protocol.compatible_models:
        raise SimulationError(
            f"protocol {protocol.name!r} supports models "
            f"{protocol.compatible_models}, not {compat_name!r}"
        )
    if crash_schedule is not None:
        validate_crash_schedule(crash_schedule)
    # Graph-wide parameters, computed once for the whole run (the seed
    # engine re-evaluated max_degree/num_nodes per node at boot).
    num_nodes = graph.num_nodes
    delta = graph.max_degree()
    adjacency = graph.adjacency
    neighbor_sets = graph.neighbor_sets
    auto_max_rounds = max_rounds is None
    if auto_max_rounds:
        hint = protocol.max_rounds_hint(num_nodes, delta)
        max_rounds = _HINT_SLACK * hint if hint else DEFAULT_MAX_ROUNDS

    # Fault-plan compilation (see repro.faults).  ``fault_channel`` is
    # the collision-resolution hook; ``crash_events`` the merged
    # node -> [(round, recovery_delay)] timeline (recovery_delay None =
    # crash-stop, subsuming the legacy crash_schedule).  Both stay None
    # on the fault-free path, so no per-round cost is added.
    fault_channel = None
    crash_events: Optional[Dict[int, List[Tuple[int, Optional[int]]]]] = None
    churn_rt = None
    if faults is not None and not faults.is_noop:
        compiled = compile_fault_plan(
            faults,
            model,
            num_nodes,
            crash_schedule=crash_schedule,
            wake_schedule=wake_schedule,
            graph=graph,
        )
        fault_channel = compiled.channel
        crash_events = compiled.crashes
        wake_schedule = compiled.wake
        churn_rt = compiled.churn
    elif crash_schedule is not None:
        crash_events = {
            node: [(crash_round, None)]
            for node, crash_round in crash_schedule.items()
        }

    # Dynamic-topology churn (see repro.faults.churn): bind the
    # runtime's *mutable* adjacency view in place of the graph's frozen
    # one (the runtime mutates per index, so the bound views below stay
    # live), size contexts for the final population with the run-wide
    # degree bound, and stretch an auto-derived round budget to cover
    # the event horizon plus repair.  Churn-free runs touch none of
    # this — every binding stays exactly what the static path computed.
    ctx_n = num_nodes
    ctx_delta = delta
    boot_nodes = graph.nodes
    if churn_rt is not None:
        ctx_n = churn_rt.total_nodes
        ctx_delta = churn_rt.delta_bound
        boot_nodes = range(ctx_n)
        adjacency = churn_rt.adjacency
        neighbor_sets = churn_rt.neighbor_sets
        if auto_max_rounds:
            max_rounds = churn_rt.last_event_round + 1 + 4 * max_rounds

    runners: List[_NodeRunner] = []

    # Round calendar: round -> (bucket, tx_nodes, tx_payloads).  The
    # bucket holds (runner, payload) for transmits and (runner, _LISTEN)
    # for listens, appended in schedule (= tick) order, which reproduces
    # the seed engine's (round, tick) heap pop order exactly; the tx
    # lists pre-classify the round's transmitters at schedule time so
    # round processing skips a classification pass.  ``round_heap``
    # orders the distinct populated round numbers only.
    _Slot = Tuple[List[Tuple[_NodeRunner, Any]], List[int], List[Any]]
    calendar: Dict[int, _Slot] = {}
    # Multichannel side calendar: ``round -> {node: channel}`` for
    # actions parked on a nonzero channel (see repro.radio.channels in
    # docs/API.md).  Single-channel protocols never populate it, and the
    # round loop then only pays an empty-dict truth test per round.
    mc_calendar: Dict[int, Dict[int, int]] = {}
    round_heap: List[int] = []
    heappush = heapq.heappush
    heappop = heapq.heappop
    calendar_get = calendar.get

    # Per-run reusable buffers, hoisted out of the round loop.  ``counts``
    # is the scatter target; ``slot_pool`` recycles emptied calendar
    # slots so steady-state rounds allocate no new lists.
    # Plain dict, NOT a Counter: the round loop distinguishes
    # "no transmitting neighbors" by ``KeyError`` on subscript, which
    # ``Counter.__missing__`` would silently turn into 0.
    counts: Dict[int, int] = {}
    slot_pool: List[_Slot] = []
    chain_from_iterable = chain.from_iterable
    adjacency_at = adjacency.__getitem__

    # Hot-path telemetry (see EngineTelemetry).  All counters tick at
    # per-round (or per-slot-creation) granularity — never per node per
    # round — so maintaining them unconditionally costs a few integer
    # increments per processed round; the zero-transmitter and
    # clock-jump counts are derived after the loop rather than paid
    # inside it.
    tel_one_tx = 0
    tel_scatter = 0
    tel_heap_pushes = 0
    tel_slot_reuses = 0
    tel_slot_allocs = 0
    tel_rounds = 0
    # Channel telemetry covers multichannel rounds only (single-channel
    # rounds never consult the channel machinery): rounds each channel
    # carried >= 1 transmitter, and rounds it was contended (>= 2).
    tel_mc_rounds = 0
    tel_channel_tx: Dict[int, int] = {}
    tel_channel_collisions: Dict[int, int] = {}
    tel_start = perf_counter() if telemetry else 0.0

    # ------------------------------------------------------------------
    # Boot every node: build its context, pull the first action.
    # ------------------------------------------------------------------
    for node in boot_nodes:
        node_rng = random.Random((seed * 0x9E3779B9 + node * 0x85EBCA6B) & 0xFFFFFFFF)
        ctx = NodeContext(node, node_rng, n=ctx_n, delta=ctx_delta)
        if wake_schedule is not None:
            wake_round = wake_schedule.get(node, 0)
            if wake_round < 0:
                raise ProtocolError(
                    f"wake round for node {node} must be non-negative, got {wake_round}"
                )
            ctx._now = wake_round
            if churn_rt is not None and node >= churn_rt.base_nodes:
                # A churn joiner anchors any phase-synchronized calendar
                # at its join round, exactly like a crash-recovered node
                # (protocols read ctx.restart_round for their base).
                ctx.restart_round = wake_round
        generator = protocol.run(ctx)
        runner = _NodeRunner(node, generator, ctx)
        runners.append(runner)

    def open_slot(when: int) -> _Slot:
        """Register an empty calendar slot for round ``when``, pooled if
        possible."""
        nonlocal tel_heap_pushes, tel_slot_reuses, tel_slot_allocs
        if slot_pool:
            slot = slot_pool.pop()
            tel_slot_reuses += 1
        else:
            slot = ([], [], [])
            tel_slot_allocs += 1
        calendar[when] = slot
        heappush(round_heap, when)
        tel_heap_pushes += 1
        return slot

    def advance_action(runner: _NodeRunner, action) -> None:
        """Process ``action`` (and any follow-up sleeps) until the runner
        parks an awake action in the calendar or terminates.

        ``runner.ctx._now`` must already hold the round at which
        ``action`` would execute.  Consecutive sleeps collapse without
        touching the calendar.
        """
        ctx = runner.ctx
        send = runner.send
        while True:
            # Type-tag dispatch: one attribute load + small-int compares
            # beat an isinstance chain per action.  Subclasses inherit
            # their base action's tag and dispatch identically; objects
            # without a ``tag`` fall through to the error below.
            try:
                tag = action.tag
            except AttributeError:
                tag = None
            if tag == TAG_TRANSMIT or tag == TAG_LISTEN:
                if crash_events is not None:
                    events = crash_events.get(runner.node)
                    if events and ctx._now >= events[0][0]:
                        crash_round, recovery_delay = events.pop(0)
                        runner.generator.close()
                        if recovery_delay is None:
                            # Crash-stop: the node never executes this
                            # (or any later) action.
                            runner.done = True
                            runner.crashed = True
                            runner.finish_round = crash_round
                        else:
                            restart(runner, crash_round + recovery_delay)
                        return
                when = ctx._now
                slot = calendar_get(when) or open_slot(when)
                if tag == TAG_TRANSMIT:
                    payload = action.payload
                    if message_bits is not None:
                        bits = payload_bits(payload)
                        if bits > message_bits:
                            raise MessageSizeError(
                                f"node {runner.node} transmitted {bits}-bit payload; "
                                f"RADIO-CONGEST budget is {message_bits} bits"
                            )
                    slot[0].append((runner, payload))
                    slot[1].append(runner.node)
                    slot[2].append(payload)
                else:
                    slot[0].append((runner, _LISTEN))
                if action.channel:
                    mc_calendar.setdefault(when, {})[runner.node] = action.channel
                return
            if tag == TAG_SLEEP:
                ctx._now += action.rounds
            elif tag == TAG_SLEEP_UNTIL:
                if action.target < ctx._now:
                    raise ProtocolError(
                        f"node {runner.node} requested SleepUntil({action.target}) "
                        f"at round {ctx._now} (target in the past)"
                    )
                ctx._now = action.target
            else:
                raise ProtocolError(
                    f"node {runner.node} yielded unsupported action {action!r}"
                )
            try:
                action = send(None)
            except StopIteration:
                runner.done = True
                runner.finish_round = ctx._now
                return

    def advance(runner: _NodeRunner, observation) -> None:
        """Resume a runner with ``observation`` and schedule what follows."""
        try:
            # ``send(None)`` on a fresh generator is ``next()``, so
            # booting needs no special case.
            action = runner.send(observation)
        except StopIteration:
            runner.done = True
            runner.finish_round = runner.ctx._now
            return
        advance_action(runner, action)

    def restart(runner: _NodeRunner, restart_round: int) -> None:
        """Reincarnate ``runner``'s protocol at ``restart_round`` and
        schedule its first action.

        Crash recovery and churn repair share this recipe: a fresh
        incarnation-salted RNG stream, fresh decision/info state, the
        local clock (and ``ctx.restart_round``, which protocols read as
        their phase base) at the restart round, and the energy ledger
        carried over, so restarts are seed-deterministic and identical
        across engines (see repro.faults).
        """
        runner.restarts += 1
        runner.last_restart_round = restart_round
        runner.done = False
        runner.finish_round = -1
        node = runner.node
        ctx = NodeContext(
            node, restart_rng(seed, node, runner.restarts), n=ctx_n, delta=ctx_delta
        )
        ctx.energy_by_component = runner.ctx.energy_by_component
        ctx._now = ctx.restart_round = restart_round
        runner.ctx = ctx
        runner.generator = protocol.run(ctx)
        runner.send = runner.generator.send
        advance(runner, None)

    for runner in runners:
        advance(runner, None)

    # ------------------------------------------------------------------
    # Main loop: process one populated round at a time.
    # ------------------------------------------------------------------
    record_trace = trace is not None and trace.enabled
    sender_side = model.sender_side_detection
    obs_zero = model.observation_zero
    obs_one = model.observation_one  # None => deliver message(lone_payload)
    obs_many = model.observation_many

    def resolve_channels(
        bucket: List[Tuple[_NodeRunner, Any]],
        tx_nodes: List[int],
        tx_payloads: List[Any],
        channel_of: Dict[int, int],
    ) -> Dict[int, Any]:
        """Map each perceiver of a multichannel round to its observation.

        A perceiver counts only the transmitting neighbors tuned to *its
        own* channel (``channel_of``, default 0), bucketed zero / one /
        many exactly as a single-channel round is.  Faults are applied
        afterwards by the round loop.
        """
        nonlocal tel_mc_rounds
        tel_mc_rounds += 1
        senders: Dict[int, Dict[int, Any]] = {}  # channel -> {node: payload}
        for node, payload in zip(tx_nodes, tx_payloads):
            senders.setdefault(channel_of.get(node, 0), {})[node] = payload
        for ch, on_channel in senders.items():
            tel_channel_tx[ch] = tel_channel_tx.get(ch, 0) + 1
            if len(on_channel) > 1:
                tel_channel_collisions[ch] = tel_channel_collisions.get(ch, 0) + 1
        observations: Dict[int, Any] = {}
        for runner, payload in bucket:
            if payload is _LISTEN or sender_side:
                node = runner.node
                on_channel = senders.get(channel_of.get(node, 0))
                heard = neighbor_sets[node] & on_channel.keys() if on_channel else ()
                if not heard:
                    observations[node] = obs_zero
                elif len(heard) >= 2:
                    observations[node] = obs_many
                elif obs_one is not None:
                    observations[node] = obs_one
                else:
                    observations[node] = message(on_channel[heard.pop()])
        return observations

    # The round loop inlines advance()'s fast path; that is only valid
    # when a fresh transmit/listen needs no crash or congest checks
    # before scheduling.
    fast_schedule = crash_events is None and message_bits is None

    # Populated rounds are processed in increasing order, so the span
    # [first processed, last processed] minus the processed count is the
    # number of rounds the calendar clock jumped over.
    first_round = round_heap[0] if round_heap else 0
    last_round = first_round

    while True:
        if not round_heap:
            if churn_rt is None:
                break
            # Post-quiescence churn: events past the last awake round
            # and repair restarts (including the final convergence scan)
            # can repopulate the calendar; loop until the runtime agrees
            # the run is settled (see ChurnRuntime.drain).
            restarts = churn_rt.drain(runners)
            if not restarts:
                break
            for repair_node, repair_round in restarts:
                restart(runners[repair_node], repair_round)
            continue
        current_round = round_heap[0]
        if churn_rt is not None:
            restarts = churn_rt.on_round(current_round, runners)
            if restarts:
                # Repair restarts may park actions before the current
                # heap top; re-read the calendar before processing.
                for repair_node, repair_round in restarts:
                    restart(runners[repair_node], repair_round)
                continue
        if current_round >= max_rounds:
            awake = sorted(
                {entry[0].node for slot in calendar.values() for entry in slot[0]}
            )
            raise SimulationError(
                f"run exceeded max_rounds={max_rounds} "
                f"(next event at round {current_round}, awake nodes {awake[:10]}...)"
            )
        heappop(round_heap)
        current_slot = calendar.pop(current_round)
        bucket, tx_nodes, tx_payloads = current_slot
        tx_count = len(tx_nodes)
        tel_rounds += 1
        last_round = current_round

        # Collision resolution picks one shape per round.  Silence and a
        # lone transmitter need no tally: everyone hears nothing, or
        # membership in the lone transmitter's neighborhood decides.
        # Otherwise one C-level scatter pass over the transmitters'
        # adjacency tuples tallies, per node, how many neighbors are
        # talking — O(sum deg(transmitter)), independent of how many
        # nodes listen.  A round with any nonzero-channel action is
        # resolved per channel up front instead.  Telemetry buckets every
        # round by its total transmitter count, so the fast-path
        # partition holds across channel counts.
        if tx_count == 1:
            tel_one_tx += 1
        elif tx_count:
            tel_scatter += 1
        round_channels = mc_calendar.pop(current_round, None) if mc_calendar else None
        if round_channels is not None:
            shape = _PER_CHANNEL
            channel_observations = resolve_channels(
                bucket, tx_nodes, tx_payloads, round_channels
            )
        elif not tx_count:
            shape = _SILENT
        elif tx_count == 1:
            shape = _LONE
            lone_neighbors = neighbor_sets[tx_nodes[0]]
            lone_observation = (
                message(tx_payloads[0]) if obs_one is None else obs_one
            )
        else:
            shape = _SCATTER
            _count_elements(
                counts, chain_from_iterable(map(adjacency_at, tx_nodes))
            )
        # ``tx_map`` (node -> payload) is built lazily, only when a
        # payload-carrying model delivers a lone talking neighbor's
        # message in a scatter round.
        tx_map: Optional[Dict[int, Any]] = None

        # Charge energy, read each perceiver's observation, apply faults,
        # trace, and resume everyone who acted, in the seed engine's
        # (tick-order) sequence.  The energy charge is inlined
        # (NodeContext._charge_awake_round documents this contract), and
        # so is advance()'s fast path.
        next_round = current_round + 1
        next_slot: Optional[_Slot] = None
        for runner, payload in bucket:
            ctx = runner.ctx
            ledger = ctx.energy_by_component
            component = ctx._component
            try:
                ledger[component] += 1
            except KeyError:
                ledger[component] = 1
            if payload is _LISTEN:
                runner.listen_rounds += 1
            else:
                runner.transmit_rounds += 1
            if payload is _LISTEN or sender_side:
                node = runner.node
                if shape == _SILENT:
                    observation = obs_zero
                elif shape == _LONE:
                    observation = (
                        lone_observation if node in lone_neighbors else obs_zero
                    )
                elif shape == _SCATTER:
                    # A node absent from the scatter tally has zero
                    # transmitting neighbors; a present one has >= 1, so
                    # the >= 2 test alone separates the buckets.
                    try:
                        count = counts[node]
                    except KeyError:
                        observation = obs_zero
                    else:
                        if count >= 2:
                            observation = obs_many
                        elif obs_one is not None:
                            observation = obs_one
                        else:
                            if tx_map is None:
                                tx_map = dict(zip(tx_nodes, tx_payloads))
                                tx_keys = tx_map.keys()
                            # The unique talking neighbor, via C-level
                            # set intersection (exactly 1 element).
                            observation = message(
                                tx_map[(neighbor_sets[node] & tx_keys).pop()]
                            )
                else:
                    observation = channel_observations[node]
                if fault_channel is not None:
                    # Collision-resolution hook: the fault channel
                    # perturbs what this perceiver reads on its channel
                    # (jam wins over drop; see repro.faults.injector).
                    observation = fault_channel(
                        current_round,
                        node,
                        observation,
                        round_channels.get(node, 0) if round_channels else 0,
                    )
            else:
                observation = None
            if record_trace:
                if payload is _LISTEN:
                    event = TraceEvent(
                        round=current_round,
                        node=runner.node,
                        action="listen",
                        observed=observation_label(observation, model),
                    )
                else:
                    event = TraceEvent(
                        round=current_round,
                        node=runner.node,
                        action="transmit",
                        payload=payload,
                    )
                trace.record(event)
            ctx._now = next_round
            # Inline advance() fast path: resume, and when the next
            # action is an immediate transmit/listen needing no
            # crash/congest checks, park it directly in the (cached)
            # next-round slot; anything else (sleeps, termination
            # follow-ups, faults, errors) takes the full slow path.
            try:
                action = runner.send(observation)
            except StopIteration:
                runner.done = True
                runner.finish_round = next_round
                continue
            if fast_schedule:
                try:
                    tag = action.tag
                except AttributeError:
                    tag = None
                if tag == TAG_LISTEN or tag == TAG_TRANSMIT:
                    if next_slot is None:
                        next_slot = calendar_get(next_round) or open_slot(next_round)
                        next_bucket, next_txn, next_txp = next_slot
                    if tag == TAG_LISTEN:
                        next_bucket.append((runner, _LISTEN))
                    else:
                        payload = action.payload
                        next_bucket.append((runner, payload))
                        next_txn.append(runner.node)
                        next_txp.append(payload)
                    if action.channel:
                        mc_calendar.setdefault(next_round, {})[
                            runner.node
                        ] = action.channel
                    continue
            advance_action(runner, action)
            # The slow path may have created next round's slot behind
            # the cache's back.
            next_slot = None

        # Reset the scatter buffer and recycle the emptied slot: newly
        # populated rounds reuse pooled lists instead of allocating.
        if shape == _SCATTER:
            counts.clear()
        if len(slot_pool) < 64:
            bucket.clear()
            tx_nodes.clear()
            tx_payloads.clear()
            slot_pool.append(current_slot)

    # ------------------------------------------------------------------
    # Collect results.
    # ------------------------------------------------------------------
    run_telemetry: Optional[EngineTelemetry] = None
    if telemetry:
        energy_totals: Dict[str, int] = {}
        energy_totals_get = energy_totals.get
        for runner in runners:
            for component, charged in runner.ctx.energy_by_component.items():
                energy_totals[component] = energy_totals_get(component, 0) + charged
        run_telemetry = EngineTelemetry(
            rounds_processed=tel_rounds,
            rounds_skipped=(
                (last_round - first_round + 1) - tel_rounds if tel_rounds else 0
            ),
            zero_tx_rounds=tel_rounds - tel_one_tx - tel_scatter,
            one_tx_rounds=tel_one_tx,
            scatter_dict_rounds=tel_scatter,
            heap_pushes=tel_heap_pushes,
            slot_reuses=tel_slot_reuses,
            slot_allocs=tel_slot_allocs,
            wall_s=perf_counter() - tel_start,
            energy_by_component=energy_totals,
            multichannel_rounds=tel_mc_rounds,
            channel_tx_rounds=tel_channel_tx,
            channel_collision_rounds=tel_channel_collisions,
        )
    left_nodes = churn_rt.left if churn_rt is not None else frozenset()
    stats = tuple(
        NodeStats(
            node=runner.node,
            transmit_rounds=runner.transmit_rounds,
            listen_rounds=runner.listen_rounds,
            finish_round=runner.finish_round,
            decision=runner.ctx.decision,
            energy_by_component=dict(runner.ctx.energy_by_component),
            # A leaver's crash-stop is just how the runtime halts it;
            # report it as departed, not crashed.
            crashed=runner.crashed and runner.node not in left_nodes,
            restarts=runner.restarts,
            last_restart_round=runner.last_restart_round,
            left=runner.node in left_nodes,
        )
        for runner in runners
    )
    rounds = max((runner.finish_round for runner in runners), default=0)
    churn_kwargs = {}
    if churn_rt is not None:
        churn_kwargs = dict(
            final_graph=churn_rt.final_graph(graph),
            repair_rounds=churn_rt.repair_rounds,
            repair_energy=churn_rt.repair_energy(runners),
            mis_violation_window=churn_rt.violation_window,
            time_to_restabilize=churn_rt.time_to_restabilize(),
            churn_events=churn_rt.events_by_kind(),
        )
    return RunResult(
        graph=graph,
        protocol_name=protocol.name,
        model_name=model.name,
        seed=seed,
        rounds=rounds,
        node_stats=stats,
        node_info=tuple(runner.ctx.info for runner in runners),
        telemetry=run_telemetry,
        **churn_kwargs,
    )
