"""Energy-efficient backoff primitives (Algorithm 4, Lemmas 8-9).

These are the paper's no-CD workhorses.  A *k-repeated backoff* spans
exactly ``k * ceil(log Delta)`` rounds, split into ``k`` iterations of
``ceil(log Delta)`` slots:

* :func:`snd_ebackoff` — a sender transmits in exactly one slot per
  iteration, the slot drawn from a geometric(1/2) distribution capped at
  the last slot.  Awake ``k`` rounds total (Lemma 8).
* :func:`rec_ebackoff` — a receiver listens in the first
  ``ceil(log Delta_est)`` slots of each iteration until it hears a
  message, then sleeps out the remainder of the whole backoff.  Awake
  ``O(k log Delta_est)`` rounds (Lemma 8).  With at most ``Delta_est``
  simultaneously sending neighbors, each iteration delivers a message
  with probability >= 1/8 (Lemma 9), so ``k`` iterations fail with
  probability at most ``(7/8)^k``.
* :func:`snd_rec_ebackoff` — our combined variant used inside
  LowDegreeMIS: transmits in its geometric slot and listens (receiver
  logic) in the other slots.  The paper's model forbids send+listen in
  the *same* round; this primitive never does both in one round.

All three are generator *subroutines*: call them with ``yield from``
inside a protocol's ``run``; the boolean result of the receiver variants
is the generator's return value.

A matching pair of *traditional* (energy-oblivious) decay procedures is
included for the naive-simulation baseline: every participant stays
awake for all ``k * ceil(log Delta)`` rounds.
"""

from __future__ import annotations

import random
from typing import Any, Generator, Optional

from ..constants import log2_ceil
from ..errors import ProtocolError
from ..radio.actions import LISTEN, Action, Transmit, sleep_for
from ..radio.node import NodeContext

__all__ = [
    "backoff_slots",
    "backoff_rounds",
    "geometric_slot",
    "snd_ebackoff",
    "rec_ebackoff",
    "snd_rec_ebackoff",
    "traditional_decay_sender",
    "traditional_decay_receiver",
]

BackoffRun = Generator[Action, Any, bool]


def backoff_slots(delta: int) -> int:
    """Slots per backoff iteration: ``ceil(log Delta) + 1``.

    The ``+1`` matters at small ``Delta``: with exactly ``ceil(log 2)=1``
    slot the capped geometric would make *every* sender transmit in slot
    1, so two adjacent senders would always collide — and in no-CD a
    collision reads as silence, silently breaking Lemma 9's 1/8 hearing
    guarantee.  One extra slot keeps ``P(slot=1) = 1/2`` at every
    ``Delta`` (the classical Decay convention) while leaving the
    asymptotics untouched.
    """
    return log2_ceil(max(2, delta)) + 1


def backoff_rounds(k: int, delta: int) -> int:
    """Total rounds of a k-repeated backoff: ``k * ceil(log Delta)``."""
    if k < 0:
        raise ProtocolError(f"backoff repetition count must be non-negative, got {k}")
    return k * backoff_slots(delta)


def geometric_slot(rng: random.Random, slots: int) -> int:
    """Draw the transmission slot: geometric(1/2) capped at ``slots``.

    Returns a 1-based slot ``x`` with ``P(x=j) = 2^-j`` for ``j < slots``
    and the capped remainder at ``j = slots`` — exactly Algorithm 4's
    ``min(Geom(1/2), ceil(log Delta))``.
    """
    slot = 1
    while slot < slots and rng.random() < 0.5:
        slot += 1
    return slot


def snd_ebackoff(ctx: NodeContext, k: int, delta: int, payload: Any = 1) -> BackoffRun:
    """Algorithm 4's Snd-EBackoff(k, Delta): transmit once per iteration.

    Spans ``k * ceil(log Delta)`` rounds; awake exactly ``k`` rounds.
    Always returns ``False`` (a sender hears nothing), so callers can use
    sender and receiver results uniformly.
    """
    slots = backoff_slots(delta)
    transmit = Transmit(payload)
    rand = ctx.rng.random
    for _ in range(k):
        # geometric_slot, inlined: the same draws in the same order.
        slot = 1
        while slot < slots and rand() < 0.5:
            slot += 1
        if slot > 1:
            yield sleep_for(slot - 1)
        yield transmit
        if slot < slots:
            yield sleep_for(slots - slot)
    return False


def rec_ebackoff(
    ctx: NodeContext,
    k: int,
    delta: int,
    delta_est: Optional[int] = None,
) -> BackoffRun:
    """Algorithm 4's Rec-EBackoff(k, Delta, Delta_est).

    Listens in the first ``ceil(log Delta_est)`` slots of each iteration
    while nothing has been heard; after hearing a message, sleeps out the
    remainder of the entire backoff.  Spans exactly
    ``k * ceil(log Delta)`` rounds regardless of ``delta_est``.  Returns
    whether a message was heard.
    """
    slots = backoff_slots(delta)
    listen_slots = min(slots, backoff_slots(delta_est if delta_est is not None else delta))
    heard = False
    for iteration in range(k):
        if heard:
            yield sleep_for((k - iteration) * slots)
            break
        for slot in range(1, listen_slots + 1):
            observation = yield LISTEN
            if observation is not None and observation.heard_something:
                heard = True
                if slot < slots:
                    yield sleep_for(slots - slot)
                break
        else:
            if listen_slots < slots:
                yield sleep_for(slots - listen_slots)
    return heard


def snd_rec_ebackoff(
    ctx: NodeContext,
    k: int,
    delta: int,
    delta_est: Optional[int] = None,
    payload: Any = 1,
) -> BackoffRun:
    """Combined sender/receiver backoff used inside LowDegreeMIS.

    Per iteration the node transmits in its geometric slot and listens in
    the other slots up to ``ceil(log Delta_est)`` (while nothing has been
    heard).  Never transmits and listens in the same round, honouring the
    radio constraint.  Returns whether a message was heard.

    This primitive is our addition (the paper leaves LowDegreeMIS's
    internals to Davies [18]); it lets two adjacent *marked* nodes detect
    each other, since independent geometric slots differ with constant
    probability per iteration.
    """
    slots = backoff_slots(delta)
    listen_slots = min(slots, backoff_slots(delta_est if delta_est is not None else delta))
    transmit = Transmit(payload)
    heard = False
    for _ in range(k):
        send_slot = geometric_slot(ctx.rng, slots)
        slot = 1
        while slot <= slots:
            if slot == send_slot:
                yield transmit
            elif not heard and slot <= listen_slots:
                observation = yield LISTEN
                if observation is not None and observation.heard_something:
                    heard = True
            else:
                # Nothing left to hear or send this iteration: bulk-sleep
                # to its end (or up to the pending transmit slot).
                sleep_end = slots if send_slot < slot else send_slot - 1
                if heard or slot > listen_slots:
                    yield sleep_for(sleep_end - slot + 1)
                    slot = sleep_end
                else:
                    yield sleep_for(1)
            slot += 1
    return heard


def traditional_decay_sender(
    ctx: NodeContext, k: int, delta: int, payload: Any = 1
) -> BackoffRun:
    """Classical Decay sender: transmit in slots 1..X, X ~ geometric(1/2).

    After dropping out it stays awake *listening* for the rest of the
    backoff — the traditional, energy-oblivious behaviour the paper's
    Snd-EBackoff improves on.  Awake all ``k * ceil(log Delta)`` rounds.
    """
    slots = backoff_slots(delta)
    transmit = Transmit(payload)
    for _ in range(k):
        stop_after = geometric_slot(ctx.rng, slots)
        for slot in range(1, slots + 1):
            if slot <= stop_after:
                yield transmit
            else:
                yield LISTEN
    return False


def traditional_decay_receiver(ctx: NodeContext, k: int, delta: int) -> BackoffRun:
    """Classical Decay receiver: listen in *every* round of the backoff.

    Awake for all ``k * ceil(log Delta)`` rounds — the energy cost the
    paper's Rec-EBackoff exists to avoid.  Returns whether a message was
    heard at any point.
    """
    slots = backoff_slots(delta)
    heard = False
    for _ in range(k * slots):
        observation = yield LISTEN
        if observation is not None and observation.heard_something:
            heard = True
    return heard
