"""Actions a protocol can take in a round.

The radio model gives each node exactly three per-round choices —
transmit, listen, or sleep (Section 1.1 of the paper).  Protocols are
generator coroutines that *yield* one of these action objects per
decision point and receive an :class:`~repro.radio.observations.Observation`
back (``None`` for transmit/sleep, since a transmitting node cannot hear
and a sleeping node's radio is off).

``Sleep`` and ``SleepUntil`` may span many rounds: the engine
fast-forwards them, which is what makes the paper's
``O(log^3 n log Delta)``-round executions cheap to simulate — the
simulation cost tracks *energy* (awake rounds), not wall-clock rounds.

Actions are immutable values: a protocol may yield the same object
every round.  The hot protocols do exactly that, since the engine's
work unit is one yielded action and building a fresh dataclass per
awake round is a measurable share of a run.  :data:`LISTEN` and
:data:`TRANSMIT` are the shared ``Listen()`` and ``Transmit(1)``, and
:func:`sleep_for` returns a shared ``Sleep`` for short durations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, ClassVar, Union

from ..errors import ProtocolError

__all__ = [
    "Transmit",
    "Listen",
    "Sleep",
    "SleepUntil",
    "Action",
    "LISTEN",
    "TRANSMIT",
    "sleep_for",
    "TAG_TRANSMIT",
    "TAG_LISTEN",
    "TAG_SLEEP",
    "TAG_SLEEP_UNTIL",
]

# Integer type tags for engine dispatch.  ``isinstance`` chains cost a
# C call per candidate class per action; the engine instead reads the
# inherited ``tag`` class attribute (one attribute load) and branches on
# small-int identity.  Subclasses of an action inherit its tag, so they
# dispatch exactly as ``isinstance`` would.
TAG_TRANSMIT = 0
TAG_LISTEN = 1
TAG_SLEEP = 2
TAG_SLEEP_UNTIL = 3


@dataclass(frozen=True)
class Transmit:
    """Transmit ``payload`` this round (the node cannot hear anything).

    The paper's algorithms perform unary communication — they only ever
    send the bit ``1`` — so ``payload`` defaults to ``1``.  The engine
    can enforce a RADIO-CONGEST size budget on payloads.

    ``channel`` selects the frequency the transmission occupies in a
    multichannel network (Daum–Kuhn).  Channel 0 is the single-channel
    network of the source paper; the default keeps every pre-channels
    protocol, golden trace, and cache key bit-identical.
    """

    tag: ClassVar[int] = TAG_TRANSMIT

    payload: Any = 1
    channel: int = 0


@dataclass(frozen=True)
class Listen:
    """Listen this round; the observation depends on the collision model.

    ``channel`` selects the frequency the listener tunes to: only
    transmissions on the same channel reach it.  Channel 0 (the
    default) reproduces the single-channel radio model exactly.
    """

    tag: ClassVar[int] = TAG_LISTEN

    channel: int = 0


@dataclass(frozen=True)
class Sleep:
    """Sleep for ``rounds`` consecutive rounds (radio off, zero energy)."""

    tag: ClassVar[int] = TAG_SLEEP

    rounds: int = 1

    def __post_init__(self) -> None:
        if self.rounds < 0:
            raise ProtocolError(f"Sleep duration must be non-negative, got {self.rounds}")


@dataclass(frozen=True)
class SleepUntil:
    """Sleep until the absolute round ``target`` (exclusive).

    The node's next action executes exactly at round ``target``.  Used
    by Algorithm 2 for its synchronization barriers ("sleep until round
    (i-1)*T_L + T_C ...").  A target equal to the current round is a
    zero-duration no-op, which makes barrier code uniform.
    """

    tag: ClassVar[int] = TAG_SLEEP_UNTIL

    target: int

    def __post_init__(self) -> None:
        if self.target < 0:
            raise ProtocolError(f"SleepUntil target must be non-negative, got {self.target}")


Action = Union[Transmit, Listen, Sleep, SleepUntil]


LISTEN = Listen()
"""The shared ``Listen()`` (channel 0)."""

TRANSMIT = Transmit()
"""The shared ``Transmit(1)`` (payload 1, channel 0)."""

#: ``sleep_for`` serves durations below this bound from a table.  It
#: covers the backoff slot and tail sleeps that dominate Algorithms 2-4;
#: the rare long sleeps (a Competition loser sleeping out its remaining
#: bitty phases) build a fresh ``Sleep``.
SLEEP_CACHE_SIZE = 1024

_SLEEPS = tuple(Sleep(rounds) for rounds in range(SLEEP_CACHE_SIZE))


def sleep_for(rounds: int) -> Sleep:
    """Return an action equal to ``Sleep(rounds)``, shared when short.

    Durations in ``[0, SLEEP_CACHE_SIZE)`` come from a table built at
    import; any other duration builds a new ``Sleep``, so a negative one
    still raises :class:`~repro.errors.ProtocolError`.
    """
    if 0 <= rounds < SLEEP_CACHE_SIZE:
        return _SLEEPS[rounds]
    return Sleep(rounds)
