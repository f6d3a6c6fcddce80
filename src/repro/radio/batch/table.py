"""Declarative per-phase transition tables: the batchable protocol ABI.

A :class:`TableProgram` is a protocol compiled for one ``(n, Delta)``
cell: a finite-state machine whose per-round behaviour is fully
described by arrays of constants — which is exactly what the batched
engine (:mod:`repro.radio.batch.engine`) needs to step *B* trials at
once with numpy mask arithmetic, and what the scalar interpreter
(:func:`run_table`) replays through the ordinary coroutine engine for
the bit-identity golden tests.

The ABI
-------

A node holds a small register file of integers and a current state.
Every *hard* state emits exactly one round's action:

* ``EMIT_TRANSMIT`` / ``EMIT_LISTEN`` — unconditional;
* ``EMIT_BIT`` — transmit iff the current rank bit (MSB-first, width
  ``rank_width``) is 1, listen otherwise (Algorithm 1's bitty rounds);
* ``EMIT_LE`` — transmit iff ``reg[a] <= reg[b]``, listen otherwise
  (traditional Decay's "transmit in slots 1..X");

*Soft* states consume no round and resolve immediately:

* ``EMIT_EPS`` — pure dispatch (guard chains route control flow);
* ``EMIT_SLEEP`` — advance the node's clock by an affine function of
  the registers (must evaluate >= 1; builders guard zero-length sleeps
  away), then dispatch.

After the emission resolves, the node follows the first matching
:class:`Edge` of the state's chain for the observation class it saw:

* ``OBS_NEXT`` — transmit, sleep, and epsilon states (no observation);
* ``OBS_TX`` — a conditional emit (``EMIT_BIT`` / ``EMIT_LE``) that
  transmitted;
* ``OBS_HEARD`` / ``OBS_SILENCE`` — a listen, split on
  ``observation.heard_something``.

Edge semantics, in order: guards (evaluated on the *old* registers) →
ops (ordered register writes and RNG draws) → decision / info side
effects → next state (or ``HALT``).  RNG draws are ops so that the
scalar interpreter consumes ``ctx.rng`` in exactly the positions the
hand-written coroutine does — that is what makes table-through-scalar
runs bit-identical, which the golden tests enforce.

Register initial values are plain ints, or the :data:`NODE_ID`
sentinel for the node's simulator id (used by role-driven harness
protocols such as the backoff probe).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Tuple

from ...core.backoff import geometric_slot
from ...errors import ProtocolError
from ..actions import LISTEN, TRANSMIT, sleep_for
from ..node import Decision, NodeContext, Protocol, ProtocolRun

__all__ = [
    "EMIT_EPS",
    "EMIT_TRANSMIT",
    "EMIT_LISTEN",
    "EMIT_SLEEP",
    "EMIT_BIT",
    "EMIT_LE",
    "OBS_NEXT",
    "OBS_TX",
    "OBS_HEARD",
    "OBS_SILENCE",
    "HALT",
    "NODE_ID",
    "Edge",
    "TableState",
    "TableProgram",
    "run_table",
    "TableProtocolAdapter",
    "as_table_protocol",
]

# Emission kinds.
EMIT_EPS = 0
EMIT_TRANSMIT = 1
EMIT_LISTEN = 2
EMIT_SLEEP = 3
EMIT_BIT = 4
EMIT_LE = 5

# Observation classes (edge-chain keys).
OBS_NEXT = "next"
OBS_TX = "tx"
OBS_HEARD = "heard"
OBS_SILENCE = "silence"

#: ``Edge.next`` value meaning "the node's program terminates".
HALT = -1

#: Register-init sentinel: the node's simulator id.
NODE_ID = "node-id"

# Guard kinds: ("eq"|"ne"|"lt"|"le"|"ge"|"gt", reg, const) compares a
# register to a constant; ("bit", value_reg, pos_reg, want) tests the
# MSB-first rank bit at position reg[pos_reg].
_GUARD_CMP = {
    "eq": lambda a, b: a == b,
    "ne": lambda a, b: a != b,
    "lt": lambda a, b: a < b,
    "le": lambda a, b: a <= b,
    "ge": lambda a, b: a >= b,
    "gt": lambda a, b: a > b,
}

# Op kinds (ordered within an edge):
#   ("set", reg, const)    reg = const
#   ("add", reg, const)    reg += const
#   ("rank", reg)          reg = one fresh rank draw (rank_width bits)
#   ("geom", reg, slots)   reg = geometric(1/2) slot capped at slots


@dataclass(frozen=True)
class Edge:
    """One transition: guards -> ops -> side effects -> next state."""

    guards: Tuple[tuple, ...] = ()
    ops: Tuple[tuple, ...] = ()
    decide: Optional[str] = None  # "in" | "out"
    set_info: Optional[Tuple[str, int]] = None  # ctx.info[key] = bool(reg)
    next: int = HALT


@dataclass(frozen=True)
class TableState:
    """One FSM state: an emission plus per-class ordered edge chains."""

    emit: int
    component: str = "default"
    a: int = 0  # EMIT_BIT: rank register; EMIT_LE: left register
    b: int = 0  # EMIT_BIT: position register; EMIT_LE: right register
    sleep_base: int = 0
    sleep_coeffs: Tuple[Tuple[int, int], ...] = ()  # ((reg, coeff), ...)
    edges: Dict[str, Tuple[Edge, ...]] = field(default_factory=dict)


@dataclass(frozen=True)
class TableProgram:
    """A protocol compiled to transition-table form for one cell."""

    protocol_name: str
    num_registers: int
    init: Tuple[Any, ...]  # ints or NODE_ID
    rank_width: int
    start: int
    states: Tuple[TableState, ...]

    def __post_init__(self) -> None:
        if len(self.init) != self.num_registers:
            raise ProtocolError(
                f"table {self.protocol_name!r}: {len(self.init)} initial "
                f"values for {self.num_registers} registers"
            )
        self._check_soft_acyclic()

    def _check_soft_acyclic(self) -> None:
        """Soft (epsilon/sleep) states must not form cycles.

        Both engines resolve soft states to a fixpoint within a single
        round; a cycle would hang them.  Depth-first check over the
        soft-only edge graph.
        """
        soft = {
            index
            for index, state in enumerate(self.states)
            if state.emit in (EMIT_EPS, EMIT_SLEEP)
        }
        color: Dict[int, int] = {}  # 1 = on stack, 2 = done

        def visit(index: int) -> None:
            color[index] = 1
            for chain in self.states[index].edges.values():
                for edge in chain:
                    nxt = edge.next
                    if nxt in soft:
                        if color.get(nxt) == 1:
                            raise ProtocolError(
                                f"table {self.protocol_name!r}: cycle "
                                f"through soft states {index} -> {nxt}"
                            )
                        if nxt not in color:
                            visit(nxt)
            color[index] = 2

        for index in soft:
            if index not in color:
                visit(index)

    @property
    def components(self) -> Tuple[str, ...]:
        """Energy-ledger components the program charges, in state order."""
        seen = []
        for state in self.states:
            if (
                state.emit not in (EMIT_EPS, EMIT_SLEEP)
                and state.component not in seen
            ):
                seen.append(state.component)
        return tuple(seen)


def _guards_pass(edge: Edge, regs, width: int) -> bool:
    for guard in edge.guards:
        kind = guard[0]
        if kind == "bit":
            _, value_reg, pos_reg, want = guard
            bit = (regs[value_reg] >> (width - 1 - regs[pos_reg])) & 1
            if bit != want:
                return False
        else:
            _, reg, const = guard
            if not _GUARD_CMP[kind](regs[reg], const):
                return False
    return True


def run_table(program: TableProgram, ctx: NodeContext) -> ProtocolRun:
    """Interpret ``program`` as a per-node coroutine.

    Emits the exact action/observation sequence — and consumes
    ``ctx.rng`` in the exact positions — that the protocol's
    hand-written coroutine does, so running a table through the scalar
    engine is bit-identical to running the original protocol.  The
    golden tests in ``tests/radio/batch`` enforce this per protocol.
    """
    regs = [
        ctx.node if value is NODE_ID else value for value in program.init
    ]
    states = program.states
    width = program.rank_width
    rng = ctx.rng
    state_index = program.start
    component: Optional[str] = None

    while state_index != HALT:
        state = states[state_index]
        emit = state.emit
        if emit == EMIT_EPS:
            obs_class = OBS_NEXT
        elif emit == EMIT_SLEEP:
            duration = state.sleep_base
            for reg, coeff in state.sleep_coeffs:
                duration += coeff * regs[reg]
            if duration < 1:
                raise ProtocolError(
                    f"table {program.protocol_name!r}: sleep state "
                    f"{state_index} evaluated to {duration} rounds"
                )
            yield sleep_for(duration)
            obs_class = OBS_NEXT
        else:
            if state.component != component:
                component = state.component
                ctx.set_component(component)
            if emit == EMIT_TRANSMIT:
                yield TRANSMIT
                obs_class = OBS_NEXT
            elif emit == EMIT_BIT and (
                (regs[state.a] >> (width - 1 - regs[state.b])) & 1
            ):
                yield TRANSMIT
                obs_class = OBS_TX
            elif emit == EMIT_LE and regs[state.a] <= regs[state.b]:
                yield TRANSMIT
                obs_class = OBS_TX
            else:
                observation = yield LISTEN
                heard = observation is not None and observation.heard_something
                obs_class = OBS_HEARD if heard else OBS_SILENCE

        for edge in state.edges[obs_class]:
            if _guards_pass(edge, regs, width):
                break
        else:
            raise ProtocolError(
                f"table {program.protocol_name!r}: no edge matched in "
                f"state {state_index} for class {obs_class!r} (regs={regs})"
            )
        for op in edge.ops:
            kind = op[0]
            if kind == "set":
                regs[op[1]] = op[2]
            elif kind == "add":
                regs[op[1]] += op[2]
            elif kind == "rank":
                # Exactly core.ranks.draw_rank's single getrandbits call,
                # stored as the raw integer (bits are read MSB-first).
                regs[op[1]] = rng.getrandbits(width)
            elif kind == "geom":
                regs[op[1]] = geometric_slot(rng, op[2])
            else:  # pragma: no cover - builder bug
                raise ProtocolError(f"unknown op {op!r}")
        if edge.decide is not None:
            ctx.decide(
                Decision.IN_MIS if edge.decide == "in" else Decision.OUT_MIS
            )
        if edge.set_info is not None:
            key, reg = edge.set_info
            ctx.info[key] = bool(regs[reg])
        state_index = edge.next


class TableProtocolAdapter(Protocol):
    """A :class:`TableProgram` wrapped as an ordinary scalar protocol.

    Used by the golden tests (run the table through both scalar
    engines) and by anyone who wants to sanity-check a table against
    the coroutine it mirrors.
    """

    def __init__(self, program: TableProgram, base: Protocol):
        self.program = program
        self.name = base.name
        self.compatible_models = base.compatible_models
        self._base = base

    def max_rounds_hint(self, n: int, delta: int) -> Optional[int]:
        return self._base.max_rounds_hint(n, delta)

    def run(self, ctx: NodeContext) -> ProtocolRun:
        return run_table(self.program, ctx)


def as_table_protocol(protocol: Protocol, n: int, delta: int) -> Optional[Protocol]:
    """Compile ``protocol`` for an ``(n, delta)`` cell and wrap it.

    Returns ``None`` when no table builder is registered for the exact
    protocol class (the scalar engine is then the only backend).
    """
    from .registry import compile_table_for

    program = compile_table_for(protocol, n, delta)
    if program is None:
        return None
    return TableProtocolAdapter(program, protocol)
