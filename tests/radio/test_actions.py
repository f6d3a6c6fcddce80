"""Validation tests for actions and node-context plumbing."""

import ast
import random
from pathlib import Path

import pytest

import repro
from repro.errors import ProtocolError
from repro.radio import Decision, Listen, Sleep, SleepUntil, Transmit
from repro.radio.actions import LISTEN, SLEEP_CACHE_SIZE, TRANSMIT, sleep_for
from repro.radio.node import NodeContext


class TestActions:
    def test_transmit_default_payload_is_unary(self):
        assert Transmit().payload == 1

    def test_sleep_validates_duration(self):
        assert Sleep(0).rounds == 0
        assert Sleep(5).rounds == 5
        with pytest.raises(ProtocolError):
            Sleep(-1)

    def test_sleep_until_validates_target(self):
        assert SleepUntil(0).target == 0
        with pytest.raises(ProtocolError):
            SleepUntil(-3)

    def test_actions_are_frozen(self):
        with pytest.raises(AttributeError):
            Transmit().payload = 2
        with pytest.raises(AttributeError):
            Sleep(1).rounds = 2

    def test_listen_is_stateless(self):
        assert Listen() == Listen()


class TestInternedActions:
    def test_shared_instances_equal_fresh_ones(self):
        assert LISTEN == Listen()
        assert TRANSMIT == Transmit(1)
        assert TRANSMIT.channel == 0 and LISTEN.channel == 0

    @pytest.mark.parametrize(
        "rounds", [0, 1, SLEEP_CACHE_SIZE - 1, SLEEP_CACHE_SIZE, 10 * SLEEP_CACHE_SIZE]
    )
    def test_sleep_for_equals_sleep(self, rounds):
        action = sleep_for(rounds)
        assert type(action) is Sleep
        assert action == Sleep(rounds)

    def test_sleep_for_shares_short_durations_only(self):
        assert sleep_for(3) is sleep_for(3)
        assert sleep_for(SLEEP_CACHE_SIZE) is not sleep_for(SLEEP_CACHE_SIZE)

    @pytest.mark.parametrize("rounds", [-1, -SLEEP_CACHE_SIZE, -SLEEP_CACHE_SIZE - 1])
    def test_sleep_for_rejects_negative(self, rounds):
        with pytest.raises(ProtocolError):
            sleep_for(rounds)

    def test_shared_instances_are_frozen(self):
        with pytest.raises(AttributeError):
            LISTEN.channel = 1
        with pytest.raises(AttributeError):
            TRANSMIT.payload = 2
        with pytest.raises(AttributeError):
            sleep_for(2).rounds = 5
        assert LISTEN == Listen() and TRANSMIT == Transmit(1)
        assert sleep_for(2) == Sleep(2)


#: Protocol code whose per-round yields must reuse shared actions.
HOT_PATH_SOURCES = (
    "core",
    "baselines",
    "lowerbound/strategies.py",
    "radio/batch/table.py",
)


def fresh_action_yields(source: str):
    """Line numbers of yields that build a per-round action the shared
    ones cover: ``Listen()``, ``Transmit()`` / ``Transmit(1)``, any
    ``Sleep(...)``, and the ``_sleep`` sub-generator the backoff
    primitives once used."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.Yield, ast.YieldFrom)):
            continue
        call = node.value
        if not (isinstance(call, ast.Call) and isinstance(call.func, ast.Name)):
            continue
        name, args = call.func.id, call.args
        if isinstance(node, ast.YieldFrom):
            fresh = name == "_sleep"
        elif call.keywords:
            fresh = False
        elif name == "Listen":
            fresh = not args
        elif name == "Transmit":
            fresh = not args or (
                len(args) == 1
                and isinstance(args[0], ast.Constant)
                and args[0].value == 1
            )
        else:
            fresh = name == "Sleep"
        if fresh:
            found.append(node.lineno)
    return found


class TestHotPathYieldsSharedActions:
    def test_detector_flags_each_fresh_form(self):
        source = """
def run(ctx, payload, channel):
    yield Listen()
    observation = yield Listen()
    yield Transmit(1)
    yield Transmit()
    yield Sleep(3)
    yield from _sleep(2)
    yield Listen(channel)
    yield Transmit(payload)
    yield Transmit(1, channel)
    yield LISTEN
    yield sleep_for(3)
    yield from rec_ebackoff(ctx, 1, 2)
"""
        assert fresh_action_yields(source) == [3, 4, 5, 6, 7, 8]

    def test_protocols_yield_shared_actions(self):
        root = Path(repro.__file__).parent
        files = []
        for entry in HOT_PATH_SOURCES:
            path = root / entry
            assert path.exists(), entry
            files.extend(sorted(path.rglob("*.py")) if path.is_dir() else [path])
        offenders = [
            f"{path.relative_to(root)}:{line}"
            for path in files
            for line in fresh_action_yields(path.read_text())
        ]
        assert not offenders, (
            "yield LISTEN / TRANSMIT / sleep_for(r) instead of building an "
            f"action per round: {offenders}"
        )


class TestNodeContext:
    def make_ctx(self):
        return NodeContext(node=3, rng=random.Random(0), n=16, delta=4)

    def test_exposes_model_knowledge(self):
        ctx = self.make_ctx()
        assert ctx.n == 16
        assert ctx.delta == 4
        assert ctx.node == 3

    def test_initial_state(self):
        ctx = self.make_ctx()
        assert ctx.decision is Decision.UNDECIDED
        assert ctx.now == 0
        assert ctx.info == {}
        assert ctx.energy_by_component == {}

    def test_charge_attributes_to_component(self):
        ctx = self.make_ctx()
        ctx._charge_awake_round()
        ctx.set_component("phase-2")
        ctx._charge_awake_round()
        ctx._charge_awake_round()
        assert ctx.energy_by_component == {"default": 1, "phase-2": 2}

    def test_decide_is_irrevocable(self):
        ctx = self.make_ctx()
        ctx.decide(Decision.OUT_MIS)
        ctx.decide(Decision.OUT_MIS)  # idempotent ok
        with pytest.raises(ProtocolError):
            ctx.decide(Decision.IN_MIS)

    def test_repr(self):
        assert "node=3" in repr(self.make_ctx())
