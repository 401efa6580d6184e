"""Differential tests: the byte-word set kernel vs the reference set algebra.

:class:`repro.algebra.packed_sets.PackedSetSimulator` packs one candidate's
possibility set per byte of a signal word and folds gates through memoised
pair images.  Every byte it produces must equal what
:func:`repro.algebra.sets.evaluate_gate_sets` gives for that candidate on
its own, on random :class:`~repro.circuit.builder.CircuitBuilder` circuits
covering every gate type at arities 1-4, robust and non-robust tables,
widths 1-6 with empty input bytes, stem and branch injection moves, and the
first conflicted signal per candidate.  An event-driven sweep off a parent
column must also equal the full sweep of the same assignment.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Sequence, Tuple

import pytest

from repro.algebra.packed_sets import (
    Move,
    PackedSetSimulator,
    apply_move,
    lane_ones,
    pack_value_sets,
    unpack_value_sets,
)
from repro.algebra.sets import evaluate_gate_sets
from repro.circuit.builder import CircuitBuilder
from repro.circuit.gates import GateType
from repro.fausim.compile import CompiledCircuit, compile_circuit
from repro.obs.metrics import MetricsRegistry

MULTI_INPUT_TYPES = (
    GateType.AND,
    GateType.NAND,
    GateType.OR,
    GateType.NOR,
    GateType.XOR,
    GateType.XNOR,
)


def _random_circuit(rng: random.Random, num_inputs: int = 4, num_gates: int = 14):
    builder = CircuitBuilder("kernel")
    signals = builder.inputs([f"i{k}" for k in range(num_inputs)])
    for index in range(num_gates):
        name = f"g{index}"
        if rng.random() < 0.15:
            gate_type = rng.choice((GateType.NOT, GateType.BUF))
            fanin = [rng.choice(signals)]
        else:
            gate_type = rng.choice(MULTI_INPUT_TYPES)
            arity = rng.randint(1, 4)
            fanin = [rng.choice(signals) for _ in range(arity)]
        builder.gate(gate_type, name, fanin)
        signals.append(name)
    builder.outputs([signal for signal in signals if signal.startswith("g")])
    return compile_circuit(builder.build())


def _random_set(rng: random.Random, empty_rate: float) -> int:
    return 0 if rng.random() < empty_rate else rng.randint(1, 255)


def _random_moves(rng: random.Random, width: int) -> List[Move]:
    lanes = pack_value_sets([rng.randint(0, 1) for _ in range(width)])
    return [(rng.randrange(8), rng.randrange(8), lanes)]


def _move_byte(value_set: int, move: Move, candidate: int) -> int:
    """The reference ``_inject`` on one candidate, for one move."""
    source, target, lanes = move
    if (lanes >> (8 * candidate)) & 1 and (value_set >> source) & 1:
        return (value_set & ~(1 << source)) | (1 << target)
    return value_set


def _reference(
    compiled: CompiledCircuit,
    sources: Dict[int, List[int]],
    width: int,
    robust: bool,
    stem_moves: Dict[int, List[Move]],
    branch_moves: Dict[int, List[Move]],
) -> Tuple[List[List[int]], Dict[int, str]]:
    """Per candidate: the set of every slot, and the first empty gate output."""
    gate_types = [compiled.circuit.gate(compiled.signal_names[out]).gate_type
                  for out in compiled.outputs]
    columns: List[List[int]] = []
    conflicts: Dict[int, str] = {}
    for candidate in range(width):
        column = [0] * compiled.num_signals
        for slot, sets in sources.items():
            column[slot] = sets[candidate]
        for index, out in enumerate(compiled.outputs):
            inputs = []
            for position in range(compiled.fanin_offsets[index], compiled.fanin_offsets[index + 1]):
                value_set = column[compiled.fanin_flat[position]]
                for move in branch_moves.get(position, ()):
                    value_set = _move_byte(value_set, move, candidate)
                inputs.append(value_set)
            value_set = evaluate_gate_sets(gate_types[index], inputs, robust)
            for move in stem_moves.get(out, ()):
                value_set = _move_byte(value_set, move, candidate)
            column[out] = value_set
            if value_set == 0 and candidate not in conflicts:
                conflicts[candidate] = compiled.signal_names[out]
        columns.append(column)
    return columns, conflicts


def _random_injection(rng: random.Random, compiled: CompiledCircuit, width: int):
    stem_moves: Dict[int, List[Move]] = {}
    branch_moves: Dict[int, List[Move]] = {}
    for out in rng.sample(compiled.outputs, 2):
        stem_moves[out] = _random_moves(rng, width)
    for position in rng.sample(range(len(compiled.fanin_flat)), 2):
        branch_moves[position] = _random_moves(rng, width)
    return stem_moves, branch_moves


def test_pack_unpack_round_trip():
    rng = random.Random(3)
    for width in range(1, 7):
        sets = [_random_set(rng, 0.3) for _ in range(width)]
        word = pack_value_sets(sets)
        assert unpack_value_sets(word, width) == sets
        # Byte k is candidate k's set.
        assert [(word >> (8 * k)) & 0xFF for k in range(width)] == sets
    assert lane_ones(3) == 0x010101
    assert pack_value_sets([0x2A] * 5) == 0x2A * lane_ones(5)


def test_apply_move_is_per_byte_inject():
    rng = random.Random(11)
    for _ in range(200):
        width = rng.randint(1, 6)
        sets = [_random_set(rng, 0.2) for _ in range(width)]
        move = _random_moves(rng, width)[0]
        got = unpack_value_sets(apply_move(pack_value_sets(sets), move), width)
        assert got == [_move_byte(value_set, move, k) for k, value_set in enumerate(sets)]


@pytest.mark.parametrize("robust", [True, False])
@pytest.mark.parametrize("width", [1, 2, 3, 4, 5, 6])
@pytest.mark.parametrize("seed", range(6))
def test_full_sweep_matches_reference(seed, width, robust):
    rng = random.Random(seed * 101 + width)
    compiled = _random_circuit(rng)
    sources = {
        slot: [_random_set(rng, 0.1) for _ in range(width)] for slot in compiled.pi_slots
    }
    stem_moves, branch_moves = _random_injection(rng, compiled, width)
    words: List[Optional[int]] = [0] * compiled.num_signals
    for slot, sets in sources.items():
        words[slot] = pack_value_sets(sets)

    result = PackedSetSimulator(compiled, robust=robust).propagate(
        words, width, stem_moves, branch_moves
    )

    columns, conflicts = _reference(compiled, sources, width, robust, stem_moves, branch_moves)
    for slot in range(compiled.num_signals):
        assert unpack_value_sets(result.words[slot], width) == [
            columns[candidate][slot] for candidate in range(width)
        ], compiled.signal_names[slot]
    assert result.conflict_signals == conflicts


def test_every_gate_type_and_arity_exhaustively_on_one_gate():
    """Single gates, all types and arities, every byte drawn independently."""
    rng = random.Random(5)
    for robust in (True, False):
        for gate_type in MULTI_INPUT_TYPES + (GateType.NOT, GateType.BUF):
            arities = (1,) if gate_type in (GateType.NOT, GateType.BUF) else (1, 2, 3, 4)
            for arity in arities:
                builder = CircuitBuilder("one")
                inputs = builder.inputs([f"i{k}" for k in range(arity)])
                builder.gate(gate_type, "y", inputs)
                builder.output("y")
                compiled = compile_circuit(builder.build())
                simulator = PackedSetSimulator(compiled, robust=robust)
                width = 6
                for _ in range(20):
                    input_sets = [[_random_set(rng, 0.1) for _ in range(width)] for _ in inputs]
                    words: List[Optional[int]] = [0] * compiled.num_signals
                    for slot, sets in zip(compiled.pi_slots, input_sets):
                        words[slot] = pack_value_sets(sets)
                    result = simulator.propagate(words, width)
                    got = unpack_value_sets(result.words[compiled.slot_of["y"]], width)
                    want = [
                        evaluate_gate_sets(gate_type, [sets[k] for sets in input_sets], robust)
                        for k in range(width)
                    ]
                    assert got == want, (gate_type, arity, robust)
                    assert result.conflict_signals == {
                        k: "y" for k, value_set in enumerate(want) if value_set == 0
                    }


def _changed_reference(
    compiled: CompiledCircuit,
    gates: Sequence[int],
    full_words: Sequence[int],
    base: Sequence[int],
    seeds: Sequence[int],
    ones: int,
) -> int:
    """Gates with a fanin on the wavefront: seeds, then outputs leaving the parent."""
    changed = set(seeds)
    evaluated = 0
    for index in gates:
        fanin = compiled.fanin_flat[compiled.fanin_offsets[index]:compiled.fanin_offsets[index + 1]]
        if any(slot in changed for slot in fanin):
            evaluated += 1
            out = compiled.outputs[index]
            if full_words[out] != base[out] * ones:
                changed.add(out)
    return evaluated


@pytest.mark.parametrize("robust", [True, False])
@pytest.mark.parametrize("width", [1, 2, 4, 6])
@pytest.mark.parametrize("seed", range(6))
def test_event_driven_sweep_matches_full_sweep(seed, width, robust):
    rng = random.Random(seed * 37 + width)
    compiled = _random_circuit(rng, num_gates=18)
    simulator = PackedSetSimulator(compiled, robust=robust)
    stem_moves, branch_moves = _random_injection(rng, compiled, width)
    parent_moves = (
        {out: [(s, t, 1)] for out, [(s, t, _)] in stem_moves.items()},
        {position: [(s, t, 1)] for position, [(s, t, _)] in branch_moves.items()},
    )

    # Conflict-free parent: one candidate with nonempty source sets.
    parent_sources = {slot: rng.randint(1, 255) for slot in compiled.pi_slots}
    parent_words: List[Optional[int]] = [0] * compiled.num_signals
    for slot, value_set in parent_sources.items():
        parent_words[slot] = value_set
    # Moves never empty a set, so the parent stays conflict free.
    base = simulator.propagate(parent_words, 1, *parent_moves).words
    ones = lane_ones(width)
    stem_moves = {out: [(s, t, ones)] for out, [(s, t, _)] in stem_moves.items()}
    branch_moves = {position: [(s, t, ones)] for position, [(s, t, _)] in branch_moves.items()}

    # The children re-assign one input (empty bytes allowed).
    var_slot = rng.choice(compiled.pi_slots)
    child = pack_value_sets([_random_set(rng, 0.2) for _ in range(width)])
    full_words: List[Optional[int]] = [0] * compiled.num_signals
    for slot, value_set in parent_sources.items():
        full_words[slot] = value_set * ones
    full_words[var_slot] = child
    full = simulator.propagate(full_words, width, stem_moves, branch_moves)

    registry = MetricsRegistry()
    simulator.metrics = registry
    words: List[Optional[int]] = [None] * compiled.num_signals
    words[var_slot] = child
    gates = range(len(compiled.ops))
    incremental = simulator.propagate(
        words, width, stem_moves, branch_moves, gates,
        base_sets=base, changed_slots=[var_slot],
    )

    resolved = [
        base[slot] * ones if word is None else word
        for slot, word in enumerate(incremental.words)
    ]
    assert resolved == full.words
    assert incremental.conflict_signals == full.conflict_signals
    evaluated = _changed_reference(compiled, gates, full.words, base, [var_slot], ones)
    assert registry.counter_sum("repro_wavefront_gates_evaluated_total") == evaluated
    assert registry.counter_sum("repro_wavefront_gates_skipped_total") == len(gates) - evaluated
