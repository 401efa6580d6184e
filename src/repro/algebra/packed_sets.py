"""Byte-per-candidate *set* words on the compiled netlist.

:mod:`repro.algebra.packed` evaluates one concrete eight-valued *value* per
pattern slot; the search side of the flow (TDgen's forward implication,
TDsim's reference fallbacks) instead propagates *sets of still-possible
values* per signal.  A :class:`~repro.algebra.sets.ValueSet` is an eight-bit
mask, so a batch of candidates packs into one Python int per signal: byte
``k`` of the signal's *word* is candidate ``k``'s possibility set.  An empty
byte is a conflict.

In that encoding a gate fold is one lookup per byte in a lazily filled
*pair-image memo*: the key ``a_set << 8 | b_set`` maps to the image of the
two-input core gate over every member pair of the two sets, i.e.
:func:`repro.algebra.sets.evaluate_gate_sets`'s pairwise image.  Each opcode
has a *base* memo (inner fold steps) and a *final* memo with the inverter
permutation pre-composed (NAND/NOR/XNOR), and both are bounded by 256 x 256
entries; a whole robust campaign fills a few thousand.  An empty input byte
maps to an empty image, matching the reference's empty-set short-circuit.

The other per-sweep operations are word arithmetic:

* a parent column broadcast across ``width`` candidates is
  ``set * lane_ones(width)`` (``0x0101...01``);
* "changed from the parent" is one ``!=`` against that broadcast;
* a column read is ``(word >> 8 * k) & 0xFF``;
* an injection :data:`Move` (stem or branch) converts the activating
  transition into its fault-carrying variant on every selected byte at once.

At decision-batch widths (four PI values or two PPI bits) this beats an
eight-plane bit-slice encoding: a plane fold pays for every occupied pair of
planes and for rebuilding those plane lists per gate, while a byte fold pays
one dictionary lookup per candidate.

:class:`PackedSetSimulator` runs this set evaluation over the flat gate
program of :mod:`repro.fausim.compile`, with injection moves applied at stem
outputs and at single fanout-branch pins, mirroring the reference injection
of :mod:`repro.tdgen.simulation`.  Each byte carries one independent
candidate assignment — a decision alternative, a candidate frame, or a
fault-free/faulty pair — and one pass over the gate program implies all of
them.
"""

from __future__ import annotations

import dataclasses
import functools
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.algebra.packed import NOT_PERMUTATION, NUM_PLANES, core_of, packed_table
from repro.algebra.sets import ValueSet
from repro.circuit.gates import GateType
from repro.fausim.compile import _OPCODES, OP_NOT, CompiledCircuit
from repro.obs.metrics import NULL_REGISTRY

#: An injection move: convert value index ``source`` into value index
#: ``target`` on the bytes selected by ``lanes`` (bit 0 of every selected
#: byte set, as in :func:`lane_ones`) — the reference ``_inject`` with the
#: activation/fault-value pair flattened to indices.
Move = Tuple[int, int, int]

#: Opcode -> (two-input core gate type, apply inverter permutation after the
#: fold), shared with the fault-parallel value simulator so the compiled set
#: evaluation cannot drift from the compiler's opcode map.
OP_CORE: Dict[int, Tuple[GateType, bool]] = {
    opcode: core_of(gate_type)
    for gate_type, opcode in _OPCODES.items()
    if gate_type not in (GateType.NOT, GateType.BUF)
}


def _permute(value_set: int, permutation: Sequence[int]) -> int:
    """Image of a value set under a value-index permutation."""
    image = 0
    for index in range(NUM_PLANES):
        if (value_set >> index) & 1:
            image |= 1 << permutation[index]
    return image


#: Inverter image of every possible set, as a ``bytes.translate`` table.
_NOT_IMAGE = bytes(_permute(value_set, NOT_PERMUTATION) for value_set in range(256))


def lane_ones(width: int) -> int:
    """The word with bit 0 of each of ``width`` bytes set (``0x0101...01``)."""
    return ((1 << (8 * width)) - 1) // 255


def pack_value_sets(sets: Sequence[ValueSet]) -> int:
    """Pack one signal's possibility set per candidate into a byte word."""
    return int.from_bytes(bytes(sets), "little")


def unpack_value_sets(word: int, width: int) -> List[ValueSet]:
    """Expand a byte word back into one :class:`ValueSet` per candidate."""
    return list(word.to_bytes(width, "little"))


def apply_move(word: int, move: Move) -> int:
    """Apply one injection move to a word and return the result.

    On every selected byte that contains the source value, the source value
    is removed and the target value added — exactly the reference
    ``_inject`` (bytes without the source value are untouched, and other
    members of the set survive).
    """
    source, target, lanes = move
    moved = word & (lanes << source)
    if moved:
        word = (word ^ moved) | ((moved >> source) << target)
    return word


class _PairImages(dict):
    """Lazily filled image memo of one fold step, keyed ``a_set << 8 | b_set``."""

    def __init__(self, table: Sequence[Sequence[int]]) -> None:
        super().__init__()
        self._table = table

    def __missing__(self, key: int) -> int:
        left, right = key >> 8, key & 0xFF
        image = 0
        for a_index in range(NUM_PLANES):
            if (left >> a_index) & 1:
                row = self._table[a_index]
                for b_index in range(NUM_PLANES):
                    if (right >> b_index) & 1:
                        image |= 1 << row[b_index]
        self[key] = image
        return image


@functools.lru_cache(maxsize=None)
def _fold_images(opcode: int, robust: bool) -> Tuple[_PairImages, _PairImages]:
    """The (base, final) pair-image memos of one opcode, shared process-wide."""
    core, invert = OP_CORE[opcode]
    base = packed_table(core, robust)
    if not invert:
        memo = _PairImages(base)
        return memo, memo
    last = tuple(tuple(NOT_PERMUTATION[value] for value in row) for row in base)
    return _PairImages(base), _PairImages(last)


@dataclasses.dataclass
class PackedSetResult:
    """Outcome of one packed set-propagation pass.

    Attributes:
        words: per signal slot, the byte word after propagation (``None``
            for slots an event-driven sweep left at the parent's value).
        conflict_signals: first signal (in evaluation order) whose set became
            empty, per conflicted candidate index.
    """

    words: List[Optional[int]]
    conflict_signals: Dict[int, str]


class PackedSetSimulator:
    """Set propagation over one compiled circuit, one candidate per byte.

    Args:
        compiled: the compiled gate program to run (see
            :func:`repro.fausim.compile.compile_circuit`).
        robust: use the robust (paper Table 1) or relaxed non-robust tables.
    """

    #: Metrics registry counting wavefront gate evaluations/skips: at most
    #: two registry calls per sweep, never one per gate (no-op by default).
    metrics = NULL_REGISTRY

    def __init__(self, compiled: CompiledCircuit, robust: bool = True) -> None:
        self.compiled = compiled
        self.robust = robust
        self._images = {opcode: _fold_images(opcode, robust) for opcode in OP_CORE}
        #: Opcodes whose single-input form is the inverter image.
        self._inverting = frozenset(
            [OP_NOT] + [opcode for opcode, (_, invert) in OP_CORE.items() if invert]
        )

    def propagate(
        self,
        words: List[Optional[int]],
        width: int,
        stem_moves: Optional[Mapping[int, Sequence[Move]]] = None,
        branch_moves: Optional[Mapping[int, Sequence[Move]]] = None,
        gate_indices: Optional[Sequence[int]] = None,
        base_sets: Optional[Sequence[ValueSet]] = None,
        changed_slots: Optional[Sequence[int]] = None,
    ) -> PackedSetResult:
        """Run the gate program over pre-loaded source words.

        Args:
            words: one byte word per signal slot; the PI/PPI slots must be
                loaded (including any source-stem injection), gate slots are
                overwritten.  Updated in place.
            width: number of candidates (bytes per word).
            stem_moves: injection moves keyed by *gate output* slot, applied
                right after the gate is evaluated (a stem fault on a gate
                output — every sink sees the injected set).
            branch_moves: injection moves keyed by flat fanin position,
                applied to the word *read* at that one (gate, pin) only (a
                fanout-branch fault — the stem keeps its fault-free set).
            gate_indices: restrict the pass to these gate-program indices, in
                ascending order (incremental cone evaluation); ``None`` runs
                the full program.
            base_sets: per-slot sets of the conflict-free *parent* state an
                incremental sweep starts from.  Enables event-driven change
                tracking: a gate none of whose inputs changed relative to
                the parent is skipped outright (its word stays ``None``), a
                ``None`` word reads as the parent's broadcast, and a gate
                whose result equals that broadcast does not wake its fanout.
                Requires ``changed_slots``.
            changed_slots: the source slots whose loaded words may differ
                from the parent column (the decision variable, re-coupled
                state registers); the transitive wavefront is derived from
                them.

        Returns:
            The evaluated words plus the first conflicted signal per
            candidate (the packed counterpart of recording the first empty
            set during the reference propagation pass).
        """
        branch_moves = branch_moves or {}
        stem_moves = stem_moves or {}
        compiled = self.compiled
        images = self._images
        inverting = self._inverting
        fanin_flat = compiled.fanin_flat
        offsets = compiled.fanin_offsets
        outputs = compiled.outputs
        signal_names = compiled.signal_names
        ops = compiled.ops
        indices = range(len(ops)) if gate_indices is None else gate_indices
        ones = lane_ones(width)
        narrow = width == 1
        shifts = range(8, 8 * width, 8)
        conflicted = 0
        conflict_signals: Dict[int, str] = {}

        # Event-driven mode: gates are evaluated only when an input sits on
        # the change wavefront seeded by ``changed_slots``; everything else
        # keeps its ``None`` word (the parent column answers reads).
        tracking = base_sets is not None
        changed = bytearray(len(words))
        if tracking:
            for slot in changed_slots or ():
                changed[slot] = 1

        evaluated = 0
        for index in indices:
            start = offsets[index]
            end = offsets[index + 1]

            if tracking:
                for position in range(start, end):
                    if changed[fanin_flat[position]]:
                        break
                else:
                    # No input on the wavefront: the parent's value stands.
                    continue
                evaluated += 1

            slot = fanin_flat[start]
            acc = words[slot]
            if acc is None:
                acc = base_sets[slot] * ones
            if start in branch_moves:
                for move in branch_moves[start]:
                    acc = apply_move(acc, move)

            op = ops[index]
            if end - start == 1:
                if op in inverting:
                    acc = (
                        _NOT_IMAGE[acc]
                        if narrow
                        else int.from_bytes(
                            acc.to_bytes(width, "little").translate(_NOT_IMAGE),
                            "little",
                        )
                    )
            else:
                base_images, last_images = images[op]
                position = start + 1
                while position < end:
                    slot = fanin_flat[position]
                    word = words[slot]
                    if word is None:
                        word = base_sets[slot] * ones
                    if position in branch_moves:
                        for move in branch_moves[position]:
                            word = apply_move(word, move)
                    position += 1
                    memo = last_images if position == end else base_images
                    if narrow:
                        acc = memo[acc << 8 | word]
                    else:
                        folded = memo[(acc & 0xFF) << 8 | (word & 0xFF)]
                        for shift in shifts:
                            folded |= memo[
                                (acc >> shift & 0xFF) << 8 | (word >> shift & 0xFF)
                            ] << shift
                        acc = folded

            out = outputs[index]
            if out in stem_moves:
                for move in stem_moves[out]:
                    acc = apply_move(acc, move)
            words[out] = acc
            if tracking and acc != base_sets[out] * ones:
                # Wake the fanout only when the result actually left the
                # parent's value (the wavefront dies where sets converge).
                changed[out] = 1

            # Bit 0 of every nonempty byte, folded down from the whole byte.
            live = acc | acc >> 4
            live |= live >> 2
            live |= live >> 1
            empty = ones & ~(live | conflicted)
            if empty:
                conflicted |= empty
                name = signal_names[out]
                while empty:
                    low = empty & -empty
                    conflict_signals[low.bit_length() >> 3] = name
                    empty ^= low

        metrics = self.metrics
        if metrics.enabled:
            total = len(ops) if gate_indices is None else len(gate_indices)
            if tracking:
                metrics.inc("repro_wavefront_gates_evaluated_total", evaluated)
                if total > evaluated:
                    metrics.inc(
                        "repro_wavefront_gates_skipped_total", total - evaluated
                    )
            else:
                metrics.inc("repro_wavefront_gates_evaluated_total", total)

        return PackedSetResult(words=words, conflict_signals=conflict_signals)
