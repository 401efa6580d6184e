"""Registry of interchangeable good-machine simulation backends.

Two backends ship with the library:

``reference``
    :class:`~repro.fausim.logic_sim.LogicSimulator` — the per-gate
    interpreter.  Slow but transparent; it is the oracle the differential
    test harness checks the compiled backend against.

``packed``
    :class:`~repro.fausim.packed_sim.PackedLogicSimulator` — the compiled
    bit-parallel evaluator.  Every signal plane is one unbounded-width Python
    integer, so one gate evaluation covers the entire pattern/fault batch in
    a single big-integer operation, however wide the batch is.

All consumers (:class:`~repro.fausim.fault_sim.PropagationFaultSimulator`,
:func:`~repro.core.verify.verify_test_sequence`, the flow and the baselines)
take a ``backend`` argument and resolve it here, so selecting a backend is
uniform across the code base::

    simulator = create_simulator(circuit, backend="packed")

``backend=None`` resolves to the process-wide default.  The default is
``packed``: the compiled backend is differentially tested to be bit-exact
against the reference interpreter (``tests/fausim``, ``tests/core``,
``tests/tdsim``), so the fast path is safe to use everywhere.  Pass
``backend="reference"`` (or call ``set_default_backend("reference")``) to
fall back to the transparent per-gate interpreter — the escape hatch when
debugging the packed evaluator itself.

The search-side *implication engines* (:mod:`repro.tdgen.implication`) are
registered under the same names and resolve ``backend=None`` through
:func:`default_backend` as well, so one backend choice — per call, via
:func:`set_default_backend`, or via the CLI ``--backend`` flag — governs
fault simulation and forward implication together.
"""

from __future__ import annotations

from typing import Callable, Dict, Tuple

from repro.circuit.netlist import Circuit
from repro.fausim.logic_sim import LogicSimulator
from repro.fausim.packed_sim import PackedLogicSimulator
from repro.fausim.packed_two_frame import PackedTwoFrameSimulator

#: A backend factory builds a simulator bound to one circuit.  The returned
#: object must implement the scalar ``LogicSimulator`` interface
#: (``combinational`` / ``next_state`` / ``clock`` / ``outputs``); batch
#: methods (``clock_batch`` …) are optional accelerations.
BackendFactory = Callable[[Circuit], object]

REFERENCE_BACKEND = "reference"
PACKED_BACKEND = "packed"

_REGISTRY: Dict[str, BackendFactory] = {}
_default_backend = PACKED_BACKEND


def register_backend(name: str, factory: BackendFactory, overwrite: bool = False) -> None:
    """Register a simulation backend under ``name``.

    Args:
        name: registry key used in every ``backend=`` argument.
        factory: callable building a simulator for a circuit.
        overwrite: allow replacing an existing registration.
    """
    if not overwrite and name in _REGISTRY:
        raise ValueError(f"backend {name!r} is already registered")
    _REGISTRY[name] = factory


def available_backends() -> Tuple[str, ...]:
    """Names of all registered backends, sorted."""
    return tuple(sorted(_REGISTRY))


def resolve_backend(name: "str | None" = None) -> str:
    """Resolve ``None`` to the default backend and validate the name."""
    resolved = name if name is not None else _default_backend
    if resolved not in _REGISTRY:
        raise ValueError(
            f"unknown simulation backend {resolved!r}; available: {', '.join(available_backends())}"
        )
    return resolved


def default_backend() -> str:
    """Name of the process-wide default backend."""
    return _default_backend


def set_default_backend(name: str) -> str:
    """Change the process-wide default backend; returns the previous default."""
    global _default_backend
    resolved = resolve_backend(name)
    previous = _default_backend
    _default_backend = resolved
    return previous


def create_simulator(circuit: Circuit, backend: "str | None" = None):
    """Build a simulator for ``circuit`` using the selected backend."""
    return _REGISTRY[resolve_backend(backend)](circuit)


def create_two_frame_simulator(
    circuit: Circuit, robust: bool = True, backend: "str | None" = None
):
    """Build the eight-valued two-frame simulator matching a backend.

    Returns ``None`` for the ``reference`` backend (its consumers route the
    exact injection checks through the interpreted implication engine
    instead).  The ``packed`` simulator runs a whole injection batch through
    one unbounded-width pass.
    """
    if resolve_backend(backend) == PACKED_BACKEND:
        return PackedTwoFrameSimulator(circuit, robust=robust)
    return None


register_backend(REFERENCE_BACKEND, LogicSimulator)
register_backend(PACKED_BACKEND, PackedLogicSimulator)
