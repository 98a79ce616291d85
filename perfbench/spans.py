"""Per-layer timing from outside the program.

A :class:`Tracer` accumulates, per layer name, the inclusive time spent
inside calls into that layer and the *self* time (inclusive minus the
time of nested traced calls).  :func:`instrument` installs the tracer
around the public entry points of every layer for the duration of a
``with`` block and restores the originals afterwards; nothing under
``src/`` knows it is being timed, and with no tracer installed the
benchmark runs the library's own functions untouched.

Workloads call instrumented entry points through their modules
(``fantom.build_fantom``, ``harness.validate_walk``), never through a
name imported at load time, so the patched attribute is the one called.
"""

from __future__ import annotations

from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

from repro.corpus import families, fuzz
from repro.netlist import fantom
from repro.netlist.netlist import Netlist
from repro.pipeline.manager import PassManager
from repro.pipeline.registry import DEFAULT_PIPELINE, create_pass
from repro.sim import harness
from repro.store.net import ObjectStoreBackend
from repro.store.store import ResultStore

#: Layer name of each default pipeline stage, named after the module
#: that does the stage's work.
PASS_LAYERS = {
    "validate": "flowtable",
    "reduce": "minimize",
    "assign": "assign",
    "outputs": "core.outputs",
    "hazards": "hazards",
    "fsv": "core.fsv",
    "factor": "core.factoring",
}


class Tracer:
    """Inclusive time, self time and call counts per layer, plus counters."""

    def __init__(self):
        self.inclusive: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        # One entry per open traced call: the time its traced children took.
        self._children: list[float] = []

    def call(self, layer: str, fn, args=(), kwargs={}):  # noqa: B006 - read only
        children = self._children
        children.append(0.0)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            elapsed = perf_counter() - start
            self.inclusive[layer] += elapsed
            self.self_time[layer] += elapsed - children.pop()
            if children:
                children[-1] += elapsed

    def count(self, name: str, amount: int = 1) -> None:
        self.counts[name] += amount


class _TimedKernel:
    """A simulator whose driving calls are timed as ``sim.kernel``.

    Each call looks the bound method up on the simulator again:
    :class:`~repro.sim.ring.RingSimulator` rebinds ``run`` and
    ``schedule`` on itself when it migrates between kernel paths, so a
    binding captured at construction would keep driving the old path.
    Everything else (readers, ``now``, ``trace``, ``kernel_stats``) is
    read through from the simulator.
    """

    def __init__(self, sim, tracer: Tracer):
        self._sim = sim
        self._tracer = tracer

    def __getattr__(self, name):
        return getattr(self._sim, name)

    # The harness reads these several times a cycle; a property is much
    # cheaper than the failed lookup that precedes ``__getattr__``.
    @property
    def now(self):
        return self._sim.now

    @property
    def trace(self):
        return self._sim.trace

    def run(self, *args, **kwargs):
        return self._tracer.call("sim.kernel", self._sim.run, args, kwargs)

    def run_until_quiet(self, *args, **kwargs):
        return self._tracer.call(
            "sim.kernel", self._sim.run_until_quiet, args, kwargs
        )

    def schedule(self, *args, **kwargs):
        return self._tracer.call(
            "sim.kernel", self._sim.schedule, args, kwargs
        )


def _timed_walk(tracer: Tracer, original):
    """``validate_walk`` timed as ``sim.walk``, its kernel as ``sim.kernel``."""

    def validate_walk(
        machine, walk, delays=None, simulator_factory=harness.Simulator,
        into=None, expected=None,
    ):
        sims = []

        def build_kernel(*args, **kwargs):
            sim = tracer.call("sim.kernel", simulator_factory, args, kwargs)
            sims.append(sim)
            return _TimedKernel(sim, tracer)

        before = into.total if into is not None else 0
        summary = tracer.call(
            "sim.walk",
            original,
            (machine, walk, delays, build_kernel, into, expected),
        )
        tracer.count("sim.cycles", summary.total - before)
        for sim in sims:
            tracer.count("sim.kernel.events", sim.events_processed)
            stats = getattr(sim, "kernel_stats", None) or {}
            tracer.count(
                "sim.kernel.replayed_events", stats.get("replayed_events", 0)
            )
        return summary

    return validate_walk


def _timed(tracer: Tracer, layer: str, original, after=None):
    def timed(*args, **kwargs):
        value = tracer.call(layer, original, args, kwargs)
        if after is not None:
            after(tracer, args, value)
        return value

    return timed


def _count_state_vars(tracer, args, _value):
    ctx = args[1]
    tracer.count(
        "assign.state_vars", ctx.get("assignment").encoding.num_variables
    )


def _count_hazard_points(tracer, args, _value):
    tracer.count("hazards.points", len(args[1].get("analysis").fl))


def _count_gates(tracer, _args, machine):
    tracer.count("netlist.gates", len(machine.netlist.gates))


_PASS_COUNTERS = {"assign": _count_state_vars, "hazards": _count_hazard_points}


def _patch_points(tracer: Tracer):
    """(owner, attribute, replacement) for every instrumented entry point."""
    points = []
    for key in DEFAULT_PIPELINE:
        cls = type(create_pass(key))
        points.append((
            cls, "run",
            _timed(tracer, PASS_LAYERS[key], cls.run, _PASS_COUNTERS.get(key)),
        ))
    points += [
        (PassManager, "run_with_report",
         _timed(tracer, "pipeline", PassManager.run_with_report)),
        (fantom, "build_fantom",
         _timed(tracer, "netlist.build", fantom.build_fantom, _count_gates)),
        (Netlist, "compile", _timed(tracer, "netlist.compile", Netlist.compile)),
        (families, "generate",
         _timed(tracer, "corpus.generate", families.generate)),
        (fuzz, "run_fuzz", _timed(tracer, "corpus.fuzz", fuzz.run_fuzz)),
        (ResultStore, "get_synthesis",
         _timed(tracer, "store.get", ResultStore.get_synthesis)),
        (ResultStore, "put_synthesis",
         _timed(tracer, "store.put", ResultStore.put_synthesis)),
    ]
    for method, layer in (
        ("read", "transport.read"),
        ("stat", "transport.read"),
        ("write", "transport.write"),
        ("write_if_absent", "transport.write"),
    ):
        points.append((
            ObjectStoreBackend, method,
            _timed(tracer, layer, getattr(ObjectStoreBackend, method)),
        ))
    # The fuzz loop imported validate_walk by name; patch both bindings.
    walk = _timed_walk(tracer, harness.validate_walk)
    points += [(harness, "validate_walk", walk), (fuzz, "validate_walk", walk)]
    return points


@contextmanager
def instrument(tracer: Tracer | None):
    """Route every layer entry point through ``tracer`` (None: no-op)."""
    if tracer is None:
        yield
        return
    saved = []
    try:
        for owner, name, replacement in _patch_points(tracer):
            saved.append((owner, name, owner.__dict__[name]))
            setattr(owner, name, replacement)
        yield
    finally:
        for owner, name, original in reversed(saved):
            setattr(owner, name, original)
