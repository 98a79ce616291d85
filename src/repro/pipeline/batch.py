"""Batch synthesis: many tables through the pass pipeline at once.

`BatchRunner` synthesises a sequence of flow tables serially, in
process, and yields one :class:`BatchItem` per table **in input
order** — the stream is deterministic, so downstream consumers (the
Table-1 printer, the JSON emitter, regression diffs) see identical
output for identical input.  An attached result store makes tables
synthesised before free.  A failing table never aborts the batch: its
item carries the error message and ``result=None``.

There is no process pool: on the measured hosts it ran slower than the
serial loop (ROADMAP, "One local executor").  Scale-out across
processes or machines is ``seance shard run`` / ``seance work`` over a
shared result store.
"""

from __future__ import annotations

import time
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass

from ..errors import ReproError
from ..flowtable.table import FlowTable
from .manager import PassEvent, PassManager
from .options import SynthesisOptions
from .spec import PipelineSpec


@dataclass
class BatchItem:
    """Outcome of one table in a batch run.

    ``events`` is the per-pass telemetry of the run (name, wall-clock
    seconds) — the :class:`~repro.pipeline.manager.PipelineReport`
    stream, flattened to plain data; ``seance batch --json`` emits it
    verbatim.  ``store_hit`` marks an item served
    whole from a content-addressed :class:`~repro.store.ResultStore`
    (no pass executed at all — ``events`` is empty).
    """

    index: int
    name: str
    result: object | None  # SynthesisResult on success
    error: str | None
    seconds: float
    events: tuple[PassEvent, ...] = ()
    store_hit: bool = False
    #: Domain exception class name of a failure (``"FlowTableError"``),
    #: so a stored failure can re-raise as its original type.
    error_type: str | None = None

    @property
    def ok(self) -> bool:
        return self.error is None

    @classmethod
    def from_stored(cls, index: int, name: str, stored) -> BatchItem:
        """The item of a result served whole from a result store."""
        return cls(
            index=index,
            name=name,
            result=stored.result,
            error=stored.error,
            seconds=0.0,
            store_hit=True,
            error_type=stored.error_type,
        )


def error_message(error: ReproError) -> str:
    """The message a failed item (and a stored failure) records."""
    return str(error.args[0]) if error.args else repr(error)


class BatchRunner:
    """Synthesises many tables with an ordered, deterministic result stream.

    Parameters
    ----------
    options:
        Applied to every table in the batch.  Mutually exclusive with
        ``spec`` (whose options then apply).
    jobs:
        Only ``1`` is accepted: batches run serially in-process.  Any
        other value raises :class:`ValueError` pointing at ``seance
        shard run`` / ``seance work``, the scale-out paths.
    spec:
        A :class:`~repro.pipeline.spec.PipelineSpec` selecting the
        options.  Defaults to the paper options.
    store:
        A content-addressed :class:`~repro.store.ResultStore` (or a
        directory path / backend to open one over).  Tables whose
        ``(table, spec)`` key is already stored are served whole —
        zero synthesis passes, ``item.store_hit`` set — and every
        freshly computed result (including deterministic synthesis
        failures) is written back, so repeat batches short-circuit
        entirely and shard workers publish through the same object.
    """

    def __init__(
        self,
        options: SynthesisOptions | None = None,
        jobs: int = 1,
        spec: PipelineSpec | None = None,
        store=None,
    ):
        if jobs != 1:
            raise ValueError(
                f"batches run serially (jobs=1), got jobs={jobs!r}; to "
                "spread a batch over processes or machines, use `seance "
                "shard run` or `seance work` over a shared store"
            )
        if spec is not None and options is not None:
            raise ValueError(
                "pass either options or a spec (whose options apply), "
                "not both"
            )
        self.spec = spec if spec is not None else PipelineSpec(
            options=options or SynthesisOptions()
        )
        self.options = self.spec.options
        from ..store.store import open_store

        self.store = open_store(store)

    # ------------------------------------------------------------------
    def iter_results(
        self, tables: Sequence[FlowTable]
    ) -> Iterator[BatchItem]:
        """Yield one item per table, in input order."""
        yield from self._iter_pairs(
            [(table, self.options) for table in tables]
        )

    def run(self, tables: Sequence[FlowTable]) -> list[BatchItem]:
        return list(self.iter_results(tables))

    def run_names(self, names: Iterable[str]) -> list[BatchItem]:
        """Synthesise built-in benchmarks by name."""
        from ..bench.suite import benchmark

        return self.run([benchmark(name) for name in names])

    def run_matrix(
        self,
        tables: Sequence[FlowTable],
        options_list: Sequence[SynthesisOptions],
    ) -> list[BatchItem]:
        """Cross tables × option sets in one stream.

        The shape of an ablation sweep: every table synthesised under
        every option set, ordered option-major (all tables under
        ``options_list[0]`` first), through one manager.
        """
        return self.run_pairs([(t, o) for o in options_list for t in tables])

    def run_pairs(
        self, pairs: Sequence[tuple[FlowTable, SynthesisOptions]]
    ) -> list[BatchItem]:
        """Run explicit ``(table, options)`` pairs, in order.

        The unit executor's synthesis leg
        (:func:`~repro.store.sharding.execute_units`): each shard or
        queued unit hands over its own pairs and the shared store does
        the rest.
        """
        return list(self._iter_pairs(pairs))

    # ------------------------------------------------------------------
    def _unit_spec(self, options: SynthesisOptions) -> PipelineSpec:
        """The spec whose fingerprint names one pair's computation."""
        if options == self.spec.options:
            return self.spec
        return self.spec.with_options(options)

    def _iter_pairs(
        self, pairs: Sequence[tuple[FlowTable, SynthesisOptions]]
    ) -> Iterator[BatchItem]:
        # Resolve the whole stream against the store first, so a table
        # repeated within one batch is computed each time, as it is
        # without a store; every computed outcome is written back as it
        # streams out.
        stored = [
            None
            if self.store is None
            else self.store.get_synthesis(table, self._unit_spec(options))
            for table, options in pairs
        ]
        manager = PassManager()
        for index, ((table, options), hit) in enumerate(zip(pairs, stored)):
            if hit is not None:
                yield BatchItem.from_stored(index, table.name, hit)
                continue
            item = self._synthesize(manager, index, table, options)
            if self.store is not None:
                # Domain failures are deterministic outcomes worth
                # remembering, exactly like results.
                if item.ok:
                    self.store.put_synthesis(
                        table, self._unit_spec(options), item.result
                    )
                else:
                    self.store.put_synthesis_error(
                        table,
                        self._unit_spec(options),
                        item.error,
                        error_type=item.error_type,
                    )
            yield item

    @staticmethod
    def _synthesize(
        manager: PassManager,
        index: int,
        table: FlowTable,
        options: SynthesisOptions,
    ) -> BatchItem:
        start = time.perf_counter()
        try:
            result, report = manager.run_with_report(table, options)
        except ReproError as error:
            return BatchItem(
                index=index,
                name=table.name,
                result=None,
                error=error_message(error),
                seconds=time.perf_counter() - start,
                error_type=type(error).__name__,
            )
        return BatchItem(
            index=index,
            name=table.name,
            result=result,
            error=None,
            seconds=time.perf_counter() - start,
            events=tuple(report.events),
        )

