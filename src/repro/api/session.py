"""The fluent synthesis session: one table, one evolving configuration.

A :class:`Session` binds a loaded flow table to a
:class:`~repro.pipeline.spec.PipelineSpec` and a live
:class:`~repro.pipeline.cache.StageCache`.  Sessions are immutable: the
``with_*`` builders derive new sessions, and every session in one
derivation chain *shares the same cache object*, so an ablation sweep —

    base = api.load("lion")
    paper = base.run()
    joint = base.with_pass("factor:joint").run()

— re-executes only the substituted stage (the upstream stage-cache
entries carry over; see :mod:`repro.pipeline.registry`).
"""

from __future__ import annotations

from ..core.result import SynthesisResult
from ..errors import ReproError
from ..flowtable.table import FlowTable
from ..pipeline.batch import error_message
from ..pipeline.cache import StageCache
from ..pipeline.manager import PipelineReport
from ..pipeline.options import SynthesisOptions
from ..pipeline.spec import PipelineSpec, reject_cache_path
from .loaders import load_table


class Session:
    """An immutable (table, spec, cache, store) tuple with fluent builders."""

    def __init__(
        self,
        table: FlowTable,
        spec: PipelineSpec | None = None,
        cache: StageCache | None | type(...) = ...,
        store=None,
    ):
        from ..store.store import open_store

        self._table = table
        self._spec = spec if spec is not None else PipelineSpec()
        # ``...`` means "build what the spec configures"; an explicit
        # cache (or None) overrides the spec's cache config.
        self._cache = self._spec.cache.build() if cache is ... else cache
        self._store = open_store(store)

    # ------------------------------------------------------------------
    @property
    def table(self) -> FlowTable:
        return self._table

    @property
    def spec(self) -> PipelineSpec:
        return self._spec

    @property
    def cache(self) -> StageCache | None:
        return self._cache

    @property
    def store(self):
        """The attached :class:`~repro.store.ResultStore`, or None."""
        return self._store

    # ------------------------------------------------------------------
    # Builders (each returns a new Session sharing this one's cache)
    # ------------------------------------------------------------------
    def _derive(self, spec: PipelineSpec) -> "Session":
        return Session(
            self._table, spec, cache=self._cache, store=self._store
        )

    def with_table(self, source, name: str | None = None) -> "Session":
        """Same configuration, different machine."""
        return Session(
            load_table(source, name),
            self._spec,
            cache=self._cache,
            store=self._store,
        )

    def with_spec(self, spec: PipelineSpec) -> "Session":
        """Replace the whole spec.

        A changed cache *config* re-materialises the cache; otherwise
        the current cache object is kept warm.
        """
        if spec.cache != self._spec.cache:
            return Session(self._table, spec, store=self._store)
        return self._derive(spec)

    def with_options(
        self, options: SynthesisOptions | None = None, **overrides
    ) -> "Session":
        """Replace the options or update individual fields."""
        return self._derive(self._spec.with_options(options, **overrides))

    def with_passes(self, *passes: str) -> "Session":
        """Run exactly this pass list (registry keys, in order)."""
        return self._derive(self._spec.with_passes(*passes))

    def with_pass(self, *overrides: str) -> "Session":
        """Substitute stages by base name (``"factor:joint"`` → factor)."""
        return self._derive(self._spec.substitute(*overrides))

    def with_cache(self, cache: StageCache | None) -> "Session":
        """Attach an existing :class:`StageCache`, or None to disable
        caching."""
        reject_cache_path(cache)
        return Session(
            self._table, self._spec, cache=cache, store=self._store
        )

    def with_store(self, store) -> "Session":
        """Attach a content-addressed result store: an existing
        :class:`~repro.store.ResultStore`, a directory path, a
        :class:`~repro.store.StoreBackend`, or None to detach."""
        return Session(
            self._table, self._spec, cache=self._cache, store=store
        )

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(self) -> SynthesisResult:
        """Synthesise the table under the session's configuration."""
        result, _ = self.run_with_report()
        return result

    def run_with_report(self) -> tuple[SynthesisResult, PipelineReport]:
        """Like :meth:`run`, plus the per-pass :class:`PipelineReport`.

        With a store attached, a warm ``(table, spec)`` key
        short-circuits the whole pipeline: the stored result is
        returned under a report with ``store_hit=True`` and **no pass
        events** — zero synthesis passes executed.  A deterministic
        failure is stored like a result (as a batch stores it), and a
        stored failure re-raises as the original domain error.
        """
        if self._store is not None:
            stored = self._store.get_synthesis(self._table, self._spec)
            if stored is not None:
                if not stored.ok:
                    stored.raise_error()
                return stored.result, PipelineReport(
                    table_name=self._table.name, store_hit=True
                )
        manager = self._spec.build_manager(cache=self._cache)
        try:
            result, report = manager.run_with_report(
                self._table, self._spec.options
            )
        except ReproError as error:
            if self._store is not None:
                self._store.put_synthesis_error(
                    self._table,
                    self._spec,
                    error_message(error),
                    error_type=type(error).__name__,
                )
            raise
        if self._store is not None:
            self._store.put_synthesis(self._table, self._spec, result)
        return result, report

    def validate(
        self,
        sweep: int = 3,
        steps: int = 30,
        delay_models: tuple[str, ...] = ("loop-safe",),
        seed: int = 0,
        use_fsv: bool = True,
        jobs: int = 1,
        engine: str | None = None,
    ):
        """Synthesise, build the FANTOM machine, run a validation campaign.

        The session's spec and warm cache drive the synthesis, then a
        :class:`~repro.sim.campaign.ValidationCampaign` sweeps ``sweep``
        seeded random walks under each named delay model (see
        :data:`~repro.sim.campaign.DELAY_MODELS`).  ``engine`` selects
        the kernel (``"ring"``, the event kernel with cycle replay;
        ``"compiled"``, the same kernel with replay off; or
        ``"reference"``; the default follows
        :func:`~repro.sim.campaign.default_engine`).
        Returns the
        deterministic :class:`~repro.sim.campaign.CampaignResult`::

            report = api.load("hazard_demo").validate(
                sweep=50, delay_models=("loop-safe", "corner"))
            assert report.all_clean
        """
        from ..netlist.fantom import build_fantom
        from ..sim.campaign import ValidationCampaign

        machine = build_fantom(self.run(), use_fsv=use_fsv)
        campaign = ValidationCampaign(
            sweep=sweep,
            steps=steps,
            delay_models=delay_models,
            base_seed=seed,
            use_fsv=use_fsv,
            jobs=jobs,
            spec=self._spec,
            engine=engine,
            store=self._store,
        )
        return campaign.run_machines([machine])

    def __repr__(self) -> str:
        return (
            f"Session({self._table.name!r}, passes={list(self._spec.passes)}, "
            f"cache={'on' if self._cache is not None else 'off'}, "
            f"store={'on' if self._store is not None else 'off'})"
        )


# ----------------------------------------------------------------------
# Module-level one-shots
# ----------------------------------------------------------------------
def load(source, name: str | None = None,
         spec: PipelineSpec | None = None, store=None) -> Session:
    """Open a session on any table source (see
    :func:`repro.api.loaders.load_table` for the accepted forms)."""
    return Session(load_table(source, name), spec, store=store)


def synthesize(
    source,
    options: SynthesisOptions | None = None,
    *,
    spec: PipelineSpec | None = None,
    cache: StageCache | None = None,
    store=None,
) -> SynthesisResult:
    """One-shot synthesis of any table source.

    ``options`` overrides the spec's options (the common case:
    ``api.synthesize(table, SynthesisOptions(minimize=False))``).

    A one-shot run has nothing to reuse, so no stage cache is built
    unless the caller passes one (or configures one in ``spec``).
    """
    if cache is None and spec is not None:
        cache = spec.cache.build()
    session = Session(
        load_table(source),
        spec if spec is not None else PipelineSpec(),
        cache=cache,
        store=store,
    )
    if options is not None:
        session = session.with_options(options)
    return session.run()


def batch(
    sources,
    *,
    spec: PipelineSpec | None = None,
    options: SynthesisOptions | None = None,
    cache: StageCache | None = None,
    store=None,
):
    """Synthesise many sources with an ordered, deterministic stream.

    Returns a list of :class:`~repro.pipeline.batch.BatchItem`; each
    item carries the result (or the error), wall-clock seconds, and the
    per-pass :class:`~repro.pipeline.manager.PassEvent` telemetry.
    The batch runs serially in-process; to spread one over processes
    or machines, plan it with ``seance shard run`` or ``seance work``.
    As in :func:`synthesize`, ``options`` given alongside a ``spec``
    override the spec's options.
    """
    from ..pipeline.batch import BatchRunner

    if spec is not None and options is not None:
        spec = spec.with_options(options)
        options = None
    tables = [load_table(source) for source in sources]
    runner = BatchRunner(
        options=options, cache=cache, spec=spec, store=store
    )
    return runner.run(tables)
