"""The asyncio campaign service: queued jobs over the cached back-end.

:class:`CampaignService` is the serving layer of the platform — an
asyncio front-end that accepts queued jobs (campaign grids, search
budgets), executes them over the existing pool/batch/supervised
back-end, and answers from the shared content-addressed
:class:`~repro.service.cache.RunCache` before paying for any simulation.

Execution model: ``concurrency`` consumer coroutines drain one shared
job queue.  A campaign job is sharded into service-level chunks; each
chunk is one blocking
:func:`~repro.injection.executor.run_simulations` call (the one task
loop: pooled / batched / supervised per the job spec, and cache-aware)
pushed off the event loop with ``loop.run_in_executor``, so the loop
stays responsive and concurrent jobs interleave chunk by chunk.  A search job runs a
:class:`~repro.search.driver.SearchDriver` (sharing the same cache) in
the executor, streaming one progress event per completed generation via
``call_soon_threadsafe``.

Every job streams :class:`~repro.service.jobs.JobEvent` records —
``queued``, ``started``, per-chunk/per-generation ``progress`` (with
partial results accumulating on the :class:`~repro.service.jobs.Job`
handle), then ``completed`` or ``failed`` — and emits each one, as a
``job.*`` event, through the job's telemetry handle, which also carries
the job's dispatches and thus their ``cache.*`` and ``supervisor.*``
events.  Results are bit-identical to direct uncached execution; the
cache only changes what is *paid*.
"""

import asyncio
from typing import TYPE_CHECKING, Any, AsyncIterator, List, Optional, Sequence, Union

from repro.analysis.metrics import RunResult
from repro.injection.campaign import Campaign
from repro.service.cache import RunCache, SimulationTask
from repro.service.jobs import (
    EVENT_COMPLETED,
    EVENT_FAILED,
    EVENT_PROGRESS,
    EVENT_QUEUED,
    EVENT_STARTED,
    CampaignJobSpec,
    Job,
    JobEvent,
    JobStatus,
    SearchJobSpec,
    next_event_seq,
)
from repro.telemetry import Telemetry, TelemetryConfig

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids import cycles
    from repro.obs.journal import EventJournal

JobSpec = Union[CampaignJobSpec, SearchJobSpec]

#: Service-level chunks per campaign job when the spec does not pin
#: ``chunk_runs`` — enough for observable streaming without flooding the
#: event queue.
_DEFAULT_CHUNKS_PER_JOB = 4


class CampaignService:
    """Queued campaign/search execution behind the shared run cache.

    Args:
        cache: The shared :class:`RunCache` consulted before any
            simulation (``None`` runs everything uncached).
        concurrency: Number of jobs processed at once (each still fans
            out internally per its spec).
        telemetry: Optional telemetry handle shared by all jobs
            (``service.*`` counters, plus whatever the back-end records).
        journal: Optional :class:`~repro.obs.journal.EventJournal`.  Each
            job reports through a handle derived from the two (see
            :meth:`_handle`): every :class:`JobEvent` is journaled as a
            ``job.*`` record, chunk dispatches bind ``job_id``/``chunk_id``
            onto the cache's and the supervised back-end's events (search
            jobs bind ``job_id``), and a reader can rebuild every job's
            state after process death via
            :func:`repro.obs.journal.replay_jobs`.

    Usage::

        service = CampaignService(cache=RunCache("/var/cache/repro"))
        await service.start()
        job = await service.submit(CampaignJobSpec(config=grid))
        async for event in service.events(job):
            ...
        results = await service.result(job)
        await service.stop()
    """

    def __init__(
        self,
        cache: Optional[RunCache] = None,
        concurrency: int = 1,
        telemetry: Optional[Telemetry] = None,
        journal: Optional["EventJournal"] = None,
    ):
        if concurrency < 1:
            raise ValueError(f"concurrency must be positive, got {concurrency}")
        self.cache = cache
        self.concurrency = concurrency
        self.telemetry = telemetry
        self.journal = journal
        # What each job counts into when only a journal is set: the
        # service's own registry, with no stage probes.
        self._own = Telemetry(TelemetryConfig(probe_stages=False))
        self._queue: Optional["asyncio.Queue[Optional[Job]]"] = None
        self._consumers: List["asyncio.Task"] = []
        self._jobs: List[Job] = []
        self._done: dict = {}

    # -- lifecycle -----------------------------------------------------------

    async def start(self) -> None:
        """Spawn the consumer coroutines (idempotent)."""
        if self._consumers:
            return
        self._queue = asyncio.Queue()
        for index in range(self.concurrency):
            self._consumers.append(
                asyncio.create_task(self._consume(), name=f"campaign-service-{index}")
            )

    async def stop(self) -> None:
        """Drain the queue, then stop the consumers."""
        if not self._consumers:
            return
        assert self._queue is not None
        for _ in self._consumers:
            await self._queue.put(None)
        await asyncio.gather(*self._consumers)
        self._consumers = []
        self._queue = None

    # -- submission & observation --------------------------------------------

    async def submit(self, spec: JobSpec) -> Job:
        """Queue one job; returns its handle immediately."""
        if self._queue is None:
            raise RuntimeError("service is not started (call start() first)")
        job = Job(len(self._jobs), spec, asyncio.Queue())
        self._jobs.append(job)
        self._done[job.id] = asyncio.get_running_loop().create_future()
        self._emit(job, EVENT_QUEUED)
        await self._queue.put(job)
        return job

    async def events(self, job: Job) -> AsyncIterator[JobEvent]:
        """Stream the job's events until it completes or fails."""
        while True:
            event = await job.events.get()
            yield event
            if event.kind in (EVENT_COMPLETED, EVENT_FAILED):
                return

    async def result(self, job: Job) -> Any:
        """Wait for the job and return its result (raises on failure)."""
        await self._done[job.id]
        if job.status is JobStatus.FAILED:
            raise RuntimeError(f"job {job.id} failed: {job.error}")
        return job.result

    # -- execution -----------------------------------------------------------

    async def _consume(self) -> None:
        assert self._queue is not None
        while True:
            job = await self._queue.get()
            if job is None:
                return
            job.status = JobStatus.RUNNING
            self._emit(job, EVENT_STARTED)
            try:
                if isinstance(job.spec, CampaignJobSpec):
                    result = await self._run_campaign_job(job)
                elif isinstance(job.spec, SearchJobSpec):
                    result = await self._run_search_job(job)
                else:
                    raise TypeError(f"unknown job spec {type(job.spec).__name__}")
            except Exception as error:
                job.status = JobStatus.FAILED
                job.error = str(error)
                self._emit(job, EVENT_FAILED, error=job.error)
            else:
                job.status = JobStatus.COMPLETED
                job.result = result
                self._emit(job, EVENT_COMPLETED)
            finally:
                self._done[job.id].set_result(None)

    async def _run_campaign_job(self, job: Job) -> List[RunResult]:
        spec = job.spec
        assert isinstance(spec, CampaignJobSpec)
        campaign = Campaign(spec.config, strategy_factory=spec.strategy_factory)
        tasks: List[SimulationTask] = campaign.tasks()
        total = len(tasks)
        chunk_runs = spec.chunk_runs
        if chunk_runs is None:
            chunk_runs = max(1, -(-total // _DEFAULT_CHUNKS_PER_JOB))
        loop = asyncio.get_running_loop()
        results: List[RunResult] = []
        for chunk_id, offset in enumerate(range(0, total, chunk_runs)):
            chunk = tasks[offset : offset + chunk_runs]
            chunk_results = await loop.run_in_executor(
                None, self._run_chunk, spec, chunk, job.id, chunk_id
            )
            results.extend(chunk_results)
            job.partial_results.extend(chunk_results)
            self._emit(
                job,
                EVENT_PROGRESS,
                completed=len(results),
                total=total,
                chunk_runs=len(chunk_results),
            )
        return results

    def _run_chunk(
        self,
        spec: CampaignJobSpec,
        chunk: Sequence[SimulationTask],
        job_id: int,
        chunk_id: int,
    ) -> List[RunResult]:
        """One blocking chunk dispatch (executor thread)."""
        from repro.injection.executor import run_simulations

        # Cache and supervised back-end events inherit the job/chunk
        # identity, completing the job_id → chunk_id → fingerprint
        # causal chain.
        return run_simulations(
            chunk,
            workers=spec.workers,
            batch_size=spec.batch_size,
            supervision=spec.supervision,
            telemetry=self._handle(job_id=job_id, chunk_id=chunk_id),
            cache=self.cache,
            recorder=spec.recorder,
        )

    async def _run_search_job(self, job: Job):
        spec = job.spec
        assert isinstance(spec, SearchJobSpec)
        from repro.search.driver import SearchDriver

        loop = asyncio.get_running_loop()

        def on_generation(partial) -> None:
            # Runs in the executor thread; hop to the loop to emit.
            loop.call_soon_threadsafe(
                self._emit,
                job,
                EVENT_PROGRESS,
                {
                    "generations": len(partial.trail),
                    "evaluations": partial.evaluations_used,
                    "simulations": partial.simulations_run,
                },
            )

        driver = SearchDriver(
            spec.space,
            spec.objective,
            spec.optimizer_factory,
            config=spec.config,
            telemetry=self._handle(job_id=job.id),
            run_cache=self.cache,
            on_generation=on_generation,
        )
        return await loop.run_in_executor(None, driver.run)

    # -- internals -----------------------------------------------------------

    def _handle(self, **correlation) -> Optional[Telemetry]:
        """The handle a job reports through: ``telemetry`` (read at call
        time, so a handle assigned between jobs takes effect; the
        service's own without one) with the ``journal`` attached and
        ``correlation`` bound."""
        telemetry, journal = self.telemetry, self.journal
        if journal is not None:
            base = self._own if telemetry is None else telemetry
            telemetry = Telemetry(base.config, base.metrics, base.tracer, journal)
        return None if telemetry is None else telemetry.bind(**correlation)

    def _emit(self, job: Job, kind: str, payload: Optional[dict] = None, **extra) -> None:
        """Stream one :class:`JobEvent` and emit it as ``job.<kind>``."""
        data = dict(payload or {})
        data.update(extra)
        job.events.put_nowait(
            JobEvent(job_id=job.id, kind=kind, seq=next_event_seq(), payload=data)
        )
        telemetry = self._handle(job_id=job.id)
        if telemetry is not None:
            if kind == EVENT_QUEUED:
                data = dict(data, total=job.total_runs)
            telemetry.emit(f"job.{kind}", **data)
