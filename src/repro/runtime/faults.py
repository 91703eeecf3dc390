"""Deterministic fault injection for recovery tests and benchmarks.

Three failure modes drive the recovery subsystem end to end:

* :func:`kill_shard` / :func:`kill_fallback` — crash one shard (or the
  fallback engine) of a :class:`~repro.stream.sharded.ShardedStreamEngine`
  pool (window and join state lost); failover restores it from the
  attached :class:`~repro.stream.checkpoint.CheckpointCoordinator`.
  Over worker processes (:class:`~repro.stream.procshard.
  ProcessShardEngine`) the same call SIGKILLs the shard's process, and
  :func:`hang_worker` SIGSTOPs it instead: alive, but never answering
  again.
* :func:`kill_mote` — deplete a mote's battery mid-run; the sensor
  engine reports the death and the federated backend re-partitions
  around the corpse.
* :class:`DropDeploymentAcks` — make the next N sensor deployments
  raise (a lost deployment acknowledgement), exercising the federated
  backend's retry/backoff paths.

Injection points are chosen by the *caller* from a seeded RNG
(:func:`seeded_point` mirrors the identity corpora's seeding
convention), so one seed reproduces one failure schedule exactly.
"""

from __future__ import annotations

import random
import signal

from repro.errors import SensorNetworkError


def kill_shard(pool, index: int):
    """Crash shard ``index`` of a sharded engine pool.

    Returns the corpse (the dead engine, or the dead worker process).
    Recovery happens lazily: the next ingest routed to the shard (or
    the next pool ``punctuate``) restores a fresh one from the latest
    checkpoint and the replay-log suffix.
    """
    return pool.fail_shard(index)


def hang_worker(pool, index: int):
    """SIGSTOP worker process ``index`` of a process-shard pool: it
    stays alive but stops answering. The pool's ack wait gives up at
    its deadline, kills the process and takes the ordinary failover
    path. Returns the (stopped) process."""
    return pool.fail_shard(index, signal.SIGSTOP)


def kill_fallback(pool):
    """Crash the pool's designated fallback engine."""
    engine = pool.fallback_engine
    pool.fail_fallback()
    return engine


def kill_mote(network, mote_id: int):
    """Deplete a mote's battery so it dies mid-run.

    The drain is recorded under the ``"fault"`` spend category, so
    energy accounting stays exact (capacity == spent + remaining).
    Returns the (now dead) mote.
    """
    mote = network.mote(mote_id)
    battery = mote.battery
    drained = max(battery.remaining_mj, 0.0)
    battery.remaining_mj = 0.0
    battery.spent_by_category["fault"] = (
        battery.spent_by_category.get("fault", 0.0) + drained
    )
    return mote


class DropDeploymentAcks:
    """Make the next ``drops`` sensor deployments fail.

    Wraps a :class:`~repro.sensor.engine.SensorEngine`'s ``deploy_*``
    entry points; each of the first ``drops`` calls raises
    :class:`SensorNetworkError` as if the deployment acknowledgement
    never came back. Use as a context manager::

        with DropDeploymentAcks(sensor_engine, drops=2):
            cursor = session.query(sql)  # succeeds on the third attempt

    ``dropped`` counts the injected failures.
    """

    _METHODS = ("deploy_collection", "deploy_aggregation", "deploy_join")

    def __init__(self, engine, drops: int):
        self.engine = engine
        self.remaining = drops
        self.dropped = 0
        self._originals: dict[str, object] = {}

    def install(self) -> "DropDeploymentAcks":
        for name in self._METHODS:
            original = getattr(self.engine, name)
            self._originals[name] = original

            def failing(*args, __original=original, **kwargs):
                if self.remaining > 0:
                    self.remaining -= 1
                    self.dropped += 1
                    raise SensorNetworkError(
                        "deployment ack dropped (fault injection)"
                    )
                return __original(*args, **kwargs)

            setattr(self.engine, name, failing)
        return self

    def restore(self) -> None:
        for name, original in self._originals.items():
            setattr(self.engine, name, original)
        self._originals.clear()

    def __enter__(self) -> "DropDeploymentAcks":
        return self.install()

    def __exit__(self, *exc_info) -> None:
        self.restore()


def seeded_point(seed: int, count: int, *, salt: int = 0) -> int:
    """A reproducible injection point in ``[0, count)`` for ``seed``.

    Uses the same ``seed * 31 + 7`` convention as the identity corpora
    (plus ``salt`` to draw independent points from one seed), so fault
    schedules are stable across runs and machines.
    """
    if count <= 0:
        raise ValueError("count must be positive")
    return random.Random(seed * 31 + 7 + salt * 104729).randrange(count)
