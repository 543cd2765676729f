"""The asyncio TCP server driving Dubhe rounds over real sockets.

:class:`SocketTransport` implements the :class:`~repro.transport.base.Transport`
contract over localhost (or LAN) TCP.  It owns a private asyncio event loop
on a daemon thread, so the synchronous simulation loop stays unchanged —
``run_round`` bridges into the loop with ``run_coroutine_threadsafe`` and
blocks until the round's deltas are in (or timed out).

Per-connection handling
-----------------------
Each accepted connection gets a reader task (frame parsing via
``readexactly`` on the header, then exactly the announced payload) and a
writer task draining a **bounded** send queue — a slow client applies
backpressure to its own queue without stalling the other clients or
unbounding server memory.  A frame that fails the structured wire checks
(:class:`~repro.transport.wire.CorruptFrameError` and friends) earns the
peer an :class:`~repro.transport.messages.ErrorNotice` and a disconnect —
counted per client in :attr:`SocketTransport.decode_failures` and
:attr:`SocketTransport.disconnects`, surfaced per round on the
:class:`~repro.federated.history.RoundRecord`, so a silently-dropped peer
always leaves a trace in the run record.

Liveness and session resumption
-------------------------------
Every connection runs a **health state machine** (``healthy`` → ``degraded``
→ ``dead``): the server probes each client with a
:class:`~repro.transport.messages.Heartbeat` every ``heartbeat_interval``
seconds, and any inbound traffic (a :class:`~repro.transport.messages.
HeartbeatAck` or a protocol message) proves liveness.  A connection silent
for :data:`HEARTBEAT_LIMIT` intervals is declared dead and torn down — a
half-open TCP connection is detected well before the round deadline
instead of stalling the round until ``round_timeout``.

Registration issues a **session token** (echoed in the
:class:`~repro.transport.messages.RegisterAck`).  A client that loses its
connection mid-round may reconnect, present the token, and resume: it keeps
its cohort position, any in-flight
:class:`~repro.transport.messages.SelectionNotice` is replayed, and its
:class:`~repro.transport.messages.ModelDelta` answers the round's one
``(round, client)`` reply, so a retransmit is aggregated exactly once.  The
reply window of a disconnected client therefore stays open until the round
deadline — only a heartbeat-confirmed death fails it early.

Round protocol
--------------
``run_round`` waits until every cohort client is registered (one wait on
the roster, woken by each registration and bounded only by
``connect_timeout``), leaves out the cohort positions the scenario's fault
plan failed — they are never dispatched to, so scenario outcomes are
byte-identical across back-ends — then sends each remaining client a :class:`~repro.transport.messages.SelectionNotice` and awaits
their :class:`~repro.transport.messages.ModelDelta` replies under
``round_timeout``.  A client that misses the deadline while still connected
is recorded as a ``"straggler"``; one that is gone (and never reconnected in
time) as ``"offline"`` (both members of
:data:`repro.scenarios.engine.FAILURE_CAUSES`), and the partial survivor
set flows into :meth:`repro.federated.server.FederatedServer.aggregate`'s
``expected_count`` / ``min_participation`` skip policy exactly like an
injected fault would (the floor is the scenario's; without one any
non-empty survivor set is aggregated).

When the transport is built with a
:class:`~repro.scenarios.spec.NetworkSpec`, a
:class:`~repro.transport.chaos.ChaosProxy` is interposed: :attr:`address`
is the proxy's address, and every client byte crosses the fault-inducing
relay while the server itself stays oblivious.
"""

from __future__ import annotations

import asyncio
import concurrent.futures
import threading
from typing import Callable, Collection, Dict, Optional, Sequence, Tuple

import numpy as np

from ..core.config import TransportConfig
from ..federated.client import FederatedClient, LocalTrainingConfig
from ..nn.module import Module
from .base import Transport
from .messages import (
    ErrorNotice,
    Heartbeat,
    HeartbeatAck,
    ModelDelta,
    ProbabilityBroadcast,
    Register,
    RegisterAck,
    RoundResult,
    SelectionNotice,
    Shutdown,
    decode_message,
    encode_message,
)
from .wire import WireError, read_frame

__all__ = ["SocketTransport", "TransportClosedError", "TransportError"]

StateDict = dict[str, np.ndarray]

#: key for decode failures on connections that never registered
_UNKNOWN_CLIENT = -1

#: frames each connection's outbound queue holds before a sender blocks
#: (backpressure: a slow client never grows server memory without limit)
SEND_QUEUE = 32

#: silent heartbeat intervals after which a connection is declared dead
HEARTBEAT_LIMIT = 3


class TransportError(RuntimeError):
    """A round could not be driven over the socket transport."""


class TransportClosedError(TransportError):
    """The transport was closed while a round was still pending."""


class _ClientSession:
    """Server-side state of one connected client (private)."""

    def __init__(self, writer: asyncio.StreamWriter, now: float):
        self.writer = writer
        self.queue: "asyncio.Queue[Optional[bytes]]" = asyncio.Queue(
            maxsize=SEND_QUEUE)
        self.client_id: Optional[int] = None
        self.position: Optional[int] = None
        self.token = ""
        #: liveness state machine: "healthy" -> "degraded" -> "dead"
        self.health = "healthy"
        #: loop time of the last inbound frame (any traffic proves liveness)
        self.last_seen = now
        self.heartbeat_seq = 0
        self.closed = False

    async def send(self, message) -> None:
        """Enqueue a message (blocks when the bounded queue is full)."""
        if not self.closed:
            await self.queue.put(encode_message(message))

    def try_send(self, message) -> bool:
        """Enqueue without blocking; ``False`` when the queue is full."""
        if self.closed:
            return False
        try:
            self.queue.put_nowait(encode_message(message))
        except asyncio.QueueFull:
            return False
        return True

    async def drain(self) -> None:
        """Writer task body: flush queued frames to the socket in order."""
        try:
            while True:
                frame = await self.queue.get()
                if frame is None:
                    break
                self.writer.write(frame)
                await self.writer.drain()
        except (ConnectionError, asyncio.CancelledError):
            pass

    def close(self) -> None:
        """Tear down the connection (safe to call twice)."""
        if self.closed:
            return
        self.closed = True
        try:
            self.writer.close()
        except Exception:
            pass


class SocketTransport(Transport):
    """Drive Dubhe rounds over TCP against :class:`~repro.transport.client.
    TransportClient` peers.

    The server starts lazily (first ``run_round`` or an explicit
    :meth:`start`) and binds ``config.host:config.port`` — port ``0`` picks
    a free port, readable from :attr:`address`.  Fault-free rounds under
    float64 are bit-identical to the in-process executor in every mode: the
    remote peers run the very same
    :meth:`~repro.federated.client.FederatedClient.local_train` (a
    one-client cohort of the batched engine) from the very same broadcast
    state.

    Of the :class:`~repro.core.config.TransportConfig` it reads the bind
    address, ``round_timeout``, ``connect_timeout`` (the one bound on the
    registration wait) and ``heartbeat_interval``; the send queue
    (:data:`SEND_QUEUE`) and the heartbeat limit (:data:`HEARTBEAT_LIMIT`)
    are module constants, and the frame cap is
    :data:`repro.transport.wire.DEFAULT_MAX_FRAME_BYTES`.

    With a *network* spec the transport interposes a
    :class:`~repro.transport.chaos.ChaosProxy` seeded with *chaos_seed*
    (conventionally the scenario seed): :attr:`address` becomes the proxy's
    address and real wire faults surface through the same failure records
    as injected ones.

    Example
    -------
    >>> from repro.core.config import TransportConfig
    >>> transport = SocketTransport(TransportConfig(kind="socket", port=0))
    >>> host, port = transport.start()
    >>> port > 0
    True
    >>> transport.close()
    """

    def __init__(self, config: Optional[TransportConfig] = None,
                 network=None, chaos_seed: int = 0):
        super().__init__()
        self.config = config or TransportConfig(kind="socket")
        #: optional :class:`~repro.scenarios.spec.NetworkSpec` driving a
        #: chaos proxy in front of the server
        self.network = network
        self.chaos_seed = int(chaos_seed)
        #: the interposed :class:`~repro.transport.chaos.ChaosProxy`
        #: (``None`` without a network spec or before :meth:`start`)
        self.proxy = None
        #: public ``(host, port)`` clients should dial (the proxy's address
        #: when a network spec is set; after :meth:`start`)
        self.address: Optional[Tuple[str, int]] = None
        #: the server socket's own bind address (behind the proxy)
        self.bind_address: Optional[Tuple[str, int]] = None
        #: cumulative malformed-frame counts per client id (-1 = a
        #: connection that never registered)
        self.decode_failures: "Dict[int, int]" = {}
        #: cumulative latest disconnect cause per client id
        self.disconnects: "Dict[int, str]" = {}
        #: total ModelDelta frames ignored because their round's reply was
        #: already answered or closed — each would have double-aggregated
        self.duplicate_deltas = 0
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None
        self._server: Optional[asyncio.base_events.Server] = None
        self._sessions: "Dict[int, _ClientSession]" = {}
        self._pending: "Dict[Tuple[int, int], asyncio.Future]" = {}
        self._round_notices: "Dict[Tuple[int, int], SelectionNotice]" = {}
        self._tokens: "Dict[int, str]" = {}
        self._positions: "Dict[int, int]" = {}
        self._next_token = 0
        self._round_decode: "Dict[int, int]" = {}
        self._round_disconnects: "Dict[int, str]" = {}
        self._round_task: Optional["asyncio.Task"] = None
        self._heartbeat_task: Optional["asyncio.Future"] = None
        self._roster_changed: Optional[asyncio.Event] = None
        self._closing = False

    # -- lifecycle --------------------------------------------------------------

    def start(self) -> Tuple[str, int]:
        """Bind the listening socket and return the public ``(host, port)``.

        Idempotent: a started transport returns its existing address.  The
        event loop runs on a daemon thread, so the caller's thread (the
        simulation loop) never blocks on socket readiness.  With a network
        spec the chaos proxy is started in front of the server and its
        address returned instead.

        Example
        -------
        >>> from repro.core.config import TransportConfig
        >>> transport = SocketTransport(TransportConfig(kind="socket"))
        >>> transport.start() == transport.address
        True
        >>> transport.close()
        """
        if self._loop is not None:
            assert self.address is not None
            return self.address
        self._closing = False
        loop = asyncio.new_event_loop()
        thread = threading.Thread(target=loop.run_forever,
                                  name="repro-transport-server", daemon=True)
        thread.start()
        self._loop = loop
        self._thread = thread
        future = asyncio.run_coroutine_threadsafe(self._start_async(), loop)
        self.bind_address = future.result(timeout=self.config.connect_timeout)
        if self.network is not None:
            from .chaos import ChaosProxy  # local: optional dependency edge

            self.proxy = ChaosProxy(
                self.bind_address, spec=self.network, seed=self.chaos_seed,
                host=self.config.host)
            self.address = self.proxy.start()
        else:
            self.address = self.bind_address
        return self.address

    async def _start_async(self) -> Tuple[str, int]:
        self._roster_changed = asyncio.Event()
        self._server = await asyncio.start_server(
            self._handle_connection, host=self.config.host,
            port=self.config.port)
        if self.config.heartbeat_interval > 0:
            self._heartbeat_task = asyncio.ensure_future(self._heartbeat_loop())
        sockname = self._server.sockets[0].getsockname()
        return sockname[0], sockname[1]

    def close(self) -> None:
        """Stop the server, notifying clients and failing any pending round.

        Idempotent and safe to call from any thread at any time — including
        while a round is mid-flight: pending reply futures are cancelled
        (the blocked ``run_round`` raises :class:`TransportClosedError`
        instead of hanging), every client gets a best-effort
        :class:`~repro.transport.messages.Shutdown`, and the loop thread is
        joined.  The chaos proxy (when present) is closed *after* the
        server, so shutdown frames are still relayed to the fleet.

        Example
        -------
        >>> from repro.core.config import TransportConfig
        >>> transport = SocketTransport(TransportConfig(kind="socket"))
        >>> transport.close()  # never started: a no-op
        >>> transport.close()
        """
        loop, thread = self._loop, self._thread
        # latch even when never started: a closed transport stays closed
        # until someone explicitly start()s it again
        self._closing = True
        if loop is None:
            return
        try:
            future = asyncio.run_coroutine_threadsafe(self._shutdown_async(), loop)
            future.result(timeout=self.config.connect_timeout)
        except Exception:
            pass  # a wedged loop still gets stopped below
        loop.call_soon_threadsafe(loop.stop)
        if thread is not None:
            thread.join(timeout=self.config.connect_timeout)
        if not loop.is_running() and not loop.is_closed():
            loop.close()
        if self.proxy is not None:
            self.proxy.close()
            self.proxy = None
        self._loop = None
        self._thread = None
        self._server = None
        self._sessions = {}
        self._pending = {}
        self._round_notices = {}
        self.address = None
        self.bind_address = None

    async def _shutdown_async(self) -> None:
        # a round blocked in its registration wait holds no pending futures
        # yet: cancel it eagerly (the bridging future surfaces the cancel as
        # TransportClosedError) rather than letting it ride out the reader
        # grace window below and time out on its own
        round_task = self._round_task
        self._round_task = None
        if round_task is not None and not round_task.done():
            round_task.cancel()
            await asyncio.gather(round_task, return_exceptions=True)
        for future in list(self._pending.values()):
            if not future.done():
                future.cancel()
        self._pending.clear()
        notice = Shutdown("server closing")
        for session in list(self._sessions.values()):
            try:
                # bypass the bounded queue: shutdown must not block on a
                # slow client's backlog
                session.writer.write(encode_message(notice))
                await asyncio.wait_for(session.writer.drain(), timeout=1.0)
            except Exception:
                pass
            session.close()
        self._sessions.clear()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        # the liveness probe is parked in asyncio.sleep(interval) and would
        # only notice _closing when it wakes: cancel it, or the grace window
        # below always runs to its timeout
        heartbeat_task = self._heartbeat_task
        self._heartbeat_task = None
        if heartbeat_task is not None:
            heartbeat_task.cancel()
            await asyncio.gather(heartbeat_task, return_exceptions=True)
        # reap the per-connection reader/writer tasks before the loop stops,
        # so none are destroyed while pending.
        # The session writers just closed, so readers exit on their own
        # within the grace window; cancelling a reader still parked in
        # readexactly would make the streams-internal done-callback re-raise
        # CancelledError into the loop's exception handler (noisy on 3.11)
        current = asyncio.current_task()
        leftovers = [task for task in asyncio.all_tasks()
                     if task is not current]
        if leftovers:
            _, pending = await asyncio.wait(leftovers, timeout=1.0)
            for task in pending:
                task.cancel()
            if pending:
                await asyncio.gather(*pending, return_exceptions=True)

    # -- liveness ---------------------------------------------------------------

    async def _heartbeat_loop(self) -> None:
        """Probe every connection; tear down the ones that went silent.

        A session that fails to show *any* inbound traffic for
        :data:`HEARTBEAT_LIMIT` heartbeat intervals transitions to
        ``"dead"``: its pending reply future fails immediately (the round
        does not wait out ``round_timeout`` for a half-open socket), its
        disconnect is recorded with cause ``"heartbeat"``, and the
        connection is closed.  One silent interval marks it ``"degraded"``.
        """
        assert self._loop is not None
        interval = self.config.heartbeat_interval
        dead_after = interval * HEARTBEAT_LIMIT
        try:
            while not self._closing:
                await asyncio.sleep(interval)
                now = self._loop.time()
                for client_id, session in list(self._sessions.items()):
                    silent = now - session.last_seen
                    if silent >= dead_after:
                        session.health = "dead"
                        self._record_disconnect(client_id, "heartbeat")
                        self._fail_pending_for(
                            client_id, "declared dead by heartbeat")
                        if self._sessions.get(client_id) is session:
                            del self._sessions[client_id]
                        session.close()
                        continue
                    session.health = ("degraded" if silent >= interval
                                      else session.health)
                    session.heartbeat_seq += 1
                    # best-effort: a full queue is backpressure, not death —
                    # the peer's next protocol message proves it alive
                    session.try_send(Heartbeat(session.heartbeat_seq))
        except asyncio.CancelledError:
            pass

    def client_health(self, client_id: int) -> Optional[str]:
        """The health state of *client_id*'s connection (``None`` if absent).

        Example
        -------
        >>> from repro.core.config import TransportConfig
        >>> transport = SocketTransport(TransportConfig(kind="socket"))
        >>> transport.client_health(0) is None
        True
        """
        session = self._sessions.get(client_id)
        return None if session is None else session.health

    # -- connection handling ----------------------------------------------------

    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        assert self._loop is not None
        session = _ClientSession(writer, now=self._loop.time())
        drain_task = asyncio.ensure_future(session.drain())
        cause = "connection_lost"
        try:
            while True:
                # no local holds the raw frame: across the awaits below it
                # would pin one extra copy of a model state per connection
                message, _ = decode_message((await read_frame(reader))[2])
                session.last_seen = self._loop.time()
                session.health = "healthy"
                await self._dispatch(session, message)
        except (asyncio.IncompleteReadError, ConnectionError):
            pass  # client went away
        except WireError as exc:
            cause = "corrupt_frame"
            key = (session.client_id if session.client_id is not None
                   else _UNKNOWN_CLIENT)
            self.decode_failures[key] = self.decode_failures.get(key, 0) + 1
            self._round_decode[key] = self._round_decode.get(key, 0) + 1
            try:
                writer.write(encode_message(ErrorNotice(str(exc))))
                await asyncio.wait_for(writer.drain(), timeout=1.0)
            except Exception:
                pass
        except asyncio.CancelledError:
            raise
        finally:
            drain_task.cancel()
            session.close()
            if session.client_id is not None:
                if self._sessions.get(session.client_id) is session:
                    del self._sessions[session.client_id]
                    self._record_disconnect(session.client_id, cause)
                # a session no longer registered was already torn down with
                # its own cause (heartbeat death, or replaced by a reconnect)
                # NOTE: pending reply futures are deliberately NOT failed
                # here — the reconnect window stays open until the round
                # deadline (only the heartbeat declares a client dead early)

    def _record_disconnect(self, client_id: int, cause: str) -> None:
        """Remember why a client's connection ended (first cause per round)."""
        self.disconnects[client_id] = cause
        self._round_disconnects.setdefault(client_id, cause)

    def _fail_pending_for(self, client_id: int, why: str) -> None:
        """Fail a client's outstanding reply futures (heartbeat death)."""
        for (round_index, cid), future in list(self._pending.items()):
            if cid == client_id and not future.done():
                future.set_exception(
                    TransportError(f"client {client_id}: {why}")
                )

    async def _dispatch(self, session: _ClientSession, message) -> None:
        if isinstance(message, Register):
            stale = self._sessions.get(message.client_id)
            if stale is not None and stale is not session:
                stale.close()  # reconnect replaces the old connection
            resumed = bool(message.token) and (
                self._tokens.get(message.client_id) == message.token)
            if resumed:
                token = message.token
            else:
                self._next_token += 1
                token = f"s{self._next_token}"
                self._tokens[message.client_id] = token
            position = self._positions.get(message.client_id)
            if position is None:
                position = len(self._positions)
                self._positions[message.client_id] = position
            session.client_id = message.client_id
            session.token = token
            session.position = position
            self._sessions[message.client_id] = session
            assert self._roster_changed is not None
            self._roster_changed.set()
            await session.send(RegisterAck(message.client_id, position,
                                           len(self._sessions), token=token,
                                           resumed=resumed))
            # replay any in-flight selection this client has not answered:
            # a reconnecting peer (resumed or freshly re-registered) rejoins
            # the round instead of missing its own deadline
            for (round_index, cid), future in list(self._pending.items()):
                if cid == message.client_id and not future.done():
                    notice = self._round_notices.get((round_index, cid))
                    if notice is not None:
                        await session.send(notice)
        elif isinstance(message, ModelDelta):
            future = self._pending.get((message.round_index, message.client_id))
            if future is not None and not future.done():
                future.set_result(message.state)
            else:
                # an answered (or closed) round: a retransmit, under any
                # token, must not double-aggregate
                self.duplicate_deltas += 1
        elif isinstance(message, HeartbeatAck):
            session.health = "healthy"  # last_seen already updated
        elif isinstance(message, ErrorNotice):
            self.last_fallback_reason = f"client error: {message.detail}"
        # anything else is a server→client echo: dropped on arrival

    # -- protocol broadcasts ----------------------------------------------------

    def broadcast_probabilities(self, round_index: int,
                                probabilities: Sequence[float]) -> None:
        """Send every registered client this round's ``q_k`` probabilities.

        Example
        -------
        >>> from repro.core.config import TransportConfig
        >>> transport = SocketTransport(TransportConfig(kind="socket"))
        >>> transport.start() is not None
        True
        >>> transport.broadcast_probabilities(0, [0.5, 0.5])  # no clients: no-op
        >>> transport.close()
        """
        message = ProbabilityBroadcast(round_index,
                                       tuple(float(p) for p in probabilities))
        self._broadcast(message)

    def on_round_complete(self, record) -> None:
        """Broadcast the closed round's outcome as a ``RoundResult``.

        Example
        -------
        >>> from repro.core.config import TransportConfig
        >>> transport = SocketTransport(TransportConfig(kind="socket"))
        >>> transport.start() is not None
        True
        >>> transport.close()
        """
        message = RoundResult(
            round_index=record.round_index,
            skipped=bool(record.aggregation_skipped),
            accuracy=record.test_accuracy,
            failures=dict(record.failures),
        )
        self._broadcast(message)

    def _broadcast(self, message) -> None:
        if self._loop is None or self._closing:
            return

        async def _send_all() -> None:
            for session in list(self._sessions.values()):
                await session.send(message)

        try:
            asyncio.run_coroutine_threadsafe(_send_all(), self._loop).result(
                timeout=self.config.connect_timeout)
        except (concurrent.futures.TimeoutError, TimeoutError):
            # broadcasts are advisory; a saturated client queue (backpressure)
            # must not fail the round
            self.last_fallback_reason = "broadcast timed out on a full queue"

    # -- the round --------------------------------------------------------------

    def run_round(self, clients: Sequence[FederatedClient],
                  model_factory: Callable[[], Module],
                  global_state: StateDict,
                  config: LocalTrainingConfig,
                  round_index: int = 0,
                  failed: Collection[int] = ()) -> "list[StateDict]":
        """Dispatch the cohort's selection notices and collect their deltas.

        Mirrors :meth:`repro.federated.executor.LocalUpdateExecutor.run_round`:
        returns the survivors' states in cohort order.  The *failed*
        positions of the round's fault plan are never dispatched.  Failures
        the server observes itself — a deadline miss ``"straggler"``, a
        vanished client ``"offline"`` — land in :attr:`last_round_failures`,
        with the round's malformed-frame counts and disconnect causes
        snapshotted into :attr:`last_round_decode_failures` /
        :attr:`last_round_disconnects`.

        Example
        -------
        >>> from repro.core.config import TransportConfig
        >>> transport = SocketTransport(TransportConfig(kind="socket"))
        >>> transport.run_round([], lambda: None, {}, LocalTrainingConfig())
        []
        >>> transport.close()
        """
        self.last_round_failures = {}
        self.last_round_decode_failures = {}
        self.last_round_disconnects = {}
        self.last_fallback_reason = None
        if not clients:
            return []
        if self._closing:
            raise TransportClosedError("transport is closed")
        self.start()
        assert self._loop is not None
        ids = [client.client_id for client in clients]
        future = asyncio.run_coroutine_threadsafe(
            self._run_round_async(ids, global_state, config, round_index,
                                  failed),
            self._loop,
        )
        # a backstop for a wedged loop, never the bound a round meets: the
        # registration wait (connect_timeout) and the collection
        # (round_timeout) each end on their own, and one more
        # connect_timeout covers dispatch into full send queues
        budget = 2 * self.config.connect_timeout
        if self.config.round_timeout is not None:
            budget += self.config.round_timeout
            result_timeout: Optional[float] = budget
        else:
            result_timeout = None
        try:
            states_by_position, real_failures, decode, disconnects = \
                future.result(timeout=result_timeout)
        except (asyncio.CancelledError, concurrent.futures.CancelledError):
            # the bridging future raises the concurrent.futures flavour,
            # which is not the asyncio class on every interpreter
            raise TransportClosedError(
                f"transport closed while round {round_index} was pending"
            )
        except (concurrent.futures.TimeoutError, TimeoutError):
            future.cancel()
            raise TransportError(
                f"round {round_index} did not complete within the "
                f"{budget:.1f}s transport budget"
            )
        self.last_round_failures = real_failures
        self.last_round_decode_failures = decode
        self.last_round_disconnects = disconnects
        return [states_by_position[p] for p in sorted(states_by_position)]

    async def _run_round_async(self, ids: Sequence[int],
                               global_state: StateDict,
                               config: LocalTrainingConfig,
                               round_index: int,
                               failed: Collection[int]):
        self._round_task = asyncio.current_task()
        self._round_decode = {}
        self._round_disconnects = {}
        # positions failed by the fault plan are never dispatched, so only
        # the dispatched clients need a session
        dispatched = [(position, client_id) for position, client_id
                      in enumerate(ids) if position not in failed]
        await self._wait_for_clients([client_id for _, client_id in dispatched])
        assert self._loop is not None
        deadline = self.config.round_timeout
        pending: "dict[int, tuple[int, asyncio.Future]]" = {}
        for position, client_id in dispatched:
            reply: asyncio.Future = self._loop.create_future()
            self._pending[(round_index, client_id)] = reply
            notice = SelectionNotice(round_index=round_index,
                                     client_id=client_id, config=config,
                                     state=global_state, deadline=deadline)
            self._round_notices[(round_index, client_id)] = notice
            session = self._sessions.get(client_id)
            if session is not None:
                await session.send(notice)
            # a client that disconnected after registration gets the notice
            # replayed when (if) it reconnects before the deadline
            pending[position] = (client_id, reply)
        real_failures: "dict[int, str]" = {}
        states: "dict[int, StateDict]" = {}
        if pending:
            await asyncio.wait([reply for _, reply in pending.values()],
                               timeout=deadline)
        for position, (client_id, reply) in pending.items():
            self._pending.pop((round_index, client_id), None)
            self._round_notices.pop((round_index, client_id), None)
            if reply.cancelled():
                raise asyncio.CancelledError()
            if reply.done() and reply.exception() is None:
                states[position] = reply.result()
            elif reply.done():
                reply.exception()  # consume it (heartbeat-declared death)
                real_failures[position] = "offline"
            else:
                reply.cancel()
                # deadline passed: a client still connected just ran long;
                # one that vanished (and never reconnected) is offline
                real_failures[position] = (
                    "straggler" if client_id in self._sessions else "offline")
        return (states, real_failures, dict(self._round_decode),
                dict(self._round_disconnects))

    async def _wait_for_clients(self, ids: Sequence[int]) -> None:
        """Wait until every cohort client is registered, up to ``connect_timeout``.

        One wait on the roster: each registration wakes it to re-check who
        is missing, and the ``connect_timeout`` deadline is the only bound.
        """
        assert self._loop is not None and self._roster_changed is not None
        deadline = self._loop.time() + self.config.connect_timeout
        while True:
            missing = [cid for cid in ids if cid not in self._sessions]
            if not missing:
                return
            remaining = deadline - self._loop.time()
            if remaining <= 0:
                raise TransportError(
                    f"clients {missing} never registered within "
                    f"{self.config.connect_timeout}s"
                )
            self._roster_changed.clear()
            try:
                await asyncio.wait_for(self._roster_changed.wait(),
                                       timeout=remaining)
            except asyncio.TimeoutError:
                pass
