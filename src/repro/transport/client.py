"""The asyncio client peer: a :class:`~repro.federated.client.FederatedClient`
behind a socket.

:class:`TransportClient` is the remote half of the service layer: it owns one
local :class:`~repro.federated.client.FederatedClient` (the dataset and the
deterministic local trainer) plus a model factory, connects to a
:class:`~repro.transport.server.SocketTransport` with capped, jittered
backoff (:class:`~repro.core.retry.RetryPolicy`), registers, and then serves
the protocol loop — every :class:`~repro.transport.messages.SelectionNotice`
is answered with a locally trained
:class:`~repro.transport.messages.ModelDelta` until the server says
:class:`~repro.transport.messages.Shutdown`.

Fault tolerance
---------------
The client is built to survive a flaky link and a crashing server:

* **reconnection** — a lost connection (anything short of a ``Shutdown``)
  triggers a reconnect loop under the same backoff policy, re-registering
  with the **session token** from the last
  :class:`~repro.transport.messages.RegisterAck` so the server resumes the
  session instead of treating the peer as a stranger;
* **training survives disconnects** — local training runs in a worker
  thread off the read loop, so :class:`~repro.transport.messages.Heartbeat`
  probes are answered mid-training and a connection loss never cancels
  work in progress.  Finished deltas are cached per round: when the server
  replays an in-flight ``SelectionNotice`` after a reconnect, the cached
  delta is resent *without retraining* — and the server, which accepts one
  delta per ``(round, client)`` reply, aggregates it exactly once;
* **graceful exhaustion** — if the server never comes back the reconnect
  loop gives up after the policy's attempts, records :attr:`last_error`,
  and returns instead of raising into the owning thread.

Because :meth:`FederatedClient.local_train` trains a one-client cohort whose
batch order is seeded purely from ``(client seed, round_index)``, starting
from the broadcast global state, a remote update is bit-identical to the one
the in-process executor would have produced — the property the loopback
tests assert end-to-end.  Each delta it returns owns its arrays, so the
cached one is exactly what was sent.

``delay`` / ``delay_round`` simulate a straggler: the client sleeps before
training, so a server-side ``round_timeout`` turns it into a real
``"straggler"`` partial round (the transport-smoke CI path).
"""

from __future__ import annotations

import asyncio
from typing import Callable, Dict, Optional, Set, Tuple

import numpy as np

from ..core.retry import RetryPolicy
from ..federated.client import FederatedClient
from ..nn.module import Module
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
from .server import TransportError
from .wire import read_frame

__all__ = ["TransportClient"]

StateDict = Dict[str, np.ndarray]


class TransportClient:
    """One federated client served over a TCP connection.

    ``retries`` / ``backoff`` / ``max_backoff`` / ``jitter`` are the
    client's own: they govern the connect *and* reconnect loops through a
    :class:`~repro.core.retry.RetryPolicy` seeded with the client id (each
    fleet member jitters differently — no thundering herd), and no server
    setting shapes them.  Inbound frames are capped by
    :data:`repro.transport.wire.DEFAULT_MAX_FRAME_BYTES`, as on every other
    reader.  ``reconnect=False`` restores the fail-fast behaviour: any
    disconnect ends :meth:`run`.

    Example
    -------
    >>> # server side: transport = SocketTransport(...); transport.start()
    >>> # client side (its own thread or process):
    >>> # TransportClient(client, model_factory, *transport.address).run()
    >>> TransportClient.__name__
    'TransportClient'
    """

    def __init__(self, client: FederatedClient,
                 model_factory: Callable[[], Module],
                 host: str, port: int,
                 retries: int = 5, backoff: float = 0.05,
                 max_backoff: float = 2.0, jitter: float = 0.1,
                 reconnect: bool = True,
                 delay: float = 0.0, delay_round: Optional[int] = None):
        if delay < 0:
            raise ValueError("delay must be non-negative")
        self.client = client
        self.model_factory = model_factory
        self.host = host
        self.port = port
        #: capped, jittered backoff schedule for (re)connect attempts
        self.policy = RetryPolicy(retries=retries, backoff=backoff,
                                  max_backoff=max_backoff, jitter=jitter,
                                  seed=int(client.client_id))
        self.reconnect = reconnect
        self.delay = delay
        self.delay_round = delay_round
        #: cohort position assigned by the server's RegisterAck
        self.position: Optional[int] = None
        #: session token issued by the server (echoed on reconnects/deltas)
        self.token = ""
        #: how many times this client reconnected after losing the link
        self.reconnects = 0
        #: how many registrations the server answered with ``resumed=True``
        self.sessions_resumed = 0
        #: the last ProbabilityBroadcast received (round_index, probabilities)
        self.last_probabilities: Optional[Tuple[int, Tuple[float, ...]]] = None
        #: every RoundResult received, in order
        self.round_results: "list[RoundResult]" = []
        #: rounds this client actually trained for (each at most once)
        self.rounds_trained: "list[int]" = []
        #: why the server rejected us (or why reconnection gave up)
        self.last_error: Optional[str] = None
        self._writer: Optional[asyncio.StreamWriter] = None
        self._write_lock: Optional[asyncio.Lock] = None
        self._delta_cache: "Dict[int, StateDict]" = {}
        self._training: "Set[int]" = set()
        self._tasks: "Set[asyncio.Task]" = set()
        self._shutdown = False

    # -- the protocol loop -------------------------------------------------------

    def run(self) -> None:
        """Serve the full protocol loop (blocking; run it on its own thread).

        Connects (with capped, jittered retries), registers, then answers
        selection notices until shutdown.  A mid-run disconnect triggers
        reconnection and session resumption; only exhausted reconnect
        attempts (recorded in :attr:`last_error`) or a ``Shutdown`` end the
        loop.

        Example
        -------
        >>> # TransportClient(client, make_model, "127.0.0.1", 9999).run()
        >>> hasattr(TransportClient, "run")
        True
        """
        asyncio.run(self._run_async())

    async def _run_async(self) -> None:
        self._shutdown = False
        self._write_lock = asyncio.Lock()
        first_attempt = True
        while not self._shutdown:
            try:
                reader, writer = await self._connect()
            except TransportError as exc:
                if first_attempt:
                    raise  # initial connect failure is a caller error
                self.last_error = f"reconnect exhausted: {exc}"
                break
            if not first_attempt:
                self.reconnects += 1
            first_attempt = False
            self._writer = writer
            try:
                await self._send(Register(
                    client_id=self.client.client_id,
                    num_classes=self.client.num_classes,
                    num_samples=int(self.client.num_samples),
                    token=self.token,
                ))
                while True:
                    # no local holds the raw frame: across the awaits below it
                    # would pin one extra copy of a model state per connection
                    message, _ = decode_message((await read_frame(reader))[2])
                    if isinstance(message, Shutdown):
                        self._shutdown = True
                        break
                    await self._handle(message)
            except (asyncio.IncompleteReadError, ConnectionError, OSError):
                pass  # link lost; fall through to reconnect (or give up)
            finally:
                self._writer = None
                writer.close()
                try:
                    await writer.wait_closed()
                except (ConnectionError, OSError):
                    pass
            if not self.reconnect:
                break
        # shutdown (or giving up) makes any in-flight training moot
        for task in list(self._tasks):
            if not task.done():
                task.cancel()
        if self._tasks:
            await asyncio.gather(*self._tasks, return_exceptions=True)

    async def _connect(self):
        last_error: Optional[Exception] = None
        for attempt in range(self.policy.attempts):
            try:
                return await asyncio.open_connection(self.host, self.port)
            except (ConnectionError, OSError) as exc:
                last_error = exc
                if attempt < self.policy.retries:
                    await asyncio.sleep(self.policy.delay(attempt))
        raise TransportError(
            f"could not connect to {self.host}:{self.port} after "
            f"{self.policy.attempts} attempts: {last_error}"
        )

    async def _send(self, message) -> bool:
        """Write one frame to the *current* connection (``False`` if gone).

        Serialised by a lock so the read loop's acks and a training task's
        delta never interleave mid-frame.
        """
        writer = self._writer
        if writer is None:
            return False
        assert self._write_lock is not None
        async with self._write_lock:
            try:
                writer.write(encode_message(message))
                await writer.drain()
            except (ConnectionError, OSError):
                return False
        return True

    async def _handle(self, message) -> None:
        if isinstance(message, RegisterAck):
            self.position = message.position
            self.token = message.token
            if message.resumed:
                self.sessions_resumed += 1
        elif isinstance(message, Heartbeat):
            await self._send(HeartbeatAck(message.seq))
        elif isinstance(message, ProbabilityBroadcast):
            self.last_probabilities = (message.round_index,
                                       message.probabilities)
        elif isinstance(message, SelectionNotice):
            # train off the read loop: heartbeats keep getting answered and
            # a disconnect mid-training never cancels the work
            task = asyncio.ensure_future(self._train_and_reply(message))
            self._tasks.add(task)
            task.add_done_callback(self._tasks.discard)
        elif isinstance(message, RoundResult):
            self.round_results.append(message)
            # the round is closed on the server: cached deltas for it (and
            # earlier rounds) can never be asked for again
            for round_index in [r for r in self._delta_cache
                                if r <= message.round_index]:
                del self._delta_cache[round_index]
        elif isinstance(message, ErrorNotice):
            self.last_error = message.detail
        # Register/deltas are client→server only; ignore echoes

    async def _train_and_reply(self, notice: SelectionNotice) -> None:
        round_index = notice.round_index
        if round_index in self._delta_cache:
            # a replayed notice after reconnection: resend, don't retrain
            await self._send_delta(round_index)
            return
        if round_index in self._training:
            return  # already training; the in-flight task will reply
        self._training.add(round_index)
        try:
            if self.delay > 0 and (self.delay_round is None
                                   or self.delay_round == round_index):
                await asyncio.sleep(self.delay)
            loop = asyncio.get_running_loop()
            state = await loop.run_in_executor(None, self._train, notice)
            self._delta_cache[round_index] = state
            if round_index not in self.rounds_trained:
                self.rounds_trained.append(round_index)
        finally:
            self._training.discard(round_index)
        await self._send_delta(round_index)

    def _train(self, notice: SelectionNotice) -> StateDict:
        model = self.model_factory()
        model.load_state_dict(dict(notice.state))
        return self.client.local_train(model, notice.config,
                                       round_index=notice.round_index)

    async def _send_delta(self, round_index: int) -> None:
        await self._send(ModelDelta(
            round_index=round_index,
            client_id=self.client.client_id,
            state=self._delta_cache[round_index],
            token=self.token,
        ))
