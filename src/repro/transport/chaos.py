"""Seeded chaos proxy: real network faults, reproducibly, on localhost TCP.

The :class:`~repro.scenarios.engine.FaultInjector` *simulates* faults inside
the round loop; :class:`ChaosProxy` *induces* them on the wire.  It is a
frame-aware TCP relay that sits between a fleet of
:class:`~repro.transport.client.TransportClient` peers and a
:class:`~repro.transport.server.SocketTransport` server, driven by a
declarative :class:`~repro.scenarios.spec.NetworkSpec`: fixed latency and
exponential jitter, bandwidth caps, single-bit frame flips, mid-frame
truncation, abrupt connection resets and one-way partitions.

Determinism is the design anchor, inherited from the fault injector: every
probabilistic decision is drawn from an RNG keyed by
``(seed, round, client, direction, frame ordinal)``, so two runs with the
same seed damage the same frames of the same clients in the same rounds —
and the failures the server records are byte-identical across repeats.
The proxy learns the ``(round, client)`` coordinates by sniffing the frames
it relays (``Register`` carries the client id; ``SelectionNotice`` /
``ModelDelta`` carry the round index), never by decoding payloads.

Two deliberate policies keep induced chaos well-defined:

* **corruption ends the connection** — after forwarding a flipped or
  truncated frame the proxy closes both legs.  The receiver sees exactly one
  damaged frame (a structured :class:`~repro.transport.wire.CorruptFrameError`
  on decode) followed by EOF, never a desynchronised byte stream;
* **the handshake is exempt from partitions** — ``Register`` /
  ``RegisterAck`` / ``Shutdown`` / ``ErrorNotice`` frames always pass, so a
  partitioned client still joins the federation (and later learns the run is
  over); only its *round* traffic is discarded, which is what surfaces as an
  ``"offline"`` or ``"straggler"`` failure in the round record.
"""

from __future__ import annotations

import asyncio
import threading
from typing import Optional

import numpy as np

from ..scenarios.spec import NetworkSpec
from .messages import (
    ErrorNotice,
    ModelDelta,
    ProbabilityBroadcast,
    Register,
    RegisterAck,
    RoundResult,
    SelectionNotice,
    Shutdown,
)
from .wire import WireError, read_frame

__all__ = ["ChaosProxy"]

#: Frames whose first payload field is the round index the proxy sniffs.
_ROUND_TYPES = frozenset(
    cls.TYPE for cls in (ProbabilityBroadcast, SelectionNotice, ModelDelta,
                         RoundResult))

#: Frames that must always pass (never partitioned): the join handshake and
#: the teardown — chaos targets *round* traffic, not the federation's
#: existence.
_HANDSHAKE_TYPES = frozenset(
    cls.TYPE for cls in (Register, RegisterAck, Shutdown, ErrorNotice))

#: Direction codes folded into the RNG key (client → server and back).
_DIR_TO_SERVER = 0
_DIR_TO_CLIENT = 1

#: RNG client slot used before a connection has sniffed its Register (the
#: proxy has no client id yet); offset far above any real cohort id.
_UNKNOWN_CLIENT_BASE = 1 << 20

#: Seconds :meth:`ChaosProxy.close` lets live relays forward what is still
#: in flight before it cancels them.
_DRAIN_SECONDS = 1.0


def _read_u32(payload: bytes, offset: int = 0) -> Optional[int]:
    if len(payload) < offset + 4:
        return None
    return int.from_bytes(payload[offset:offset + 4], "big")


class _Relay:
    """One proxied connection: two directional frame pumps sharing state."""

    def __init__(self, proxy: "ChaosProxy", index: int):
        self.proxy = proxy
        self.index = index
        self.client_id: Optional[int] = None
        self.round_index = 0
        # per (round, direction) frame ordinal — reset when the sniffed
        # round advances so the RNG key stays aligned across repeat runs
        # regardless of how earlier rounds interleaved
        self.ordinals = {_DIR_TO_SERVER: 0, _DIR_TO_CLIENT: 0}

    def _advance_round(self, round_index: int) -> None:
        if round_index > self.round_index:
            self.round_index = round_index
            self.ordinals = {_DIR_TO_SERVER: 0, _DIR_TO_CLIENT: 0}

    def sniff(self, direction: int, msg_type: int, payload: bytes) -> None:
        """Learn (round, client) coordinates from a relayed frame."""
        if direction == _DIR_TO_SERVER and msg_type == Register.TYPE:
            client_id = _read_u32(payload)
            if client_id is not None:
                self.client_id = client_id
        elif msg_type in _ROUND_TYPES:
            round_index = _read_u32(payload)
            if round_index is not None:
                self._advance_round(round_index)

    def rng_key(self, direction: int) -> "list[int]":
        client = (self.client_id if self.client_id is not None
                  else _UNKNOWN_CLIENT_BASE + self.index)
        ordinal = self.ordinals[direction]
        self.ordinals[direction] = ordinal + 1
        return [self.proxy.seed, self.round_index, client, direction, ordinal]


class ChaosProxy:
    """A deterministic fault-inducing TCP relay for the Dubhe wire protocol.

    Point clients at :attr:`address` instead of the real server and every
    byte of the round protocol crosses two extra sockets, subject to the
    faults declared in the :class:`~repro.scenarios.spec.NetworkSpec`.  With
    an empty spec (or ``spec=None``) the proxy is the **zero-fault
    identity**: every frame is forwarded untouched and a proxied run is
    bit-identical to a direct-socket one (asserted in CI).

    The proxy runs its own asyncio loop on a daemon thread, exactly like
    :class:`~repro.transport.server.SocketTransport`, so it composes with
    the blocking round-loop API without sharing an event loop.

    Example
    -------
    >>> from repro.scenarios.spec import NetworkSpec
    >>> proxy = ChaosProxy(("127.0.0.1", 9), spec=NetworkSpec())
    >>> proxy.spec.is_empty()
    True
    """

    def __init__(self, upstream: "tuple[str, int]",
                 spec: Optional[NetworkSpec] = None, seed: int = 0,
                 host: str = "127.0.0.1", port: int = 0):
        self.upstream = (str(upstream[0]), int(upstream[1]))
        self.spec = spec if spec is not None else NetworkSpec()
        if not isinstance(self.spec, NetworkSpec):
            raise TypeError("spec must be a NetworkSpec (or None)")
        self.seed = int(seed)
        self.host = host
        self.port = int(port)
        #: ``(round, client, direction, kind)`` tuples of every induced
        #: fault, in decision order — the observable the determinism tests
        #: compare across repeat runs.
        self.events: "list[tuple[int, int, str, str]]" = []
        #: proxied connections whose relay has ended — every fault decision
        #: for them is in :attr:`events`
        self.relays_finished = 0
        self.address: Optional[tuple[str, int]] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None
        self._server: Optional[asyncio.AbstractServer] = None
        self._relay_count = 0

    # -- lifecycle ---------------------------------------------------------------

    def start(self) -> "tuple[str, int]":
        """Bind the relay and return its public ``(host, port)`` address.

        Example
        -------
        >>> ChaosProxy(("127.0.0.1", 9)).start  # doctest: +ELLIPSIS
        <bound method ChaosProxy.start of ...>
        """
        if self._thread is not None:
            if self.address is None:
                raise RuntimeError("proxy failed to start")
            return self.address
        started = threading.Event()
        failure: "list[BaseException]" = []

        def runner() -> None:
            loop = asyncio.new_event_loop()
            asyncio.set_event_loop(loop)
            self._loop = loop
            try:
                self._server = loop.run_until_complete(
                    asyncio.start_server(self._handle, self.host, self.port))
                self.address = self._server.sockets[0].getsockname()[:2]
            except BaseException as exc:  # pragma: no cover - bind failure
                failure.append(exc)
                started.set()
                return
            started.set()
            try:
                loop.run_forever()
            finally:
                for task in asyncio.all_tasks(loop):
                    task.cancel()
                loop.run_until_complete(loop.shutdown_asyncgens())
                loop.close()

        self._thread = threading.Thread(target=runner, name="chaos-proxy",
                                        daemon=True)
        self._thread.start()
        started.wait()
        if failure:
            raise failure[0]
        assert self.address is not None
        return self.address

    def close(self) -> None:
        """Stop relaying and tear down every proxied connection.

        New connections are refused at once; live relays get up to
        :data:`_DRAIN_SECONDS` to forward the frames still in flight.  Closed
        after its server (as :class:`~repro.transport.server.SocketTransport`
        does), every upstream leg ends after its last frame, so the fleet's
        ``Shutdown`` is delivered, not dropped — a client that missed it
        would retry a proxy that is gone.
        Idempotent; safe to call on a proxy that never started.

        Example
        -------
        >>> ChaosProxy(("127.0.0.1", 9)).close()
        """
        loop, thread = self._loop, self._thread
        if loop is None or thread is None or not thread.is_alive():
            return

        async def shutdown() -> None:
            if self._server is not None:
                self._server.close()
                await self._server.wait_closed()
            relays = asyncio.all_tasks() - {asyncio.current_task()}
            if relays:
                await asyncio.wait(relays, timeout=_DRAIN_SECONDS)

        asyncio.run_coroutine_threadsafe(shutdown(), loop).result(timeout=10)
        loop.call_soon_threadsafe(loop.stop)
        thread.join(timeout=10)

    # -- relay -------------------------------------------------------------------

    async def _handle(self, reader: asyncio.StreamReader,
                      writer: asyncio.StreamWriter) -> None:
        relay = _Relay(self, self._relay_count)
        self._relay_count += 1
        try:
            up_reader, up_writer = await asyncio.open_connection(*self.upstream)
        except OSError:
            writer.close()
            self.relays_finished += 1
            return
        pumps = [
            asyncio.ensure_future(self._pump(relay, _DIR_TO_SERVER, reader,
                                             up_writer)),
            asyncio.ensure_future(self._pump(relay, _DIR_TO_CLIENT, up_reader,
                                             writer)),
        ]
        try:
            await asyncio.wait(pumps, return_when=asyncio.FIRST_COMPLETED)
        finally:
            for pump in pumps:
                pump.cancel()
            for w in (writer, up_writer):
                try:
                    w.close()
                except Exception:
                    pass
            self.relays_finished += 1

    def _record(self, relay: _Relay, direction: int, kind: str) -> None:
        client = relay.client_id if relay.client_id is not None else -1
        name = "to_server" if direction == _DIR_TO_SERVER else "to_client"
        self.events.append((relay.round_index, client, name, kind))

    def _partitioned(self, relay: _Relay, direction: int, msg_type: int) -> bool:
        if relay.client_id is None or msg_type in _HANDSHAKE_TYPES:
            return False
        cut = self.spec.partitions.get(relay.client_id)
        if cut is None:
            return False
        name = "to_server" if direction == _DIR_TO_SERVER else "to_client"
        return cut == "both" or cut == name

    async def _pump(self, relay: _Relay, direction: int,
                    reader: asyncio.StreamReader,
                    writer: asyncio.StreamWriter) -> None:
        spec = self.spec
        try:
            while True:
                try:
                    msg_type, payload, raw = await read_frame(reader)
                except (asyncio.IncompleteReadError, ConnectionError, OSError):
                    return
                except WireError:
                    # hostile/damaged bytes from a peer: forward nothing,
                    # cut the relayed connection (the endpoints handle the
                    # resulting EOF with their own structured errors)
                    return
                relay.sniff(direction, msg_type, payload)
                if self._partitioned(relay, direction, msg_type):
                    self._record(relay, direction, "partition")
                    continue  # silently discard, keep the connection open
                rng = np.random.default_rng(relay.rng_key(direction))
                # fixed draw order so one decision never shifts the next
                # frame's randomness: reset, flip, truncate, jitter
                u_reset, u_flip, u_trunc = rng.random(3)
                if spec.reset_probability and u_reset < spec.reset_probability:
                    self._record(relay, direction, "reset")
                    return
                if spec.flip_probability and u_flip < spec.flip_probability:
                    bit = int(rng.integers(0, len(raw) * 8))
                    damaged = bytearray(raw)
                    damaged[bit // 8] ^= 1 << (bit % 8)
                    self._record(relay, direction, "flip")
                    writer.write(bytes(damaged))
                    await writer.drain()
                    return  # corruption ends the connection (see module doc)
                if spec.truncate_probability and u_trunc < spec.truncate_probability:
                    cut = int(rng.integers(1, len(raw)))
                    self._record(relay, direction, "truncate")
                    writer.write(raw[:cut])
                    await writer.drain()
                    return
                delay = spec.latency
                if spec.jitter:
                    delay += float(rng.exponential(spec.jitter))
                if spec.bandwidth:
                    delay += len(raw) / spec.bandwidth
                if delay > 0:
                    await asyncio.sleep(delay)
                writer.write(raw)
                await writer.drain()
        except (ConnectionError, OSError, asyncio.CancelledError):
            return
