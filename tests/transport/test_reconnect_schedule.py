"""The peer's one reconnect schedule, checked on a virtual clock.

Every :class:`~repro.transport.TransportClient` connects and reconnects
under the ``RECONNECT_*`` constants of :mod:`repro.transport.client`: after
failed attempt ``a`` it sleeps ``0.05 * 2**a`` seconds, capped at 2 s, less
up to 10 % of that drawn from an RNG keyed by ``(client id, a)``, and it
gives up after 5 retries.  The regression the cap guards: the client's
original loop slept ``backoff * 2**attempt`` with no cap, so a fleet that
outlived a long outage would have backed off for hours.

The peer's loop runs on :class:`virtual_clock.VirtualClockLoop` against a
scripted ``asyncio.open_connection``: each attempt's loop time is recorded,
so the gaps between attempts are exactly the sleeps, and no test waits.
"""

import asyncio
import inspect
import itertools
from types import SimpleNamespace

import numpy as np
import pytest

from virtual_clock import VirtualClockLoop

from repro.transport import TransportClient
from repro.transport import client as client_module
from repro.transport.messages import (Register, RegisterAck, Shutdown,
                                      decode_message, encode_message)
from repro.transport.server import TransportError
from repro.transport.wire import frame_header


def expected_delay(client_id, attempt):
    """The sleep after failed attempt *attempt*, as every release spelled it."""
    base = min(0.05 * 2 ** attempt, 2.0)
    fraction = np.random.default_rng([client_id, attempt]).random()
    return base * (1.0 - 0.1 * fraction)


def make_peer(client_id=0):
    donor = SimpleNamespace(client_id=client_id, num_classes=10,
                            num_samples=5)
    return TransportClient(donor, lambda: None, "127.0.0.1", 9)


class _Writer:
    """The write half of a scripted connection: keeps every byte written."""

    def __init__(self):
        self.data = b""

    def write(self, data):
        self.data += bytes(data)

    async def drain(self):
        pass

    def close(self):
        pass

    async def wait_closed(self):
        pass

    def messages(self):
        """The messages written, decoded frame by frame."""
        out, rest = [], self.data
        while rest:
            _, length = frame_header(rest[:8])
            frame, rest = rest[:8 + length + 4], rest[8 + length + 4:]
            out.append(decode_message(frame)[0])
        return out


def drive(monkeypatch, peer, script, method="_run_async"):
    """Run *peer*'s *method* on a virtual clock against *script*.

    Each entry of *script* answers one connect attempt: ``None`` refuses
    it, a list of messages accepts it, sends them and closes the link.
    Attempts past the script are refused.  Returns the loop time of every
    attempt, the writer of every accepted connection, and the exception
    the method raised (or ``None``).
    """
    loop = VirtualClockLoop()
    answers = itertools.chain(script, itertools.repeat(None))
    times, writers = [], []

    async def open_connection(host, port):
        times.append(loop.time())
        messages = next(answers)
        if messages is None:
            raise ConnectionRefusedError("connection refused")
        reader = asyncio.StreamReader()
        for message in messages:
            reader.feed_data(encode_message(message))
        reader.feed_eof()
        writers.append(_Writer())
        return reader, writers[-1]

    monkeypatch.setattr(client_module.asyncio, "open_connection",
                        open_connection)
    error = None
    try:
        loop.run_until_complete(getattr(peer, method)())
    except TransportError as exc:
        error = exc
    finally:
        loop.close()
    return times, writers, error


def gaps(times):
    return [later - earlier for earlier, later in zip(times, times[1:])]


class TestSurface:
    def test_six_parameters(self):
        assert list(inspect.signature(TransportClient).parameters) == [
            "client", "model_factory", "host", "port", "delay",
            "delay_round"]

    @pytest.mark.parametrize("knob", [
        "retries", "backoff", "max_backoff", "jitter", "reconnect"])
    def test_retired_keyword_is_rejected(self, knob):
        with pytest.raises(TypeError):
            TransportClient(SimpleNamespace(client_id=0), lambda: None,
                            "127.0.0.1", 9, **{knob: 1})

    def test_the_schedule_every_release_used(self):
        assert (client_module.RECONNECT_RETRIES,
                client_module.RECONNECT_BACKOFF,
                client_module.RECONNECT_MAX_BACKOFF,
                client_module.RECONNECT_JITTER) == (5, 0.05, 2.0, 0.1)


class TestSchedule:
    @pytest.mark.parametrize("client_id", [0, 3])
    def test_a_refusing_server_gets_six_attempts_on_the_schedule(
            self, monkeypatch, client_id):
        times, _, error = drive(monkeypatch, make_peer(client_id), [],
                                method="_connect")
        assert len(times) == 6
        assert gaps(times) == pytest.approx(
            [expected_delay(client_id, a) for a in range(5)],
            rel=1e-9, abs=1e-12)
        assert "after 6 attempts" in str(error)

    def test_jitter_only_shortens_and_the_cap_is_a_true_bound(
            self, monkeypatch):
        # a long outage: the doubling reaches the cap and stays under it
        monkeypatch.setattr(client_module, "RECONNECT_RETRIES", 40)
        times, _, _ = drive(monkeypatch, make_peer(7), [], method="_connect")
        delays = gaps(times)
        assert len(delays) == 40
        for attempt, delay in enumerate(delays):
            base = min(0.05 * 2 ** attempt, 2.0)
            assert 0.9 * base - 1e-9 <= delay <= base + 1e-9
        assert all(delay >= 1.8 - 1e-9 for delay in delays[6:])
        assert sum(delays) <= 40 * 2.0

    def test_a_fleet_does_not_back_off_in_lockstep(self, monkeypatch):
        zero, _, _ = drive(monkeypatch, make_peer(0), [], method="_connect")
        one, _, _ = drive(monkeypatch, make_peer(1), [], method="_connect")
        assert gaps(zero) != gaps(one)


class TestReconnect:
    def test_a_first_connect_that_never_lands_is_the_callers_error(
            self, monkeypatch):
        peer = make_peer()
        times, _, error = drive(monkeypatch, peer, [])
        assert isinstance(error, TransportError)
        assert len(times) == 6
        assert peer.last_error is None and peer.reconnects == 0

    def test_a_lost_link_reconnects_and_resumes_with_the_token(
            self, monkeypatch):
        peer = make_peer(2)
        times, writers, error = drive(monkeypatch, peer, [
            [RegisterAck(2, 0, 1, token="t0")],
            None,
            [RegisterAck(2, 0, 1, token="t0", resumed=True), Shutdown()],
        ])
        assert error is None
        assert peer.reconnects == 1 and peer.sessions_resumed == 1
        assert gaps(times) == pytest.approx([0.0, expected_delay(2, 0)],
                                            abs=1e-12)
        # the first join carries no token, the rejoin echoes the ack's
        for writer, token in zip(writers, ["", "t0"]):
            (register,) = writer.messages()
            assert isinstance(register, Register)
            assert (register.client_id, register.token) == (2, token)
        assert peer.last_error is None

    def test_a_server_that_never_returns_exhausts_the_schedule(
            self, monkeypatch):
        peer = make_peer(4)
        times, _, error = drive(monkeypatch, peer,
                                [[RegisterAck(4, 0, 1, token="t4")]])
        assert error is None  # run() returns; the owning thread survives
        assert len(times) == 1 + 6
        assert peer.reconnects == 0
        assert peer.last_error.startswith("reconnect exhausted: could not "
                                          "connect to 127.0.0.1:9 after 6")
        assert times[-1] == pytest.approx(
            sum(expected_delay(4, a) for a in range(5)), rel=1e-9)

    def test_shutdown_ends_the_loop_without_a_reconnect(self, monkeypatch):
        peer = make_peer()
        times, _, error = drive(monkeypatch, peer, [
            [RegisterAck(0, 0, 1, token="t0"), Shutdown()]])
        assert error is None
        assert len(times) == 1 and peer.reconnects == 0
