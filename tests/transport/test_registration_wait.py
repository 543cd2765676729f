"""The registration wait has one bound: ``connect_timeout``.

A round whose cohort never registers must fail once ``connect_timeout`` has
passed — not earlier, after a count of backoff steps, and not later.  The
server loop runs on a virtual clock here: its selector jumps the clock to
the next timer instead of sleeping, so a 30 s wait costs no wall time and
the elapsed loop time is exact.
"""

import asyncio
import selectors

import pytest

from repro.core.config import TransportConfig
from repro.federated.client import LocalTrainingConfig
from repro.transport import SocketTransport
from repro.transport.server import TransportError


class _JumpingSelector(selectors.DefaultSelector):
    """Polls for I/O without blocking; a timed wait advances the clock."""

    def __init__(self, clock):
        super().__init__()
        self.clock = clock

    def select(self, timeout=None):
        if timeout is None:
            return super().select(None)  # nothing scheduled: wait for I/O
        self.clock.now += timeout
        return super().select(0)


class _VirtualClockLoop(asyncio.SelectorEventLoop):
    def __init__(self):
        self.now = 0.0
        super().__init__(selector=_JumpingSelector(self))

    def time(self):
        return self.now


class _Peer:
    """A cohort member that never connects."""

    client_id = 0


@pytest.mark.parametrize("connect_timeout", [None, 30.0],
                         ids=["default", "30s"])
def test_a_cohort_that_never_registers_fails_after_connect_timeout(
        monkeypatch, connect_timeout):
    loops = []

    def new_event_loop():
        loops.append(_VirtualClockLoop())
        return loops[-1]

    monkeypatch.setattr(asyncio, "new_event_loop", new_event_loop)
    # heartbeat_interval=0: a probe timer would race the clock ahead
    knobs = {} if connect_timeout is None else {
        "connect_timeout": connect_timeout}
    config = TransportConfig(kind="socket", heartbeat_interval=0.0, **knobs)
    transport = SocketTransport(config)
    transport.start()
    loop = loops[0]
    try:
        started = loop.time()
        with pytest.raises(TransportError) as excinfo:
            transport.run_round([_Peer()], lambda: None, {},
                                LocalTrainingConfig())
        waited = loop.time() - started
    finally:
        transport.close()
    assert config.connect_timeout <= waited <= 1.1 * config.connect_timeout
    assert str(excinfo.value) == (
        f"clients [0] never registered within {config.connect_timeout}s")
