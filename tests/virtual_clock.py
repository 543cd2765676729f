"""An asyncio event loop on a virtual clock, for waits with no I/O in flight.

The loop's selector jumps the clock to the next timer instead of sleeping,
so a 30 s wait costs no wall time and the elapsed loop time is exact.  I/O
is still polled (without blocking) on every turn; a loop with nothing
scheduled waits for I/O as usual.
"""

import asyncio
import selectors


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


class VirtualClockLoop(asyncio.SelectorEventLoop):
    """A selector event loop whose :meth:`time` only moves between timers."""

    def __init__(self):
        self.now = 0.0
        super().__init__(selector=_JumpingSelector(self))

    def time(self):
        return self.now
