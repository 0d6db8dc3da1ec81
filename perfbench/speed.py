"""A fixed probe job that measures how fast the machine runs right now.

The shared 2-vCPU host the benchmark was defined on slows every kind of
code by up to 40% for seconds to minutes at a time, as its other tenants'
load comes and goes, and each vCPU on its own: a probe on one does not
tell the other's speed. The same pipeline's wall time then spreads more
across runs than any useful bound.

So `Sampler` interleaves the probe with the measured code in its own
thread: it times the probe when a window opens, every `INTERVAL_S` from a
SIGALRM handler, and when the window closes. Each stretch of the window
between two probes is scaled to the speed at which the probe takes
`REFERENCE_S`:

    stretch_s * REFERENCE_S / mean(probe before, probe after)

A slow spell lengthens the stretch and the probes alike, and the ratio
stays put; a slower program lengthens only the stretches. The probes' own
time is left out of both the raw and the scaled window. The probe mixes
the kinds of work replaykit does (an interpreted loop, real FFTs, a matrix
product, exp and log over arrays) and uses nothing from replaykit, so no
change to the program can change it. Numpy is imported only by `warm_up`,
so that a worker's timed `import replaykit` still pays for it.

The handler runs between bytecodes of the measured code, never inside a
numpy call, and touches none of its state; outputs stay byte-identical.
"""

from __future__ import annotations

import signal
import time

# Roughly the probe's time on the defining machine at its usual speed, so
# that scaled times read close to seconds there. Only ratios matter: the
# parent and the change are scaled by the same constant.
REFERENCE_S = 0.02
INTERVAL_S = 0.3

_inputs: dict = {}


def _job() -> int:
    np, frames, logits, weights = (
        _inputs[k] for k in ("np", "frames", "logits", "weights"))
    total = 0
    for _ in range(12):
        for i in range(10000):
            total += i * i
        np.abs(np.fft.rfft(frames)) ** 2
        for _ in range(2):
            np.log(np.exp(logits @ weights).sum(axis=1))
    return total


def warm_up() -> None:
    """Make the probe's inputs and run it once untimed, so that first-call
    costs stay out of the probes."""
    import numpy as np
    rng = np.random.default_rng(0)
    _inputs.update(np=np, frames=rng.standard_normal((200, 512)),
                   logits=rng.standard_normal((200, 257)),
                   weights=rng.standard_normal((257, 64)) / 100.0)
    _job()


class Sampler:
    """Context manager timing one window, raw and at the reference speed.

    With `probing=False` it only times the window (`scaled_s` is None);
    traced runs use that, so that no probe falls inside a span.
    """

    def __init__(self, probing: bool = True):
        self.probing = probing
        self.marks: list[tuple[float, float]] = []  # (start, end) per probe
        self._previous = None

    def _probe(self, *_signal_args) -> None:
        start = time.perf_counter()
        if self.probing:
            _job()
        self.marks.append((start, time.perf_counter()))

    def __enter__(self) -> "Sampler":
        self._probe()
        if self.probing:
            self._previous = signal.signal(signal.SIGALRM, self._probe)
            signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *_exc) -> None:
        if self.probing:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, self._previous)
        self._probe()

    @property
    def raw_s(self) -> float:
        return sum(b[0] - a[1] for a, b in zip(self.marks, self.marks[1:]))

    @property
    def first_probe_s(self) -> float:
        return self.marks[0][1] - self.marks[0][0]

    @property
    def scaled_s(self) -> float | None:
        if not self.probing:
            return None
        return sum((b[0] - a[1]) * REFERENCE_S * 2.0
                   / ((a[1] - a[0]) + (b[1] - b[0]))
                   for a, b in zip(self.marks, self.marks[1:]))
