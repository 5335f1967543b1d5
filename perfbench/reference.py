"""A fixed reference loop that the benchmark times next to every unit.

On a shared host the speed of a core drifts: a fixed loop runs up to
1.6x slower for stretches of seconds to minutes. The benchmark divides
each unit's wall time by the time of this loop, run right before and
right after the unit, or every few tenths of a second inside a long
in-process unit, so the drift cancels and a change in the library shows
in full. The loop never touches the library, so no change to the
library moves it.

Its work is a mix in the style of the library: a float ratio series
like the evaluators', dict and list traffic, and 60-digit `Decimal`
arithmetic like the regularized pipeline's.
"""

import math
import os
import selectors
import signal
import statistics
import subprocess
import time
from decimal import Context, Decimal, localcontext

ITERATIONS = 8000


def work(iterations=ITERATIONS):
    """The fixed work; returns a checksum so that none of it is skipped."""
    table, items = {}, []
    acc = 0.0
    with localcontext(Context(prec=60)):
        total = Decimal(0)
        for i in range(iterations):
            x = 0.5 + (i % 97) * 0.25
            term, s = 1.0, 1.0
            for k in range(1, 16):
                term *= -x * x / (4.0 * k * (k + 0.5))
                s += term
            table[i & 511] = s
            items.append(x)
            acc += math.sqrt(abs(s) + 1.0)
            d = Decimal(i + 1)
            for _ in range(4):
                total += d / (d + 7) - total / 1000
    return acc + float(total) + len(table) + len(items)


def timed_work():
    t0 = time.perf_counter()
    work()
    return time.perf_counter() - t0


def seconds(repeats):
    """Median wall time of `repeats` runs of the fixed work."""
    return statistics.median(timed_work() for _ in range(repeats))


def in_refs(start, end, pauses, refs):
    """A unit's (wall time, time in units of the loop).

    The unit ran from `start` to `end` except during `pauses`, a sorted
    list of (from, to) intervals in each of which the loop took the
    matching entry of `refs`. Each stretch the unit ran counts as its
    length over the mean of the loop times on its two sides, or of the
    nearest one at either end."""
    edges = [start, *(t for p in pauses for t in p), end]
    stretches = [edges[2 * k + 1] - edges[2 * k] for k in range(len(pauses) + 1)]
    refs = [refs[0], *refs, refs[-1]]
    return math.fsum(stretches), math.fsum(s * 2.0 / (refs[k] + refs[k + 1]) for k, s in enumerate(stretches))


def run_in_refs(fn, interval):
    """Call `fn()` with the loop run every `interval` seconds of its time.

    The loop runs from a SIGALRM handler, so this must be called from the
    main thread, and `fn` must not use SIGALRM itself. The handler
    re-arms the timer when the loop ends. A call shorter than `interval`
    gets one loop after it. Returns `fn`'s result, then `in_refs`."""
    pauses, refs = [], []

    def tick(signum, frame):
        t0 = time.perf_counter()
        refs.append(timed_work())
        pauses.append((t0, time.perf_counter()))
        signal.setitimer(signal.ITIMER_REAL, interval)

    old = signal.signal(signal.SIGALRM, tick)
    try:
        signal.setitimer(signal.ITIMER_REAL, interval)
        start = time.perf_counter()
        out = fn()
        end = time.perf_counter()
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)
    kept = [k for k, p in enumerate(pauses) if p[1] <= end]  # drop a tick after `end`
    pauses, refs = [pauses[k] for k in kept], [refs[k] for k in kept]
    if not pauses:
        pauses, refs = [(end, end)], [timed_work()]
    return (out, *in_refs(start, end, pauses, refs))


def run_child_in_refs(cmd, interval, timeout, **popen_kw):
    """Run `cmd` as a child process in its own process group, and every
    `interval` seconds of its run time stop the group, time the loop and
    continue it. Its stdout and stderr are read as it runs.

    Returns (exit code, stdout, stderr, `in_refs`...); the exit code is
    None when the child outlived `timeout` seconds and was killed."""
    proc = subprocess.Popen(
        cmd, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        start_new_session=True, **popen_kw,
    )
    fds = proc.stdout.fileno(), proc.stderr.fileno()
    chunks = {fd: [] for fd in fds}
    pauses, refs = [], []
    try:
        with selectors.DefaultSelector() as sel:
            for f in (proc.stdout, proc.stderr):
                sel.register(f, selectors.EVENT_READ)
            start = time.perf_counter()
            resumed, ticking = start, True
            while sel.get_map():
                now = time.perf_counter()
                if now > start + timeout:
                    raise subprocess.TimeoutExpired(cmd, timeout)
                if ticking and now >= resumed + interval:
                    os.killpg(proc.pid, signal.SIGSTOP)
                    stopped = now
                    state = os.waitid(os.P_PID, proc.pid, os.WSTOPPED | os.WEXITED | os.WNOWAIT)
                    if state.si_code != os.CLD_STOPPED:  # it ended: Popen reaps it below
                        ticking = False
                        continue
                    os.waitid(os.P_PID, proc.pid, os.WSTOPPED)  # take the stop notice
                    refs.append(timed_work())
                    resumed = time.perf_counter()
                    os.killpg(proc.pid, signal.SIGCONT)
                    pauses.append((stopped, resumed))
                    continue
                wait = resumed + interval - now if ticking else start + timeout - now
                for key, _ in sel.select(max(wait, 0.0)):
                    data = os.read(key.fd, 1 << 16)
                    if data:
                        chunks[key.fd].append(data)
                    else:
                        sel.unregister(key.fileobj)
            code = proc.wait(timeout=max(start + timeout - time.perf_counter(), 0.0))
            end = time.perf_counter()
    except subprocess.TimeoutExpired:
        code = None
        end = time.perf_counter()
    finally:
        if proc.returncode is None:
            for sig in (signal.SIGCONT, signal.SIGKILL):
                try:
                    os.killpg(proc.pid, sig)
                except ProcessLookupError:
                    pass
            proc.wait()
        proc.stdout.close()
        proc.stderr.close()
    if not pauses:
        pauses, refs = [(end, end)], [timed_work()]
    out, err = (b"".join(chunks[fd]).decode() for fd in fds)
    return (code, out, err, *in_refs(start, end, pauses, refs))
