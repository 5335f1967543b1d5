"""`fork_map`: a list map split over this process and forked children.

Imported only by a parallel `verify_all`, so a plain `import sphstruve`
does not compile it.
"""

import os
import pickle
import signal

__all__ = ["fork_map"]


def fork_map(fn, items, workers):
    """`[fn(x) for x in items]`, computed in `workers` interleaved shares.

    Share k is `items[k::workers]`.  This process runs share 0, and
    `os.fork()` makes one child per other share, which pickles its list
    into a pipe.  A child starts from this process's memory, so `fn` may
    be a closure, and whatever it calls is what this process would call.
    An exception raised in a child is raised here (a `RuntimeError` with
    the child's traceback text if it cannot be pickled); a child that
    ends without sending its result raises `ChildProcessError`.  If
    anything raises, every child is killed and reaped first: no child
    outlives the call.
    """
    # fork, not a pool: no pool to import and start, and the library
    # starts no thread that a fork could split
    children = []  # [pid, read end] per child in share order; pid None once reaped
    try:
        for k in range(1, workers):
            r, w = os.pipe()
            children.append([None, r])
            try:
                pid = os.fork()
                if pid == 0:
                    _run_child_share(fn, items[k::workers], w, [fd for _, fd in children])
            finally:
                os.close(w)
            children[-1][0] = pid
        out = [None] * len(items)
        out[::workers] = [fn(x) for x in items[::workers]]
        for k, child in enumerate(children, 1):
            pid, fd = child
            with open(fd, "rb", closefd=False) as pipe:
                data = pipe.read()
            status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            child[0] = None
            if status != 0:
                raise ChildProcessError(f"worker {pid} ended without a result (exit status {status})")
            value, trace = pickle.loads(data)
            if trace is not None:
                if value is None:
                    raise RuntimeError(f"worker {pid} raised an exception that cannot be pickled:\n{trace}")
                raise value from RuntimeError(f"worker {pid} traceback:\n{trace}")
            out[k::workers] = value
        return out
    except BaseException:
        for pid, _ in children:
            if pid is not None:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
        raise
    finally:
        for _, fd in children:
            os.close(fd)


def _run_child_share(fn, share, fd, inherited):
    """Body of a forked child: pickle `([fn(x) for x in share], None)`, or
    `(exception, or None if it cannot be pickled, traceback text)`, into
    pipe `fd`.  Never returns: it leaves through `os._exit`, so the
    caller's atexit handlers and stdio buffers never run here.  Exit
    status 0 means the whole result was written."""
    code = 1
    try:
        for other in inherited:  # the read ends of every pipe, this one's too
            os.close(other)
        with open(fd, "wb") as pipe:
            try:
                result = ([fn(x) for x in share], None)
            except BaseException as exc:
                import traceback

                trace = traceback.format_exc()
                try:
                    pickle.loads(pickle.dumps(exc))
                except Exception:
                    exc = None
                result = (exc, trace)
            pickle.dump(result, pipe)
        code = 0
    finally:
        os._exit(code)
