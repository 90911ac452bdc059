"""Run one function in a forked child while this process runs another.

:func:`_alongside` is the package's one use of ``os.fork``.  Every message
the child sends through its pipe is one pickle of ``(kind, body)``: an
``"item"`` it emits or serves, its ``"value"`` with the layer times it
recorded, or the exception it raised (``"raise"``).
"""

from __future__ import annotations

import io
import os
import pickle
import select
import signal
import threading


def _picklable(exc: BaseException) -> BaseException:
    """``exc``, or a ``RuntimeError`` naming its type if it does not survive pickling."""
    try:
        pickle.loads(pickle.dumps(exc, pickle.HIGHEST_PROTOCOL))  # the parent must rebuild it
        return exc
    except Exception:
        return RuntimeError(f"{type(exc).__name__}: {exc}")


class _PipeReader(io.RawIOBase):
    """The file ``pickle.load`` reads a message through: each read fills all it asks for.

    So a message is unpickled as it is read from the unbuffered pipe, and
    never held whole beside the objects it holds; ``EOFError`` if the pipe
    ends first.
    """

    def __init__(self, fh):
        self._fh = fh

    def readinto(self, buf) -> int:
        view = memoryview(buf).cast("B")
        while view:
            n = self._fh.readinto(view)
            if not n:
                raise EOFError
            view = view[n:]
        return memoryview(buf).nbytes


class _Child:
    """This process's end of the child that :func:`_alongside` forks."""

    def __init__(self, pid: int, data, requests, on_item, runtime: dict):
        self.pid = pid
        self._data = data  # unbuffered, so select sees every byte not yet read
        self._reader = _PipeReader(data)
        self._requests = requests
        self._on_item = on_item
        self._runtime = runtime
        self.arrived = False
        self.value = None
        self._reaped = False

    def _receive(self):
        """Read the next message and act on it; return it if it is a served item.

        An item sent before the value goes to ``on_item``; the value is kept
        and its layer times merged into ``runtime``; an exception the child
        sent is raised here.
        """
        try:
            kind, body = pickle.load(self._reader)
        except EOFError:
            raise ChildProcessError(f"forked child {self.pid} ended without a result") from None
        if kind == "raise":
            raise body
        if kind == "value":
            self.value, times = body
            self._runtime.update(times)
            self.arrived = True
        elif self.arrived:
            return body
        else:
            self._on_item(*body)

    def poll(self) -> bool:
        """Whether the value has arrived; reads only what the child has sent."""
        while not self.arrived and select.select([self._data], [], [], 0)[0]:
            self._receive()
        return self.arrived

    def result(self):
        """Close the request pipe, then wait for the value and return it.

        A child waiting for a request reads EOF and ends; items that arrive
        meanwhile go to ``on_item``.
        """
        self._requests.close()
        while not self.arrived:
            self._receive()
        return self.value

    def request(self, *args) -> None:
        """Ask the child, once its value has arrived, for the items of ``serve(*args)``."""
        pickle.dump(args, self._requests)
        self._requests.flush()

    def item(self) -> tuple:
        """Wait for the next item the child serves after its value, and return it."""
        return self._receive()

    def close(self) -> None:
        """Close both pipes and reap the child, which a closed pipe ends if it still writes."""
        self._requests.close()
        self._data.close()
        if not self._reaped:
            os.waitpid(self.pid, 0)
            self._reaped = True

    def stop(self) -> None:
        """Kill and reap the child; a value that has arrived stays."""
        if not self._reaped:
            os.kill(self.pid, signal.SIGKILL)
        self.close()


def _alongside(child_work, work, runtime: dict, on_item=None, serve=None):
    """Return ``(child_work(emit), work(child))``, the first computed in a forked child.

    The child runs ``child_work`` while this process runs ``work``, so two
    CPU-bound Python loops that would take turns on the GIL in threads run
    at once.  ``work`` gets the :class:`_Child` (``None`` without a fork).
    Before it returns, ``child_work`` may call ``emit(*item)`` any number
    of times: each item goes through the pipe at once, and this process
    calls ``on_item(*item)`` for each in order whenever it reads the pipe:
    at ``child.poll()``, which never waits for a child still working, and
    once ``work`` has returned, while the child works on.  Then the child
    sends its value, with the entries ``child_work`` recorded in its copy
    of ``runtime`` (a ``ScenarioReport.runtime``), which are merged into
    ``runtime`` here; or it sends the exception it raised, which this
    process raises as its own when it reads it (as a ``RuntimeError``
    naming its type if it does not survive pickling).  An item or value
    that cannot be pickled makes the child raise.

    With its value sent, the child may serve a stream: if ``work`` calls
    ``child.request(*args)``, the child sends each item ``serve(*args)``
    yields, which ``child.item()`` returns one at a time; with ``serve``
    given the pipe is enlarged to 1 MiB where Linux allows, so the child
    runs ahead.  A child that gets no request before ``work`` returns reads
    EOF and ends without serving.  The child ends with ``os._exit``, so no
    atexit handler or inherited buffer runs twice.  If ``work`` or
    ``on_item`` raises, the child is killed, and the child is always reaped
    before this returns or raises; ``work`` may end it early with
    ``child.stop()``.

    Where ``os.fork`` does not exist, or another thread is running (a fork
    copies only the calling thread, so a lock another thread holds would
    stay held in the child), ``work(None)`` runs here, then ``child_work``,
    which records its layers in ``runtime`` directly, and then ``on_item``
    on each item it emitted.
    """
    if not hasattr(os, "fork") or threading.active_count() > 1:
        value = work(None)
        items = []
        child_value = child_work(lambda *item: items.append(item))
        for item in items:
            on_item(*item)
        return child_value, value

    r, w = os.pipe()
    if serve is not None:
        import fcntl  # Unix only, as os.fork is

        try:
            # room for a dozen noise items of 10^4 particles, so a serving
            # child runs ahead instead of stalling in every write: in 16
            # alternating runs of the shipped linear_compare on 2 vCPUs, the
            # default 64 KiB took the median total 6% above 1 MiB (0.436
            # against 0.410 s)
            fcntl.fcntl(w, fcntl.F_SETPIPE_SZ, 1 << 20)
        except (AttributeError, OSError):  # not Linux, or above the user's pipe limit
            pass
    requests_r, requests_w = os.pipe()
    pid = os.fork()
    if pid == 0:
        status = 1
        try:
            os.close(r)
            os.close(requests_w)
            with os.fdopen(w, "wb") as fh, os.fdopen(requests_r, "rb") as requests:

                def send(kind, body):
                    # pickled whole before any byte is written
                    fh.write(pickle.dumps((kind, body), pickle.HIGHEST_PROTOCOL))
                    fh.flush()

                try:
                    runtime.clear()  # so only child_work's entries go back
                    send("value", (child_work(lambda *item: send("item", item)), runtime))
                    if serve is not None:
                        try:
                            args = pickle.load(requests)
                        except EOFError:  # the parent's work ended without asking
                            args = None
                        if args is not None:
                            for item in serve(*args):
                                send("item", item)
                except BaseException as exc:
                    send("raise", _picklable(exc))
            status = 0
        finally:
            os._exit(status)
    os.close(w)
    os.close(requests_r)
    child = _Child(pid, os.fdopen(r, "rb", buffering=0), os.fdopen(requests_w, "wb"), on_item, runtime)
    try:
        value = work(child)
        return child.result(), value
    except BaseException:
        child.stop()
        raise
    finally:
        child.close()
