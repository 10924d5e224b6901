"""An ordered map over two threads: the calling thread and one helper.

Each caller maps items that do not depend on one another and whose work
runs mostly in code that releases the interpreter lock (numpy kernels, file
reads and writes), so the two halves run on two cores.
"""

from __future__ import annotations

import threading
from typing import Callable, Sequence, TypeVar

T = TypeVar("T")
R = TypeVar("R")


def map_halves(fn: Callable[[T], R], items: Sequence[T]) -> list[R]:
    """`[fn(x) for x in items]`: one helper thread maps the upper half of
    `items` while the calling thread maps the lower half, the larger one
    when their count is odd.

    Results come back in input order, and the error raised is the one a
    serial loop would raise, the same exception object: a failure in the
    lower half (an interrupt included) stops the helper before its next
    item; a failure in the upper half lets the lower half run on, since any
    failure there comes first. The helper is joined before this returns or
    raises. 0 or 1 item starts no thread.
    """
    if len(items) < 2:
        return [fn(x) for x in items]
    split = (len(items) + 1) // 2
    results: list = [None] * len(items)
    stop = threading.Event()
    upper_error: list[BaseException] = []

    def map_upper() -> None:
        try:
            for i in range(split, len(items)):
                if stop.is_set():
                    return
                results[i] = fn(items[i])
        except BaseException as exc:  # raised again by the calling thread
            upper_error.append(exc)

    helper = threading.Thread(target=map_upper, name="map_halves")
    helper.start()
    try:
        for i in range(split):
            results[i] = fn(items[i])
        helper.join()
    except BaseException:  # an interrupt while waiting in join() included
        stop.set()
        helper.join()
        raise
    if upper_error:
        raise upper_error[0]
    return results
