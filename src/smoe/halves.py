"""An ordered map over two threads, the calling thread and one helper, and
the one size rule that decides when a numpy product is worth the helper.

Each caller maps items that do not depend on one another and whose work
runs mostly in code that releases the interpreter lock (numpy kernels, file
reads and writes), so the two halves run on two cores. The data and
checkpoint callers map whole items: utterances, or the halves of an arena.
The forward's large products map the parts `split_parts` cuts: slices of
rows, heads, experts or vocabulary columns, each part writing its slice of
one preallocated output, so below the rule's size the same code runs as one
part on the calling thread and starts no thread.
"""

from __future__ import annotations

import threading
from typing import Callable, Sequence, TypeVar

T = TypeVar("T")
R = TypeVar("R")

# The multiply-adds of one product below which it runs as one part on the
# calling thread. Measured on a 2-core Intel Xeon host (OpenBLAS 0.3.31, one
# BLAS thread per call), where a two-part map of trivial items costs about
# 80 us: a feedforward block's three products broke even on two parts at
# about 2 M multiply-adds each for d 64 and 5 M for d 256, a single product
# [rows x 512] @ [512 x 512] near 8 M, and products of few rows, which stream
# their weights from memory, from about 1.5 M (one row of 40 000-column
# logits, 20 M: 7.0 -> 3.4 ms). The rule also keeps each part of a row or
# column cut above 1 M, so OpenBLAS never computes a part on its small-matrix
# path while the whole product ran on its blocked one, which sums in another
# order. The largest product of perfbench's bench-dims workloads, and of the
# tests that do not set out to split, is 0.82 M, so those never split.
SPLIT_MIN_MACS = 4_000_000
# A cut of rows or columns falls on a multiple of this, and no part is
# narrower: a cut of a 40 000-column product at column 20 001, or any cut off
# a multiple of 4 columns, moves the last bit of some elements on OpenBLAS.
GRAIN = 8


def split_parts(n: int, macs: int, grain: int = GRAIN) -> list[slice]:
    """How to cut work of `n` units along one axis, whose products each take
    `macs` multiply-adds over all n units: one part, slice(0, n), below
    SPLIT_MIN_MACS or 2 * grain units; else two, cut on a multiple of
    `grain` near the middle with neither part under `grain` units, so
    neither holds under a third of the work. Rows and columns of a product
    take the default grain; heads and experts, each its own product, take
    grain 1.
    """
    if macs < SPLIT_MIN_MACS or n < 2 * grain:
        return [slice(0, n)]
    cut = grain * ((n // grain + 1) // 2)
    return [slice(0, cut), slice(cut, n)]


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
        return list(map(fn, items))
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
