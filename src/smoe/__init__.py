"""Desk-scale speech-to-text transformer with supervised expert routing."""

import ctypes

__version__ = "0.1.0"


def _keep_freed_pages() -> None:
    """Have glibc reuse freed heap pages (README "Conventions worth knowing")."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):  # no mallopt to call
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    mallopt(-4, 0)  # M_MMAP_MAX: no block is mapped on its own, so arenas reuse heap pages
    mallopt(-1, 512 << 20)  # M_TRIM_THRESHOLD: a free heap top up to this size is kept


_keep_freed_pages()
