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
    mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD, the dynamic threshold's cap
    mallopt(-1, 512 << 20)  # M_TRIM_THRESHOLD; either alone turns that threshold off


_keep_freed_pages()
