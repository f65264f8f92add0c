"""lanefuse: deterministic lane-level camera-LiDAR fusion planning sandbox."""

import ctypes

__version__ = "0.1.0"
_MMAP_THRESHOLD, _TRIM_THRESHOLD = 4 << 20, 8 << 20  # bytes


def _pin_malloc_thresholds(libc) -> None:
    """Fix glibc's M_MMAP_THRESHOLD (-3) and M_TRIM_THRESHOLD (-1), so freed temporaries
    stay on the heap rather than faulting in again next pass; no-op without mallopt."""
    if hasattr(libc, "mallopt"):
        libc.mallopt(-3, _MMAP_THRESHOLD)
        libc.mallopt(-1, _TRIM_THRESHOLD)


_pin_malloc_thresholds(ctypes.CDLL(None))
