"""drivlab: a desk-scale laboratory for scene-drivability experiments.

Generate synthetic drives with a human oracle, train a recurrent driving
model, label its failures against the oracle, train a Safe/Hazardous
predictor on a disjoint split, and quantify the safety gain of hazard-ranked
human takeover against interval and dropout-uncertainty baselines.
"""

__version__ = "0.1.0"


def _keep_freed_memory() -> bool:
    """Let glibc's malloc reuse the memory the process frees.

    By default glibc maps every block above a dynamic threshold (128 KiB at
    first) afresh and unmaps it on free, and trims freed memory at the top of
    the heap above 128 KiB. A training step's arrays of a few MB were thus
    mapped and page-faulted in again on every step. Fixing the mmap threshold
    at 32 MiB (glibc's maximum) and the trim threshold at 64 MiB keeps such
    blocks in the heap for reuse. Returns whether both settings took; where
    the C library has no ``mallopt`` nothing is changed.
    """
    try:
        import ctypes

        mallopt = ctypes.CDLL(None).mallopt
    except (ImportError, OSError, AttributeError, TypeError):
        return False
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    m_trim_threshold, m_mmap_threshold = -1, -3
    # mallopt returns 1 on success and 0 for a value it rejects
    return mallopt(m_mmap_threshold, 32 << 20) == 1 and mallopt(m_trim_threshold, 64 << 20) == 1


_malloc_tuned = _keep_freed_memory()
