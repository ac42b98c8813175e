"""Learnable audio frontend: Gabor-initialized time-domain filterbanks and
per-channel energy normalization, trained jointly with an LSTM-attention
classifier from raw waveforms, next to a fixed log-mel reference path."""

import ctypes
import os

# mallopt parameters, from glibc's malloc.h.
M_TRIM_THRESHOLD = -1
M_MMAP_THRESHOLD = -3
MMAP_THRESHOLD = 32 << 20
TRIM_THRESHOLD = 2 * MMAP_THRESHOLD  # glibc's own dynamic rule keeps this ratio


def keep_freed_memory(libc) -> bool:
    """Have glibc keep freed memory in the process, process-wide.

    Each utterance builds numpy temporaries of 0.3-1 MB (the padded clip,
    its frames and spectra, the LSTM blocks). Above glibc's default 128 KiB
    thresholds each one is unmapped, or trimmed off the heap top, when it
    is freed, and the next utterance faults its pages back in zeroed. With
    blocks up to 32 MiB served from the heap and the top trimmed only past
    64 MiB free, they reuse the pages instead (README: the fault counts).
    Returns whether both thresholds were set. A libc without `mallopt` is
    left alone, and so is the trim threshold when the mmap threshold is
    refused.
    """
    mallopt = getattr(libc, "mallopt", None)
    if mallopt is None:
        return False
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    return (
        mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD) == 1
        and mallopt(M_TRIM_THRESHOLD, TRIM_THRESHOLD) == 1
    )


HEAP_KEPT = os.name == "posix" and keep_freed_memory(ctypes.CDLL(None))
