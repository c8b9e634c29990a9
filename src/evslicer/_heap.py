"""glibc's malloc policy for this process, set once when evslicer is imported.

By default glibc hands the top of its heap back to the kernel whenever a free
leaves more than the trim threshold unused there, so a training call that
frees a few MB of cell grids or gradients at its end faults them all back in
on the next call. A 32 MiB top pad keeps that memory in the process. Setting
the pad turns off glibc's dynamic mmap threshold, so the threshold is pinned
at 32 MiB, the ceiling the dynamic rule reaches on 64-bit hosts. When the
environment sets any of glibc's own controls for these (MALLOC_* variables or
glibc.malloc tunables for the top pad, trim threshold, mmap threshold or mmap
count), they are left to rule and nothing is set here.
"""
import ctypes
import os

M_TOP_PAD, M_MMAP_THRESHOLD = -2, -3     # from glibc's <malloc.h>
PAD_BYTES = 32 << 20
GLIBC_VARS = ("MALLOC_TOP_PAD_", "MALLOC_TRIM_THRESHOLD_", "MALLOC_MMAP_THRESHOLD_",
              "MALLOC_MMAP_MAX_")
GLIBC_TUNABLES = {"glibc.malloc.top_pad", "glibc.malloc.trim_threshold",
                  "glibc.malloc.mmap_threshold", "glibc.malloc.mmap_max"}


def glibc():
    """This process's C library if it is glibc, else None."""
    try:
        version = os.confstr("CS_GNU_LIBC_VERSION")
    except (AttributeError, ValueError, OSError):   # no confstr, or a libc without the name
        return None
    if not version:
        return None
    libc = ctypes.CDLL(None)
    libc.mallopt.argtypes, libc.mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    return libc


def set_policy(libc, env):
    """Call libc's mallopt for the top pad and the mmap threshold, unless
    libc is None (not glibc) or env already sets one of glibc's own controls
    over the same decisions (GLIBC_VARS, GLIBC_TUNABLES); other tunables
    (arena_max, tcache_count, ...) leave the policy on."""
    tunables = {item.partition("=")[0] for item in env.get("GLIBC_TUNABLES", "").split(":")}
    if libc is None or any(name in env for name in GLIBC_VARS) or tunables & GLIBC_TUNABLES:
        return
    libc.mallopt(M_TOP_PAD, PAD_BYTES)
    libc.mallopt(M_MMAP_THRESHOLD, PAD_BYTES)
