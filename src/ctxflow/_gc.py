"""The cyclic collector's pause around a bulk build."""

import functools
import gc


def collector_paused(build):
    """``build`` with Python's cyclic collector paused for the whole call.

    A bulk build (loading a bundle, translating a model, exploring a net)
    makes many objects and no reference cycles, so a collection would only
    walk the growing heap and free nothing. The caller's setting is put
    back when the call returns or raises: a collector the caller had turned
    off stays off. The setting is process-wide, so another thread sees the
    collector paused meanwhile.
    """
    @functools.wraps(build)
    def paused(*args, **kwargs):
        collecting = gc.isenabled()
        gc.disable()
        try:
            return build(*args, **kwargs)
        finally:
            if collecting:
                gc.enable()
    return paused
