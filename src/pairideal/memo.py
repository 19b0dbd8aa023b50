"""One memo for every derived object.

`memo` caches `method(self, *args)` in the instance's own `__dict__`, one
dict per method keyed by the positional arguments, so each cache lives and
dies with its instance and no cache is global.  A hit is a subscript of
that dict; only a miss creates anything.
"""

from functools import wraps


def memo(method):
    """Cache method(self, *args) on self; args must be hashable."""
    slot = method.__qualname__  # holds a dot, so it clashes with no attribute

    @wraps(method)
    def cached(self, *args):
        try:
            return self.__dict__[slot][args]
        except KeyError:
            pass
        # the slot is fetched after the call, which may fill it recursively
        value = self.__dict__.setdefault(slot, {})[args] = method(self, *args)
        return value

    return cached
