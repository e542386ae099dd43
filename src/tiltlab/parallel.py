"""Map over independent checks, in input order.

The map is serial: the checks are pure Python and hold the interpreter
lock, so worker threads would only add hand-off cost.
"""


def pmap(fn, items):
    return [fn(x) for x in items]
