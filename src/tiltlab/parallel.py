"""A serial map, kept only because the benchmark's tracer patches it by name.

No module of the package calls it: the checks are pure Python and hold
the interpreter lock, so they run as plain loops.  The module goes when
the tracer stops naming it.
"""


def pmap(fn, items):
    return [fn(x) for x in items]
