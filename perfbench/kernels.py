"""Kernel layer: the dense polynomial kernels at fixed sizes.

Eisenstein products at e = 125, 625, 3125 (p = 5, N = 6) and truncated
characteristic-p products at windows 150, 750, 3750 (p = 5), each timed
REPEAT times and reported as a median with its interquartile spread.
The traced benchmark run reports these for the kernels tiltlab selects;
run on its own, this file compares the pure-Python kernels with the
compiled ones when those are built:

    python3 perfbench/kernels.py
"""

import random
import statistics
import sys
from time import perf_counter

EISENSTEIN_SIZES = (125, 625, 3125)
WINDOW_SIZES = (150, 750, 3750)
P, N_DIGITS = 5, 6
REPEAT = 21


def cases(seed):
    """(kernel, size label, arguments) for every size, inputs from the seed."""
    rng = random.Random(seed)
    pmod = P**N_DIGITS
    out = []
    for e in EISENSTEIN_SIZES:
        a = [rng.randrange(pmod) for _ in range(e)]
        b = [rng.randrange(pmod) for _ in range(e)]
        out.append(("eisenstein_mul", f"e{e}", (a, b, e, P, pmod)))
    for window in WINDOW_SIZES:
        a = [rng.randrange(P) for _ in range(window)]
        b = [rng.randrange(P) for _ in range(window)]
        out.append(("window_mul", f"w{window}", (a, b, window, P)))
    return out


def selected():
    """The kernel module tiltlab calls: its backend switch while one exists."""
    try:
        from tiltlab import _backend
    except ImportError:
        from tiltlab import _kernels_py as _backend
    return _backend


def _spread(samples):
    q1, med, q3 = statistics.quantiles(samples, n=4)
    return statistics.median(samples), (q3 - q1) / med


def measure(module, seed, repeat=REPEAT):
    """{(kernel, size): (median seconds, IQR as a share of the median)}."""
    results = {}
    for kernel, size, args in cases(seed):
        fn = getattr(module, kernel)
        fn(*args)
        samples = []
        for _ in range(repeat):
            t0 = perf_counter()
            fn(*args)
            samples.append(perf_counter() - t0)
        results[kernel, size] = _spread(samples)
    return results


def main():
    import program

    program.prepare()
    program.check_import()
    from tiltlab import _kernels_py

    try:
        from tiltlab import _kernels as compiled
    except ImportError:
        compiled = None
    print(f"tiltlab backend in this process: {program.backend_name()}")
    print(f"compiled kernels importable: {compiled is not None}")
    py = measure(_kernels_py, 0)
    cy = measure(compiled, 0) if compiled is not None else {}
    header = (f"{'kernel':<16} {'size':>6} {'python ms':>10} {'iqr':>6} "
              f"{'compiled ms':>12} {'iqr':>6} {'ratio':>7}")
    print(header)
    print("-" * len(header))
    for key, (t_py, s_py) in py.items():
        if key in cy:
            t_cy, s_cy = cy[key]
            right = f"{t_cy * 1e3:12.3f} {s_cy:6.1%} {t_py / t_cy:6.2f}x"
        else:
            right = f"{'-':>12} {'-':>6} {'-':>7}"
        print(f"{key[0]:<16} {key[1]:>6} {t_py * 1e3:10.3f} {s_py:6.1%} {right}")

    # One end-to-end figure, labelled with the backend tiltlab really used.
    from tiltlab.monoidal import multiplicativity_trial
    from tiltlab.towers import TowerSpec, build_tower

    handle = build_tower(TowerSpec(prime=5, n_digits=6, depth=4))
    t0 = perf_counter()
    result = multiplicativity_trial(handle, 0, 4, pairs=100, seed=0)
    elapsed = perf_counter() - t0
    print(f"\nsharp multiplicativity, 100 pairs at depth 4 "
          f"({program.backend_name()} backend): {elapsed:.2f} s, "
          f"verdict {result.verdict}")
    return 0 if result.ok() else 1


if __name__ == "__main__":
    sys.exit(main())
