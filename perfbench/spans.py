"""Span tracing of tiltlab from outside the package.

``Tracer.install()`` replaces the public entry points listed in TARGETS
with wrappers that record one span per call: name, start, end, parent
span and request id.  Spans stay in per-thread column arrays until the
run ends; ``uninstall()`` restores the originals.  ``analyse()`` turns the
spans into per-layer self times and exact work counters.

Self time is a span's duration minus the time its children cover.  The
jobs of one ``pmap`` call run in worker threads and overlap, so the time
they cover together (their union) is shared among them in proportion to
their durations, and the pmap span keeps the rest as waiting time.  With
that rule the self times of all spans add up to the traced wall time.
"""

import functools
import gzip
import importlib
import sys
import threading
from array import array
from time import perf_counter

# (module, attribute, span name).  "Cls.meth" patches a class attribute;
# a plain name is rebound in every tiltlab module that imported it.
TARGETS = [
    ("tiltlab._backend", "eisenstein_mul", "backend.eisenstein_mul"),
    ("tiltlab._backend", "window_mul", "backend.window_mul"),
    ("tiltlab.core", "LayerElem.__mul__", "core.mul"),
    ("tiltlab.core", "LayerElem.__rmul__", "core.mul"),
    ("tiltlab.core", "LayerElem.__add__", "core.add"),
    ("tiltlab.core", "LayerElem.__radd__", "core.add"),
    ("tiltlab.core", "LayerElem.__pow__", "core.pow"),
    ("tiltlab.core", "LayerRing.invert", "core.invert"),
    ("tiltlab.core", "LayerRing.reduce_mod_ideal", "core.reduce_mod_ideal"),
    ("tiltlab.towers", "build_tower", "towers.build_tower"),
    ("tiltlab.towers", "check_axioms", "towers.check_axioms"),
    ("tiltlab.towers", "frob_projection", "towers.maps"),
]
TARGETS += [
    ("tiltlab.towers", f"{cls}.{meth}", "towers.maps")
    for cls in ("TowerHandle", "ProductTower")
    for meth in ("transition", "embed", "tbar", "tbar_multi", "frob", "frob_multi")
]
TARGETS += [
    ("tiltlab.tilts", "small_tilt", "tilts.small_tilt"),
    ("tiltlab.tilts", "tilt_tower", "tilts.tilt_tower"),
    ("tiltlab.tilts", "p_flat", "tilts.elements"),
    ("tiltlab.tilts", "f_flat_generator", "tilts.elements"),
]
TARGETS += [
    ("tiltlab.tilts", f"SmallTiltElem.{meth}", "tilts.elements")
    for meth in ("__add__", "__sub__", "__mul__", "__rmul__", "__pow__",
                 "component", "components", "embed_up")
]
TARGETS += [
    ("tiltlab.tilts", f"TiltPresentation.{meth}", "tilts.presentation")
    for meth in ("generator", "from_presentation", "to_presentation", "parse",
                 "text_of", "random_element")
]
TARGETS += [("tiltlab.monoidal", "sharp", "monoidal.sharp")]
TARGETS += [
    ("tiltlab.monoidal", name, "monoidal.checks")
    for name in ("check_sharp_reduction", "check_tilt_quotient_iso",
                 "check_pillar_valuation", "idempotent_bijection",
                 "torsion_bijection", "multiplicativity_trial",
                 "lift_independence_trial")
]
TARGETS += [
    ("tiltlab.closure", "check_root_closed", "closure.check_root_closed"),
    ("tiltlab.closure", "is_cartesian_mod_f", "closure.is_cartesian_mod_f"),
    ("tiltlab.closure", "transfer_suite", "closure.other"),
    ("tiltlab.closure", "almost_integral_witness", "closure.other"),
    ("tiltlab.closure", "almost_integral_probes", "closure.other"),
]
TARGETS += [
    ("tiltlab.linalg", name, "linalg")
    for name in ("RowSpan.__init__", "RowSpan.reduce", "RowSpan.contains",
                 "RowSpan.rank_fp", "RowSpan.generators", "kernel_generators",
                 "matrix_rank_fp", "span_contains", "spans_equal")
]
TARGETS += [
    ("tiltlab.ramified", "delta_table", "ramified.delta_table"),
    ("tiltlab.ramified", "assemble_perfectoid", "ramified.assemble_perfectoid"),
]
TARGETS += [
    ("tiltlab.ramified", name, "ramified.other")
    for name in ("build_cover_layers", "find_epsilon", "tilted_delta_table",
                 "colimit_shadow", "verify_epsilon_certificate",
                 "smalltilt_normality_report")
]
TARGETS += [
    ("tiltlab.parallel", "pmap", "parallel.pmap"),
    ("tiltlab.battery", "run_battery", "battery.run_battery"),
]
TARGETS += [
    ("tiltlab.battery", name, "battery.blocks")
    for name in ("pure_tower", "kummer_tower_5_2", "crafted_negative_pairs",
                 "closure_pair_collection", "closure_oracle_block")
]
TARGETS += [("tiltlab.cli", "run", "cli.run")]

REQUEST = "harness.request"
PMAP = "parallel.pmap"
JOB_SUFFIX = ":job"
LAYERS = ("backend", "core", "towers", "tilts", "monoidal", "closure",
          "linalg", "ramified", "parallel", "battery", "cli", "harness")


def _lane_bytes(max_coeff, length):
    """Byte width of one Kronecker lane that holds a convolution sum."""
    return ((max_coeff * max_coeff * length + 1).bit_length() + 7) // 8


def _eisenstein_extra(args, result):
    a, b, e, _p, pmod = args[:5]
    packed = 0 if e == 1 else _lane_bytes(pmod - 1, e) * (len(a) + len(b) + 2 * e - 1)
    return len(a) + len(b), packed


def _window_extra(args, result):
    return len(args[0]) + len(args[1]), 0


def _candidates_extra(args, result):
    return result.samples or 0, 0


# Work measured from a call's arguments or result, beyond its call count.
EXTRAS = {
    "backend.eisenstein_mul": _eisenstein_extra,
    "backend.window_mul": _window_extra,
    "closure.check_root_closed": _candidates_extra,
}


class _Log:
    """Spans opened by one thread, as columns."""

    def __init__(self, slot):
        self.key = slot << 32
        self.name = array("i")
        self.parent = array("q")
        self.request = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = []
        self.extra = {}


class Tracer:
    def __init__(self):
        self.names = []
        self._ids = {}
        self._local = threading.local()
        self._logs = []
        self._lock = threading.Lock()
        self._patches = []
        self.skipped = []
        self.recording = True
        self.request_id = 0

    # -- recording -------------------------------------------------------

    def _name_id(self, name):
        with self._lock:
            if name not in self._ids:
                self._ids[name] = len(self.names)
                self.names.append(name)
            return self._ids[name]

    def _log(self):
        try:
            return self._local.log
        except AttributeError:
            with self._lock:
                log = _Log(len(self._logs))
                self._logs.append(log)
            self._local.log = log
            return log

    def _open(self, log, name_id, parent):
        idx = len(log.start)
        log.name.append(name_id)
        log.parent.append(parent)
        log.request.append(self.request_id)
        log.end.append(0.0)
        log.start.append(perf_counter())
        sid = log.key | idx
        log.stack.append(sid)
        return idx

    def _close(self, log, idx):
        log.end[idx] = perf_counter()
        log.stack.pop()

    def _wrap(self, fn, name):
        name_id = self._name_id(name)
        extra = EXTRAS.get(name)
        tracer = self
        local = self._local

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.recording:
                return fn(*args, **kwargs)
            # _open and _close, inlined: this runs once per traced call.
            try:
                log = local.log
            except AttributeError:
                log = tracer._log()
            stack = log.stack
            idx = len(log.start)
            log.name.append(name_id)
            log.parent.append(stack[-1] if stack else -1)
            log.request.append(tracer.request_id)
            log.end.append(0.0)
            stack.append(log.key | idx)
            log.start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                log.end[idx] = perf_counter()
                stack.pop()
            if extra is not None:
                sums = log.extra.setdefault(name_id, [0, 0])
                a, b = extra(args, result)
                sums[0] += a
                sums[1] += b
            return result

        return wrapper

    def _wrap_pmap(self, fn, name):
        """pmap opens a span and hands its workers jobs that open child spans.

        A job span is named after the span that called pmap, so the jobs'
        time lands in the caller's layer.
        """
        name_id = self._name_id(name)
        tracer = self

        @functools.wraps(fn)
        def wrapper(job_fn, items, *args, **kwargs):
            if not tracer.recording:
                return fn(job_fn, items, *args, **kwargs)
            log = tracer._log()
            caller = log.stack[-1] if log.stack else -1
            caller_name = tracer._span_name(caller) if caller >= 0 else "harness"
            job_id = tracer._name_id(caller_name + JOB_SUFFIX)
            idx = tracer._open(log, name_id, caller)
            pmap_sid = log.key | idx

            def job(item):
                wlog = tracer._log()
                jdx = tracer._open(wlog, job_id, pmap_sid)
                try:
                    return job_fn(item)
                finally:
                    tracer._close(wlog, jdx)

            try:
                return fn(job, items, *args, **kwargs)
            finally:
                tracer._close(log, idx)

        return wrapper

    def _span_name(self, sid):
        log = self._logs[sid >> 32]
        return self.names[log.name[sid & 0xFFFFFFFF]]

    def request(self, request_id):
        """Context for one request: a root span that every span inside shares."""
        tracer = self

        class _Request:
            def __enter__(self):
                tracer.request_id = request_id
                self.log = tracer._log()
                self.idx = tracer._open(self.log, tracer._name_id(REQUEST), -1)

            def __exit__(self, *exc):
                tracer._close(self.log, self.idx)
                return False

        return _Request()

    # -- patching --------------------------------------------------------

    def install(self):
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "tiltlab" or n.startswith("tiltlab.")]
        for module_name, attr, name in TARGETS:
            try:
                module = importlib.import_module(module_name)
                owner, _, meth = attr.rpartition(".")
                if owner:
                    cls = getattr(module, owner)
                    original = cls.__dict__[meth]
                    places = [(cls, meth)]
                else:
                    original = getattr(module, meth)
                    places = [(m, meth) for m in modules
                              if getattr(m, meth, None) is original]
            except (ImportError, AttributeError, KeyError):
                self.skipped.append(f"{module_name}.{attr}")
                continue
            wrap = self._wrap_pmap if name == PMAP else self._wrap
            wrapper = wrap(original, name)
            for owner_obj, key in places:
                self._patches.append((owner_obj, key, original))
                setattr(owner_obj, key, wrapper)

    def uninstall(self):
        while self._patches:
            owner, key, original = self._patches.pop()
            setattr(owner, key, original)

    # -- output ----------------------------------------------------------

    def write(self, path):
        """Write every span as gzip'd CSV: id, parent, name, request, start, end."""
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write("id,parent,name,request,start,end\n")
            for log in self._logs:
                names, key = self.names, log.key
                for i, (n, p, r, s, e) in enumerate(
                    zip(log.name, log.parent, log.request, log.start, log.end)
                ):
                    out.write(f"{key | i},{p},{names[n]},{r},{s!r},{e!r}\n")

    def analyse(self):
        """Aggregate the spans: per-name calls and self time, plus counters."""
        offsets, total = [], 0
        for log in self._logs:
            offsets.append(total)
            total += len(log.start)
        name = array("i")
        parent = []
        start = array("d")
        end = array("d")
        for log in self._logs:
            name.extend(log.name)
            start.extend(log.start)
            end.extend(log.end)
            parent.extend(-1 if p < 0 else offsets[p >> 32] + (p & 0xFFFFFFFF)
                          for p in log.parent)
        pmap_id = self._ids.get(PMAP, -1)
        job_ids = {i for i, n in enumerate(self.names) if n.endswith(JOB_SUFFIX)}
        invert_id = self._ids.get("core.invert", -1)
        sharp_id = self._ids.get("monoidal.sharp", -1)

        covered = [0.0] * total
        jobs = {}
        for g in range(total):
            p = parent[g]
            if p < 0:
                continue
            if p >= g:
                raise RuntimeError("span parent recorded after its child")
            if name[g] in job_ids:
                jobs.setdefault(p, []).append((start[g], end[g]))
            else:
                covered[p] += end[g] - start[g]
        share = {}
        for p, intervals in jobs.items():
            union = _union_length(intervals)
            busy = sum(e - s for s, e in intervals)
            covered[p] += union
            share[p] = union / busy if busy > 0 else 1.0
        factor = [1.0] * total
        in_invert = bytearray(total)
        in_sharp = bytearray(total)
        calls = [0] * len(self.names)
        self_s = [0.0] * len(self.names)
        invert_muls = sharp_pows = 0
        mul_id = self._ids.get("core.mul", -1)
        pow_id = self._ids.get("core.pow", -1)
        wait = 0.0
        for g in range(total):
            p = parent[g]
            n = name[g]
            if p >= 0:
                f = factor[p]
                if n in job_ids:
                    f *= share[p]
                factor[g] = f
                in_invert[g] = in_invert[p] or name[p] == invert_id
                in_sharp[g] = in_sharp[p] or name[p] == sharp_id
            own = (end[g] - start[g] - covered[g]) * factor[g]
            calls[n] += 1
            self_s[n] += own
            if n == pmap_id:
                wait += own
            elif n == mul_id and in_invert[g]:
                invert_muls += 1
            elif n == pow_id and in_sharp[g]:
                sharp_pows += 1
        extras = {}
        for log in self._logs:
            for n, (a, b) in log.extra.items():
                acc = extras.setdefault(self.names[n], [0, 0])
                acc[0] += a
                acc[1] += b
        by_name = {}
        for i, n in enumerate(self.names):
            base = n[: -len(JOB_SUFFIX)] if n.endswith(JOB_SUFFIX) else n
            entry = by_name.setdefault(base, {"calls": 0, "self_s": 0.0})
            if not n.endswith(JOB_SUFFIX):
                entry["calls"] += calls[i]
            entry["self_s"] += self_s[i]
        request_id = self._ids.get(REQUEST, -1)
        wall = sum(end[g] - start[g] for g in range(total) if name[g] == request_id)
        return {
            "by_name": by_name,
            "extras": extras,
            "invert_muls": invert_muls,
            "sharp_pows": sharp_pows,
            "pmap_wait_s": wait,
            "wall_s": wall,
            "spans": total,
        }


def _union_length(intervals):
    length, cur_s, cur_e = 0.0, None, None
    for s, e in sorted(intervals):
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                length += cur_e - cur_s
            cur_s, cur_e = s, e
        elif e > cur_e:
            cur_e = e
    if cur_e is not None:
        length += cur_e - cur_s
    return length
