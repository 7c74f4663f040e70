"""Per-layer tracing of irslab from outside the package.

Wrappers replace the public functions of each layer wherever callers look
them up: the attributes of the active kernel module (which also catches the
kernels' calls to each other), every ``irslab`` module namespace that
imported the function by name, one method on a class, and the
``verify.SUITES`` table.  Each wrapped function feeds one accumulator of
calls, total time and self time (total minus the time of wrapped callees),
plus a few work counters; nothing is stored per call, so functions called
millions of times cost one accumulator update each.  The engine is
single-threaded with no queues, so no layer waits on another: the trace
records busy time and counts only.
"""

from __future__ import annotations

import sys
import time

# (layer, module, attribute).  Layer "kernels" is whatever module
# irslab._backend.kernels points at.
TARGETS = (
    ("kernels", None, "depth_syllables"),
    ("kernels", None, "rewrite_syllables"),
    ("kernels", None, "shifted_depth"),
    ("kernels", None, "member_scan"),
    ("kernels", None, "geometric_coordinate"),
    ("kernels", None, "prf_block"),
    ("kernels", None, "spiral_point"),
    ("kernels", None, "spiral_index"),
    ("dyadic", "irslab.dyadic", "certified_product"),
    ("measures", "irslab.measures", "env_prob"),
    ("measures", "irslab.measures", "kernel_contains"),
    ("measures", "irslab.measures", "mixing_defect"),
    ("ywords", "irslab.ywords", "rewrite_to_y"),
    ("ywords", "irslab.ywords", "depth"),
    ("words", "irslab.words", "conjugate"),
    ("sampler", "irslab.sampler", "depth_profile"),
    ("sampler", "irslab.sampler", "membership_matrix"),
)
METHOD_TARGETS = (("sampler", "irslab.sampler", "SampledSubgroup", "coordinate"),)


class _Counted:
    """Iterator that counts the items its consumer pulls."""

    __slots__ = ("_it", "acc")

    def __init__(self, iterable, acc):
        self._it = iter(iterable)
        self.acc = acc

    def __iter__(self):
        return self

    def __next__(self):
        item = next(self._it)
        self.acc["factors"] += 1
        return item


class Tracer:
    """Accumulators keyed by ``layer.function``; install() swaps wrappers
    in, uninstall() puts every original back."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.acc = {}
        self._stack = []  # one [child_seconds, name] frame per open call
        self._patches = []  # (owner, attribute, original), in install order

    # -- wrapping -----------------------------------------------------------

    def wrap(self, name, fn):
        """A wrapper of fn that feeds the accumulator ``name``."""
        before, after, counters = _HOOKS.get(name, (None, None, ()))
        acc = self.acc.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        for key in counters:
            acc.setdefault(key, 0)
        stack = self._stack
        clock = self.clock

        def traced(*args, **kwargs):
            if before is not None:
                args = before(self, acc, args)
            frame = [0.0, name]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                acc["calls"] += 1
                acc["total_s"] += dt
                acc["self_s"] += dt - frame[0]
                if stack:
                    stack[-1][0] += dt
            if after is not None:
                after(acc, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def parent(self):
        """Name of the innermost open call, or None."""
        return self._stack[-1][1] if self._stack else None

    def _replace_everywhere(self, original, wrapper, modules):
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, attr, original))
                    setattr(mod, attr, wrapper)

    def install(self):
        """Wrap every target in every loaded irslab module."""
        import irslab._backend as backend

        kernels = backend.kernels
        modules = [kernels] + [
            m for n, m in sorted(sys.modules.items())
            if m is not None and (n == "irslab" or n.startswith("irslab.")) and m is not kernels
        ]
        for layer, module_name, attr in TARGETS:
            owner = kernels if module_name is None else sys.modules[module_name]
            original = getattr(owner, attr)
            self._replace_everywhere(original, self.wrap("%s.%s" % (layer, attr), original), modules)
        for layer, module_name, cls_name, attr in METHOD_TARGETS:
            cls = getattr(sys.modules[module_name], cls_name)
            original = cls.__dict__[attr]
            self._patches.append((cls, attr, original))
            setattr(cls, attr, self.wrap("%s.%s.%s" % (layer, cls_name, attr), original))
        suites = sys.modules["irslab.verify"].SUITES
        for suite, original in list(suites.items()):
            self._patches.append((suites, suite, original))
            suites[suite] = self.wrap("verify.%s" % suite, original)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)
        self._patches.clear()


# -- work counters --------------------------------------------------------
# A before-hook may replace the call's arguments; an after-hook sees the
# arguments and the result of a call that returned.

def _count_factors(tracer, acc, args):
    return (_Counted(args[0], acc),) + tuple(args[1:])


def _product_outcome(acc, args, result):
    if result.is_exact():
        acc["exact"] += 1
    elif result.width_reached:
        acc["width_reached"] += 1
    else:
        acc["not_reached"] += 1


def _count_full_eval(tracer, acc, args):
    if tracer.parent() == "measures.kernel_contains":
        tracer.acc["measures.kernel_contains"]["full_eval"] += 1
    return args


def _count_scanned(tracer, acc, args):
    if tracer.parent() == "kernels.member_scan":
        acc["in_scans"] += 1
    return args


def _count_input_syllables(acc, args, result):
    acc["syllables"] += len(args[0])


def _count_output(key):
    def hook(acc, args, result):
        acc[key] += len(result)
    return hook


# name -> (before-hook, after-hook, extra counters of the accumulator)
_HOOKS = {
    "dyadic.certified_product": (
        _count_factors, _product_outcome, ("factors", "exact", "width_reached", "not_reached")),
    "measures.env_prob": (_count_full_eval, None, ()),
    "measures.kernel_contains": (None, None, ("full_eval",)),
    "kernels.geometric_coordinate": (_count_scanned, None, ("in_scans",)),
    "kernels.depth_syllables": (None, _count_input_syllables, ("syllables",)),
    "kernels.rewrite_syllables": (None, _count_output("syllables"), ("syllables",)),
    "sampler.depth_profile": (None, _count_output("entries"), ("entries",)),
}
