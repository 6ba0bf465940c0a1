"""Outside-in layer tracing for the benchmark's traced run.

:class:`LayerTracer` wraps, at class and module level, every public
function of the simulator's layer modules (see :data:`LAYERS`) with a
timing shim, so the program itself is not edited.  The functions are
found by introspection, not listed by hand: a method a later change adds
or renames is timed as soon as it exists.

Span rules:

* one span per entry into a layer; a call that stays inside the layer it
  was made from is folded into the outermost span (its count still
  registers in :attr:`LayerTracer.calls`);
* a span records ``(name, start_ns, end_ns, parent)`` in flat arrays
  that are written out once, at the end (:meth:`LayerTracer.write`);
* a layer's self time is its spans' durations minus the time covered by
  their child spans;
* generators (public generator functions, and every process body handed
  to the executive) are timed per resume, so a body's own code is
  charged to ``workloads`` and not to the executive that drives it.

Leaf bookkeeping modules (``hw.clock``, ``hw.monitor``, ``hw.bat``,
``hw.segment`` and the pure address/PTE helpers) are not wrapped: their
cost lands in the self time of whichever layer called them.  The same
holds for a function another module imported by name (``from m import
f``) before the shims went in: only the module and class attributes are
replaced, so such a copy runs as a helper of its caller.
"""

from __future__ import annotations

import gzip
import importlib
import inspect
import json
import sys
import time
from array import array
from typing import Callable, Dict, List, Tuple

#: Layer name -> modules whose public functions belong to it.  Layer
#: names are the module names under ``repro``.
LAYERS: Dict[str, Tuple[str, ...]] = {
    "hw.cache": ("repro.hw.cache",),
    "hw.hashtable": ("repro.hw.hashtable",),
    "hw.walker": ("repro.hw.walker",),
    "hw.tlb": ("repro.hw.tlb",),
    "hw.machine": ("repro.hw.machine", "repro.hw.cpu"),
    "kernel.fault": ("repro.kernel.fault",),
    "kernel.reload": ("repro.kernel.reload",),
    "kernel.pagetable": ("repro.kernel.pagetable",),
    "kernel.flush": ("repro.kernel.flush",),
    "kernel.idle": ("repro.kernel.idle",),
    "kernel.syscall": ("repro.kernel.syscall",),
    "kernel.shootdown": ("repro.kernel.shootdown",),
    # The rest of the kernel: the Kernel object's non-syscall methods,
    # the scheduler, the frame and VSID allocators, the file cache.
    "kernel.core": (
        "repro.kernel.kernel",
        "repro.kernel.sched",
        "repro.kernel.palloc",
        "repro.kernel.vsid",
        "repro.kernel.fs",
    ),
    "sim": ("repro.sim.process", "repro.sim.simulator"),
    # Input generation: the workload drivers and the page-visit
    # generators (process bodies join this layer per resume).
    "workloads": (
        "repro.workloads.lmbench",
        "repro.workloads.mixes",
        "repro.workloads.kbuild",
        "repro.workloads.service",
        "repro.sim.trace",
    ),
    # The flight recorder.  The package ``__init__`` is left out: it is
    # the on/off switch every boot consults whether or not the recorder
    # is on, so wrapping it would count recorder calls on runs that
    # record nothing.
    "obs": (
        "repro.obs.events",
        "repro.obs.profiler",
        "repro.obs.sampler",
        "repro.obs.analytics",
        "repro.obs.metrics",
        "repro.obs.session",
    ),
    "analysis": (
        "repro.analysis.engine",
        "repro.analysis.specs",
        "repro.analysis.spec",
        "repro.analysis.capacity",
        "repro.analysis.cache",
    ),
}

#: Kernel entry points named ``sys_*`` live on the Kernel object but are
#: the system-call layer.
SYSCALL_PREFIX = "sys_"
SYSCALL_LAYER = "kernel.syscall"

#: Construction of a booted system.  A nested constructor (the machine
#: inside the simulator) folds into the outer one, so ``kernel.boot``
#: calls count boots.
BOOT_LAYER = "kernel.boot"
BOOT_CONSTRUCTORS = (
    ("repro.sim.simulator", "Simulator"),
    ("repro.hw.machine", "MachineModel"),
    ("repro.kernel.kernel", "Kernel"),
)

#: Layer charged with each resume of a process body.
BODY_LAYER = "workloads"


def _public_functions(module) -> List[Tuple[object, str, object, bool]]:
    """``(owner, attribute, function, is_method)`` for every public
    function defined in ``module``: module-level functions and the
    methods, static methods and class methods of its classes."""
    found = []
    classes = set()
    for name, value in list(vars(module).items()):
        if name.startswith("_"):
            continue
        if inspect.isfunction(value) and value.__module__ == module.__name__:
            found.append((module, name, value, False))
        elif (
            inspect.isclass(value)
            and value.__module__ == module.__name__
            and not issubclass(value, BaseException)
            and value not in classes
        ):
            classes.add(value)
            for attr, member in list(vars(value).items()):
                if attr.startswith("_"):
                    continue
                if inspect.isfunction(member):
                    found.append((value, attr, member, True))
                elif isinstance(member, (staticmethod, classmethod)):
                    found.append((value, attr, member, True))
    return found


class LayerTracer:
    """Install/uninstall timing shims and hold the spans they record."""

    def __init__(self, layers: Dict[str, Tuple[str, ...]] = LAYERS) -> None:
        self.layers = layers
        self.layer_names: List[str] = list(
            dict.fromkeys([*layers, SYSCALL_LAYER, BOOT_LAYER, BODY_LAYER])
        )
        self._layer_index = {name: i for i, name in enumerate(self.layer_names)}
        #: Span-name table: ``"layer:qualname"`` per name id.
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self._name_layer: List[int] = []
        #: Every invocation of a wrapped function, folded or not.
        self.calls = array("q")
        self.span_name = array("H")
        self.span_parent = array("i")
        self.span_start = array("q")
        self.span_end = array("q")
        self._stack: List[Tuple[int, int]] = []
        self._patches: List[Tuple[object, str, object]] = []
        self.installed = False

    # -- names ------------------------------------------------------------

    def _name_id(self, layer: str, qualname: str) -> int:
        key = f"{layer}:{qualname}"
        index = self._name_ids.get(key)
        if index is None:
            index = len(self.names)
            self._name_ids[key] = index
            self.names.append(key)
            self._name_layer.append(self._layer_index[layer])
            self.calls.append(0)
        return index

    # -- the shims --------------------------------------------------------

    def _enter(self, name_id: int, start: int) -> int:
        """Open a span; returns its index (the frame pushed on the stack)."""
        stack = self._stack
        index = len(self.span_end)
        self.span_name.append(name_id)
        self.span_parent.append(stack[-1][1] if stack else -1)
        self.span_start.append(start)
        self.span_end.append(0)
        stack.append((self._name_layer[name_id], index))
        return index

    def wrap(self, func: Callable, layer: str, qualname: str) -> Callable:
        """A timing shim for ``func`` charged to ``layer``.

        The clock is read first thing on entry and last thing on exit,
        so the shim's own bookkeeping counts in the called layer's span
        and only the bare call overhead lands in the caller's self time.
        """
        name_id = self._name_id(layer, qualname)
        if inspect.isgeneratorfunction(func):
            def shim(*args, **kwargs):
                return self.timed_generator(func(*args, **kwargs), name_id)
        else:
            layer_id = self._name_layer[name_id]
            stack = self._stack
            push, pop = stack.append, stack.pop
            calls = self.calls
            ends = self.span_end
            name_append = self.span_name.append
            parent_append = self.span_parent.append
            start_append = self.span_start.append
            end_append = ends.append
            clock = time.perf_counter_ns

            def shim(*args, **kwargs):
                calls[name_id] += 1
                if stack:
                    top = stack[-1]
                    if top[0] == layer_id:
                        return func(*args, **kwargs)
                    parent = top[1]
                else:
                    parent = -1
                start = clock()
                index = len(ends)
                name_append(name_id)
                parent_append(parent)
                start_append(start)
                end_append(0)
                push((layer_id, index))
                try:
                    return func(*args, **kwargs)
                finally:
                    pop()
                    ends[index] = clock()

        shim.__wrapped__ = func
        shim.__name__ = func.__name__
        shim.__qualname__ = func.__qualname__
        shim.__doc__ = func.__doc__
        return shim

    def timed_generator(self, gen, name_id: int):
        """Drive ``gen``, timing each resume as a span of its layer."""
        layer_id = self._name_layer[name_id]
        stack = self._stack
        calls = self.calls
        ends = self.span_end
        clock = time.perf_counter_ns
        try:
            value = None
            while True:
                calls[name_id] += 1
                if stack and stack[-1][0] == layer_id:
                    try:
                        item = gen.send(value)
                    except StopIteration as stop:
                        return stop.value
                else:
                    index = self._enter(name_id, clock())
                    try:
                        item = gen.send(value)
                    except StopIteration as stop:
                        return stop.value
                    finally:
                        stack.pop()
                        ends[index] = clock()
                value = yield item
        finally:
            gen.close()

    # -- install / uninstall ---------------------------------------------

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap every layer module's public functions (before any boot)."""
        if self.installed:
            raise RuntimeError("layer tracer already installed")
        for module_name, class_name in BOOT_CONSTRUCTORS:
            cls = getattr(importlib.import_module(module_name), class_name)
            self._patch(cls, "__init__", self.wrap(
                vars(cls)["__init__"], BOOT_LAYER, f"{class_name}.__init__"
            ))
        self._wrap_bodies()
        for layer, module_names in self.layers.items():
            for module_name in module_names:
                module = importlib.import_module(module_name)
                for owner, attr, member, is_method in _public_functions(module):
                    charged = layer
                    if is_method and attr.startswith(SYSCALL_PREFIX):
                        charged = SYSCALL_LAYER
                    qualname = f"{owner.__name__}.{attr}" if is_method else attr
                    if isinstance(member, (staticmethod, classmethod)):
                        shim = type(member)(
                            self.wrap(member.__func__, charged, qualname)
                        )
                    else:
                        shim = self.wrap(member, charged, qualname)
                    self._patch(owner, attr, shim)
        self.installed = True

    def _wrap_bodies(self) -> None:
        """Time each process body the executive is handed, per resume."""
        from repro.sim.process import Executive

        original = vars(Executive)["add"]
        tracer = self

        def add(executive, task, body):
            qualname = getattr(body, "__qualname__", type(body).__name__)
            name_id = tracer._name_id(BODY_LAYER, f"body:{qualname}")
            return original(
                executive, task, tracer.timed_generator(body, name_id)
            )

        add.__wrapped__ = original
        add.__doc__ = original.__doc__
        self._patch(Executive, "add", add)

    def uninstall(self) -> None:
        """Restore every patched attribute, newest first."""
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
        self.installed = False

    # -- results -----------------------------------------------------------

    def layer_totals(self) -> Dict[str, Dict[str, int]]:
        """Per layer: ``spans`` (entries), ``self_ns`` and ``root_ns``.

        Self time is each span's duration minus the time its child spans
        cover.  ``root_ns`` is the time of spans with no parent.
        """
        count = len(self.span_end)
        starts, ends, parents = self.span_start, self.span_end, self.span_parent
        covered = array("q", bytes(8 * count))
        for i in range(count):
            parent = parents[i]
            if parent >= 0:
                covered[parent] += ends[i] - starts[i]
        spans = [0] * len(self.layer_names)
        self_ns = [0] * len(self.layer_names)
        root_ns = [0] * len(self.layer_names)
        layer_of = self._name_layer
        names = self.span_name
        for i in range(count):
            layer = layer_of[names[i]]
            duration = ends[i] - starts[i]
            spans[layer] += 1
            self_ns[layer] += duration - covered[i]
            if parents[i] < 0:
                root_ns[layer] += duration
        return {
            name: {"spans": spans[i], "self_ns": self_ns[i], "root_ns": root_ns[i]}
            for i, name in enumerate(self.layer_names)
        }

    def span_ns(self, qualname: str) -> int:
        """Summed duration of the spans opened by ``qualname``."""
        wanted = {
            i for i, name in enumerate(self.names)
            if name.split(":", 1)[1] == qualname
        }
        starts, ends, names = self.span_start, self.span_end, self.span_name
        return sum(
            ends[i] - starts[i] for i in range(len(ends)) if names[i] in wanted
        )

    def function_calls(self, qualname: str) -> int:
        """Invocations, folded ones included, of ``qualname``."""
        return sum(
            self.calls[i] for i, name in enumerate(self.names)
            if name.split(":", 1)[1] == qualname
        )

    def write(self, path: str, header: Dict[str, object]) -> None:
        """Write the spans: a JSON header line, then the four columns
        (name id u16, parent i32, start ns i64, end ns i64) as raw
        little-endian arrays, gzip-compressed."""
        header = dict(header, names=self.names, spans=len(self.span_end),
                      columns=["name:H", "parent:i", "start_ns:q", "end_ns:q"])
        with gzip.open(path, "wb", compresslevel=1) as out:
            out.write((json.dumps(header) + "\n").encode())
            for column in (self.span_name, self.span_parent,
                           self.span_start, self.span_end):
                if sys.byteorder != "little":
                    column = array(column.typecode, column)
                    column.byteswap()
                out.write(column.tobytes())


def wrapper_cost_ns(calls: int = 200_000, repeats: int = 5) -> float:
    """Host cost of one wrapped no-op call net of the bare call (median
    over ``repeats``), measured on a throwaway tracer."""

    def noop():
        return None

    shim = LayerTracer().wrap(noop, BOOT_LAYER, "noop")
    samples = []
    for _ in range(repeats):
        start = time.perf_counter_ns()
        for _ in range(calls):
            noop()
        bare = time.perf_counter_ns() - start
        start = time.perf_counter_ns()
        for _ in range(calls):
            shim()
        wrapped = time.perf_counter_ns() - start
        samples.append((wrapped - bare) / calls)
    samples.sort()
    return samples[len(samples) // 2]
